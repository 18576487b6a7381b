"""Command line front end.

Verbs:
  presets              list built-in scenarios and their expected verdicts
  run SCENARIO         simulate, print verdicts, optionally write traces/report
  check TRACE          evaluate consistency criteria over a recorded trace
  replay SCENARIO      re-simulate and byte-compare against a stored trace
  campaign --lab NAME  drive a property campaign, report counterexamples

Exit codes: 0 ok, 1 property/verdict violation (counterexample printed) or an
existence property not shown, 2 malformed scenario, trace, or usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import List, Optional, Type

from .blocktree import DomainError
from .campaigns import CORPUS_PRESETS, LABS
from .checkers import CHECKERS, DEFAULT_WINDOW, Status, run_checker
from .history import History, TraceError
from .netsim import (Scenario, ScenarioError, evaluate_run, preset,
                     preset_names, run_scenario, scenario_from_dict)

OK, VIOLATION, SCHEMA = 0, 1, 2


def _read_input(path: str, error: Type[ValueError], what: str) -> str:
    """The UTF-8 text of a scenario or trace file; an unreadable one is malformed."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise error(f"{what} {path}: {reason}") from None


def _load_scenario(ref: str, seed: Optional[int]) -> Scenario:
    if ref in preset_names():
        scenario = preset(ref)
    else:
        text = _read_input(ref, ScenarioError, "no preset or readable scenario file")
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as exc:    # JSONDecodeError is a ValueError
            raise ScenarioError(f"{ref}: not valid JSON ({exc})")
        scenario = scenario_from_dict(payload)
    if seed is not None:
        if scenario.script:
            raise ScenarioError(f"scenario {scenario.name} replays a script "
                                "and does not read --seed")
        scenario = dataclasses.replace(
            scenario, seed=seed,
            oracle=dataclasses.replace(scenario.oracle, seed=seed))
    return scenario


def _seed_note(scenario: Scenario, text: str) -> str:
    """`text` naming the run's seed; "" for a scripted run, which reads none."""
    return "" if scenario.script else text.format(scenario.seed)


def _print_verdicts(report: dict) -> None:
    for crit, row in report["verdicts"].items():
        mark = "ok" if row["ok"] else "MISMATCH"
        expected = row["expected"] or "-"
        line = f"{crit:20s} {row['actual']:12s} expected={expected:12s} [{mark}]"
        if row["witness"]:
            line += f" witness={row['witness']}"
        print(line)


def cmd_run(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario, args.seed)
    if args.out:                    # before simulating: a bad --out is a usage error
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ScenarioError(f"cannot create --out directory {args.out}: "
                                f"{exc.strerror or exc}") from None
    run = run_scenario(scenario)
    report = evaluate_run(run)
    print(f"scenario {scenario.name}{_seed_note(scenario, ' seed={}')} "
          f"dropped={run.dropped} undelivered={run.undelivered}")
    _print_verdicts(report)
    if args.out:
        try:
            (out / f"{scenario.name}.trace.jsonl").write_text(run.history.to_jsonl())
            (out / f"{scenario.name}.raw.jsonl").write_text(run.full_history.to_jsonl())
            (out / f"{scenario.name}.report.json").write_text(
                json.dumps(report, indent=2, sort_keys=True) + "\n")
        except OSError as exc:
            raise ScenarioError(f"cannot write {exc.filename}: "
                                f"{exc.strerror or exc}") from None
        print(f"wrote {out / scenario.name}.trace.jsonl / .raw.jsonl / .report.json")
    if not report["ok"]:
        print(f"verdict mismatch{_seed_note(scenario, ' (counterexample seed {})')}")
        return VIOLATION
    return OK


def cmd_check(args: argparse.Namespace) -> int:
    # before reading the trace: a bad flag is a usage error whatever the trace holds
    if args.window < 1:
        raise TraceError(f"--window must be at least 1, got {args.window}")
    names = args.criterion or ["sc", "ec"]
    for name in names:
        if name not in CHECKERS:
            raise TraceError(f"--criterion {name!r} is unknown; "
                             f"pick from {', '.join(sorted(CHECKERS))}")
    parsed = History.from_jsonl(_read_input(args.trace, TraceError, "cannot read trace"),
                                complete=args.complete)
    for name in args.byzantine or []:
        if name not in parsed.processes:
            raise TraceError(f"--byzantine {name!r} is not a process of the trace "
                             f"(processes: {', '.join(map(repr, parsed.processes))})")
    # the parsed events and operations, fewer processes correct: nothing to check again
    history = History._trusted(parsed.events, parsed.correct.difference(args.byzantine or []),
                               args.complete, parsed.operations).restricted()
    worst = OK
    for name in names:
        verdict = run_checker(name, history, args.window)
        print(json.dumps({
            "criterion": verdict.criterion, "status": verdict.status,
            "witness": list(verdict.witness), "detail": verdict.detail,
        }, sort_keys=True))
        if verdict.status == Status.FAIL:
            worst = VIOLATION
    return worst


def cmd_replay(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario, args.seed)
    run = run_scenario(scenario)
    produced = run.full_history.to_jsonl() if args.raw else run.history.to_jsonl()
    reference = _read_input(args.trace, TraceError, "cannot read trace")
    same = produced == reference
    print(f"replay of {scenario.name}{_seed_note(scenario, ' (seed {})')}: "
          f"{'byte-identical' if same else 'traces differ'}")
    return OK if same else VIOLATION


def cmd_campaign(args: argparse.Namespace) -> int:
    run, reads = LABS.get(args.lab, (None, ()))
    lab = "an empty campaign (no --lab)" if run is None else f"--lab {args.lab}"
    given = {f: v for f, v in (("runs", args.runs), ("seed", args.seed)) if v is not None}
    for flag in given:
        if flag not in reads:
            raise ScenarioError(f"{lab} does not read --{flag}")
    if run is None:
        print("no lab selected: empty campaign, trivially passing")
        return OK
    if given.get("runs", 1) < 1:
        raise ScenarioError(f"--runs must be at least 1, got {args.runs}")
    if (args.lab == "hierarchy" and args.seed is not None and args.runs is not None
            and args.runs <= len(CORPUS_PRESETS)):
        raise ScenarioError(f"--lab hierarchy at --runs {args.runs} judges the presets "
                            "alone and does not read --seed")
    result = run(**given)               # a flag not given keeps the lab's default
    print(f"campaign {result.name}: {result.runs} runs, "
          f"{len(result.violations)} violations")
    if result.stats:
        print(json.dumps(result.stats, indent=2, default=str))
    for key, why in result.violations[:20]:
        print(f"counterexample {key!r}: {why}")
    for why in result.unshown:
        print(f"property not shown: {why}")
    return OK if result.ok else VIOLATION


def cmd_presets(args: argparse.Namespace) -> int:
    for name in preset_names():
        sc = preset(name)
        expected = ", ".join(f"{k}={v}" for k, v in sorted(sc.expected_verdicts.items()))
        print(f"{name:24s} {sc.description}")
        if expected:
            print(f"{'':24s} expects: {expected}")
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="btlab",
        description="Block tree consistency lab: simulate, record, check.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("run", help="simulate a scenario and evaluate verdicts")
    p.add_argument("scenario", help="preset name or scenario JSON path")
    p.add_argument("--seed", type=int, default=None,
                   help="schedule and oracle seed (default: the scenario file's; "
                        "a scripted scenario refuses it)")
    p.add_argument("--out", default=None, help="directory for trace/report files")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("check", help="evaluate criteria over a trace file")
    p.add_argument("trace", help="JSON-lines trace path")
    p.add_argument("--criterion", action="append",
                   help="criterion name (repeatable; default: sc, ec)")
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                   help="stabilization suffix length (reads per process)")
    p.add_argument("--complete", action="store_true",
                   help="treat the trace as a complete (finished) history")
    p.add_argument("--byzantine", action="append",
                   help="process to exclude from the correct set (repeatable)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("replay", help="re-simulate and compare with a stored trace")
    p.add_argument("scenario", help="preset name or scenario JSON path")
    p.add_argument("trace", help="reference trace to byte-compare against")
    p.add_argument("--seed", type=int, default=None, help="as for run")
    p.add_argument("--raw", action="store_true",
                   help="compare the unrestricted trace instead")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("campaign", help="run a property campaign")
    p.add_argument("--lab", choices=sorted(LABS), default=None,
                   help="which campaign to run (omit for an empty campaign)")
    p.add_argument("--runs", type=int, default=None,
                   help="how many runs (default: the lab's); a lab that reads none refuses it")
    p.add_argument("--seed", type=int, default=None,
                   help="seed of the campaign (default: the lab's); a lab that reads "
                        "none refuses it")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("presets", help="list built-in scenarios")
    p.set_defaults(func=cmd_presets)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ScenarioError, TraceError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return SCHEMA


if __name__ == "__main__":
    sys.exit(main())
