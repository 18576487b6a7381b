"""Acceptance gate: one criterion per test, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they print.
Each test drives the public API at the stated scale and tolerance; nothing
here is mocked or down-sized.
"""

import dataclasses
import time

from btlab.campaigns import (CONSENSUS_PROPOSERS, TAPE_MERIT, cas_equivalence_suite,
                             consensus_campaign, containment_campaign,
                             hierarchy_campaign, kfork_campaign,
                             snapshot_equivalence_suite, tape_statistics)
from btlab.checkers import Status, run_checker
from btlab.netsim import OracleSpec, evaluate_run, preset, preset_names, run_scenario
from btlab.shm import PROPOSER_MERIT


def verdict_line(num, name, ok, detail):
    print(f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_01_golden_figure_replays():
    expected = {
        "figure-3": {"sc": "PASS"},
        "figure-4": {"sc": "FAIL", "ec": "PASS"},
        "figure-5": {},                       # ec must not PASS, checked below
        "figure-6": {"update-agreement": "PASS"},
    }
    worst = 0.0
    ok = True
    notes = []
    for name, want in expected.items():
        start = time.perf_counter()
        run = run_scenario(preset(name))
        report = evaluate_run(run)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        got = {k: v["actual"] for k, v in report["verdicts"].items()}
        ok &= all(got.get(k) == v for k, v in want.items())
        if name == "figure-5":
            ok &= got.get("ec") != "PASS"
        notes.append(f"{name} {got}")
    ok &= worst < 1.0
    verdict_line(1, "golden-figure-replays", ok,
                 "; ".join(notes) + f"; slowest {worst:.3f}s < 1s")


def test_02_hierarchy_suite():
    start = time.perf_counter()
    result = hierarchy_campaign(runs=1000, seed=0)
    elapsed = time.perf_counter() - start
    separated = result.stats["ec_pass_sc_fail"]
    ok = result.ok and separated >= 1 and elapsed < 60.0
    verdict_line(2, "hierarchy-no-strong-without-eventual", ok,
                 f"1000 histories, {len(result.violations)} violations, "
                 f"{separated} ec-pass/sc-fail witnesses, {elapsed:.1f}s < 60s")


def test_03_k_fork_coherence():
    start = time.perf_counter()
    result = kfork_campaign(runs=200, seed=0)
    elapsed = time.perf_counter() - start
    ok = result.ok and result.runs == 600 and elapsed < 60.0
    notes = []
    for k in (1, 2, 3):
        stats = result.stats[f"k={k}"]
        ok &= stats["equality_hits"] >= 1
        notes.append(f"k={k}: 200 runs, {stats['equality_hits']} at the bound, "
                     f"{stats['strong_prefix_pass']} pass strong prefix")
    verdict_line(3, "k-fork-coherence", ok,
                 "; ".join(notes) + f"; {elapsed:.1f}s < 60s")


def test_04_oracle_containment():
    result = containment_campaign(runs=100)
    ok = result.ok and result.runs >= 100
    verdict_line(4, "oracle-containment", ok,
                 f"{result.runs} runs, {result.stats['replays']} replays "
                 f"against looser capacities, {len(result.violations)} mismatches")


def test_05_consensus_reduction():
    result = consensus_campaign(runs=200, seed=0)
    ok = (CONSENSUS_PROPOSERS == 4 and PROPOSER_MERIT == 0.5
          and result.ok and result.stats["exhausted"] == 0
          and result.stats["crash_schedules"] > 0)
    verdict_line(5, "consensus-reduction", ok,
                 f"200 schedules (n=4, f<=1, {result.stats['crash_schedules']} "
                 f"with crashes), {len(result.violations)} property violations, "
                 f"{result.stats['exhausted']} exhausted at 10^6 attempts")


def test_06_cas_equivalence():
    result = cas_equivalence_suite()
    ok = result.ok and result.runs == 97          # 1 + 6 + 90 interleavings
    verdict_line(6, "cas-equivalence", ok,
                 f"{result.runs} exhaustive interleavings (1-3 callers), "
                 f"{len(result.violations)} mismatches vs direct cas")


def test_07_snapshot_equivalence():
    result = snapshot_equivalence_suite()
    ok = result.ok and result.runs == 6
    verdict_line(7, "snapshot-equivalence", ok,
                 f"{result.runs} exhaustive 2-caller interleavings, "
                 f"{len(result.violations)} divergences from the direct oracle")


def test_08_impossibility_reproductions():
    fork = preset("fork-strong-violation")
    run = run_scenario(fork)
    v = run_checker("strong-prefix", run.history, fork.window())
    reads = {r.response.event_id: r for r in run.history.reads()}
    witness_reads = [reads[i] for i in v.witness if i in reads]
    fork_ok = (v.status == Status.FAIL and len(v.witness) == 2
               and len(witness_reads) == 2
               and len({r.process for r in witness_reads}) == 2)

    drop = preset("update-drop")
    run = run_scenario(drop)
    ua = run_checker("update-agreement", run.history, drop.window())
    ec = run_checker("ec", run.history, drop.window())
    drop_ok = (ua.status == Status.FAIL and ua.detail.startswith("R3")
               and ec.status != Status.PASS)

    healed_fork = dataclasses.replace(
        fork, oracle=OracleSpec(capacity=1, seed=fork.oracle.seed),
        expected_verdicts={})
    run = run_scenario(healed_fork)
    flip_fork = run_checker("strong-prefix", run.history,
                            healed_fork.window()).status == Status.PASS

    healed_drop = dataclasses.replace(
        drop, channel=dataclasses.replace(drop.channel, drops=[]),
        expected_verdicts={})
    run = run_scenario(healed_drop)
    flip_drop = all(
        run_checker(c, run.history, healed_drop.window()).status == Status.PASS
        for c in ("update-agreement", "ec"))

    ok = fork_ok and drop_ok and flip_fork and flip_drop
    verdict_line(8, "impossibility-reproductions", ok,
                 f"fork witness 2 reads on 2 processes: {fork_ok}; "
                 f"drop R3-fail & ec not pass: {drop_ok}; "
                 f"capacity-1 flip: {flip_fork}; drop-free flip: {flip_drop}")


def test_09_determinism():
    differing = []
    for name in preset_names():
        sc = preset(name)
        a, b = run_scenario(sc), run_scenario(sc)
        if (a.history.to_jsonl() != b.history.to_jsonl()
                or a.full_history.to_jsonl() != b.full_history.to_jsonl()):
            differing.append(name)
    verdict_line(9, "deterministic-replay", not differing,
                 f"{len(preset_names())} scenarios run twice, byte-identical "
                 f"traces; diffs: {differing or 'none'}")


def test_10_tape_statistics():
    result = tape_statistics(seed=2026)
    stats = result.stats
    ok = (result.runs == 10_000 and TAPE_MERIT == 0.5
          and result.ok and stats["low"] <= stats["grants"] <= stats["high"])
    verdict_line(10, "tape-statistics", ok,
                 f"pinned seed 2026: {stats['grants']} grants in "
                 f"[{stats['low']:.0f}, {stats['high']:.0f}] (3 sigma around 5000)")
