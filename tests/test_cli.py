"""Command-line interface: verbs, flags, exit codes, artifacts."""

import dataclasses
import inspect
import json
import re

import pytest

from btlab import campaigns, cli
from btlab.blocktree import Block
from btlab.cli import main
from btlab.history import History, _decode_flat
from btlab.netsim import preset, preset_names, scenario_from_dict
from btlab.oracle import Merit, prodigal_oracle
from btlab.shm import ConsensusOutcome


def run_cli(*argv):
    return main(list(argv))


def campaign_output(capsys):
    """The header line and the stats of a campaign's stdout, which holds no
    counterexample and no unshown property."""
    header, stats = capsys.readouterr().out.split("\n", 1)
    return header, json.loads(stats)


# -- presets --------------------------------------------------------------------


def test_presets_verb_lists_every_builtin(capsys):
    assert run_cli("presets") == 0
    out = capsys.readouterr().out
    for name in preset_names():
        assert name in out


# -- run ---------------------------------------------------------------------------


def test_run_preset_writes_trace_raw_and_report(tmp_path, capsys):
    assert run_cli("run", "figure-4", "--out", str(tmp_path)) == 0
    trace = tmp_path / "figure-4.trace.jsonl"
    raw = tmp_path / "figure-4.raw.jsonl"
    report = tmp_path / "figure-4.report.json"
    assert trace.exists() and raw.exists() and report.exists()
    doc = json.loads(report.read_text())
    assert doc["ok"] is True
    assert doc["verdicts"]["sc"]["actual"] == "FAIL"
    assert doc["verdicts"]["ec"]["actual"] == "PASS"
    parsed = History.from_jsonl(trace.read_text())
    assert parsed.to_jsonl() == trace.read_text()      # canonical on disk


@pytest.mark.parametrize("where", ["file", "below-a-file"])
def test_run_rejects_an_out_path_that_is_no_directory(tmp_path, capsys, monkeypatch,
                                                      where):
    afile = tmp_path / "afile"
    afile.write_text("keep me")
    out = afile if where == "file" else afile / "sub"
    simulated = []
    monkeypatch.setattr(cli, "run_scenario", simulated.append)
    assert run_cli("run", "figure-3", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert str(out) in captured.err and captured.out == ""
    assert simulated == [] and afile.read_text() == "keep me"


def test_run_exits_two_when_a_trace_file_cannot_be_written(tmp_path, capsys):
    (tmp_path / "figure-3.raw.jsonl").mkdir()
    assert run_cli("run", "figure-3", "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "figure-3.raw.jsonl" in err, err


def test_run_keeps_every_dotted_part_of_a_scenario_name(tmp_path, capsys):
    out = tmp_path / "o"
    for name in ("fig3.v2", "fig3.v3"):
        doc = preset("figure-3").to_dict()
        doc["name"] = name
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert run_cli("run", str(path), "--out", str(out)) == 0
        assert f"wrote {out / name}.trace.jsonl / .raw.jsonl / .report.json" \
            in capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir()) == [
        f"fig3.{v}.{kind}" for v in ("v2", "v3")
        for kind in ("raw.jsonl", "report.json", "trace.jsonl")]


def test_run_accepts_scenario_files(tmp_path):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(preset("figure-3").to_dict()))
    assert run_cli("run", str(path)) == 0


def test_run_exits_one_when_expected_verdicts_miss(tmp_path):
    doc = preset("figure-3").to_dict()
    doc["expected_verdicts"] = {"sc": "FAIL"}
    path = tmp_path / "twisted.json"
    path.write_text(json.dumps(doc))
    assert run_cli("run", str(path)) == 1


def test_run_rejects_unknown_names_and_bad_files(tmp_path, capsys):
    assert run_cli("run", "no-such-preset") == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("run", str(bad)) == 2
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"version": 1, "name": "x", "processes": []}))
    assert run_cli("run", str(invalid)) == 2
    capsys.readouterr()
    invalid.write_text(json.dumps({"version": 1, "name": "x",
                                   "processes": [{"id": "p0", "merit": "hi"}]}))
    assert run_cli("run", str(invalid)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "merit" in err
    for text in UNDECODABLE_JSON:
        bad.write_text(text)
        assert run_cli("run", str(bad)) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and "not valid JSON" in captured.err
        assert captured.out == ""
    assert_unreadable_inputs_exit_two(tmp_path, capsys, "run")


# JSON the decoder refuses without a JSONDecodeError: nesting past the
# recursion limit (RecursionError), an integer past int's digit limit (ValueError)
UNDECODABLE_JSON = ["[" * 200_000, "1" * 5_000]


def assert_unreadable_inputs_exit_two(tmp_path, capsys, *verb):
    """A directory or a file that is not UTF-8 is a malformed input: exit 2, one line."""
    not_utf8 = tmp_path / "latin-1.json"
    not_utf8.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    for path in (tmp_path, not_utf8):
        capsys.readouterr()
        assert run_cli(*verb, str(path)) == 2, path
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and str(path) in captured.err, captured.err
        assert captured.out == ""


def test_run_rejects_a_script_response_without_invocation(tmp_path, capsys):
    doc = preset("figure-3").to_dict()
    doc["script"] = [{"kind": "response", "op": "read", "args": [], "process": "i",
                      "logical_time": 1, "returned": ["b0"]}]
    path = tmp_path / "orphan-response.json"
    path.write_text(json.dumps(doc))
    assert run_cli("run", str(path)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "response without invocation" in err


def test_run_rejects_a_script_read_rooted_elsewhere(tmp_path, capsys):
    # the scenario loads, as only the decoder checks it; its run builds the
    # script's History, which refuses the read
    doc = preset("figure-3").to_dict()
    doc["script"] = [{"kind": "invocation", "op": "read", "args": [], "process": "i",
                      "logical_time": 0, "returned": None},
                     {"kind": "response", "op": "read", "args": [], "process": "i",
                      "logical_time": 1, "returned": ["x0"]}]
    assert scenario_from_dict(doc).script == doc["script"]
    path = tmp_path / "foreign-genesis.json"
    path.write_text(json.dumps(doc))
    assert run_cli("run", str(path)) == 2
    captured = capsys.readouterr()
    assert re.fullmatch(r"error: a read's returned .* start at genesis 'b0', "
                        r"got \('x0',\) \(event 1\)\n", captured.err), captured.err
    assert captured.out == ""


def _rename(process, op, new):
    """A mutation of a scripted preset's dict form: `process`'s `op` events
    name the process `new`."""
    def mutate(doc):
        for ev in doc["script"]:
            if (ev["process"], ev["op"]) == (process, op):
                ev["process"] = new
    return mutate


def _set(path, value):
    """A mutation of a preset's dict form: the field at `path` becomes `value`."""
    def mutate(doc):
        *outer, last = path
        for key in outer:
            doc = doc[key]
        doc[last] = value
    return mutate


@pytest.mark.parametrize("name,mutate", [
    ("figure-4", _set(["expected_verdicts"], {"bogus": "PASS"})),
    ("bitcoin-like", _set(["channel", "delays"], 5)),
    ("bitcoin-like", _set(["channel", "drops"], 5)),
    ("bitcoin-like", _set(["channel", "drops"], [5])),
    ("figure-3", _set(["script"], [5])),
    ("figure-3", _set(["script", 0, "args"], 5)),
    ("figure-3", _set(["script", 0, "logical_time"], None)),
    ("figure-3", _set(["script", 0, "process"], 5)),
    ("figure-3", _set(["script", 0, "event_id"], 0)),
    ("figure-4", _rename("j", "read", "J")),
    ("bitcoin-like", _set(["duration"], 10**12)),
    ("bitcoin-like", _set(["duration"], 10**6 + 1)),
    ("bitcoin-like", _set(["processes", 0, "read_offset"], -1)),
    ("bitcoin-like", _set(["processes", 0, "append_offset"], -1)),
    ("bitcoin-like", _set(["declared_complete"], 1)),
    ("update-drop", _set(["channel", "delays"], [{"from": "p0", "delay": -7}])),
    ("update-drop", _set(["channel", "delays"], [{"from": "p0", "delay": 0}])),
    ("update-drop", _set(["channel", "async_max_delay"], 0)),
    ("update-drop", _set(["channel", "async_max_delay"], -3)),
    ("bitcoin-like", _set(["description"], 5)),
    ("bitcoin-like", _set(["name"], "../escaped")),
    ("bitcoin-like", _set(["name"], "sub/name")),
    ("bitcoin-like", _set(["name"], "sub\\name")),
    ("bitcoin-like", _set(["name"], "..")),
    ("bitcoin-like", _set(["name"], "a\u0000b")),
    ("bitcoin-like", _set(["channel", "kind"], 5)),
    ("bitcoin-like", _set(["channel", "delta"], -1)),
])
def test_run_rejects_a_malformed_scenario_field(tmp_path, capsys, name, mutate):
    doc = preset(name).to_dict()
    mutate(doc)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    assert run_cli("run", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert captured.out == ""


# A key no object of the schema defines, a channel kind it does not know, a
# channel rule naming a process or block by a non-string, or a drop rule's
# block the simulator never names (it names p's k-th block "p-k", k >= 1), on
# the update-drop preset (one drop rule, no delays): probe -> (path, value,
# what the error names). The keys and the kind the schema dropped are refused
# with the value every shipped file held.
SCHEMA_KEY_PROBES = {
    "duraton": (["duraton"], 5, "'duraton'"),
    "blok": (["channel", "drops", 0], {"blok": "p0-1", "to": "p2"}, "'blok'"),
    "form": (["channel", "delays"], [{"form": "p0", "delay": 1}], "'form'"),
    "script": (["processes", 0, "script"], {}, "'script'"),
    "tau": (["channel", "tau"], 0, "'tau'"),
    "duplication": (["channel", "duplication"], False, "'duplication'"),
    "max_grant_attempts": (["max_grant_attempts"], 10**6, "'max_grant_attempts'"),
    "weakly-synchronous": (["channel", "kind"], "weakly-synchronous", "'weakly-synchronous'"),
    "intervall": (["processes", 0, "intervall"], 3, "'intervall'"),
    "dleta": (["channel", "dleta"], 1, "'dleta'"),
    "capcity": (["oracle", "capcity"], 1, "'capcity'"),
    "block-number": (["channel", "drops", 0, "block"], 1, "must be strings"),
    "to-list": (["channel", "delays"], [{"from": "p0", "to": ["p1"], "delay": 1}],
                "must be strings"),
    **{f"block-{block}": (["channel", "drops", 0, "block"], block, repr(block))
       for block in ("p0-l", "p9-1", "p0-0", "p0-01", "p0")},
}


@pytest.mark.parametrize("probe", SCHEMA_KEY_PROBES)
def test_run_refuses_an_unknown_scenario_key(tmp_path, capsys, probe):
    path, value, named = SCHEMA_KEY_PROBES[probe]
    doc = preset("update-drop").to_dict()
    _set(path, value)(doc)
    scenario = tmp_path / "mutated.json"
    scenario.write_text(json.dumps(doc))
    assert run_cli("run", str(scenario)) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and named in captured.err, captured.err
    assert captured.out == ""


# A channel rule whose from or to names no process of update-drop (p0, p1,
# p2) would match nothing and leave the run as if it were not there: probe ->
# the rule's path and value, and the name the error quotes.
UNKNOWN_PROCESS_PROBES = {
    "drops-to": (["channel", "drops", 0, "to"], "P2", "P2"),
    "drops-from": (["channel", "drops"], [{"from": "p3", "to": "p2"}], "p3"),
    "delays-from": (["channel", "delays"], [{"from": "q0", "delay": 2}], "q0"),
    "delays-to": (["channel", "delays"], [{"from": "p0", "to": "p 1", "delay": 2}], "p 1"),
}


@pytest.mark.parametrize("probe", UNKNOWN_PROCESS_PROBES)
def test_run_refuses_a_channel_rule_naming_an_unknown_process(tmp_path, capsys, probe):
    path, value, unknown = UNKNOWN_PROCESS_PROBES[probe]
    doc = preset("update-drop").to_dict()
    _set(path, value)(doc)
    scenario = tmp_path / "mutated.json"
    scenario.write_text(json.dumps(doc))
    assert run_cli("run", str(scenario)) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and f"unknown process {unknown!r}" in captured.err, \
        captured.err
    assert captured.out == ""


INTEGER_FIELDS = [["version"], ["seed"], ["duration"], ["stabilization_suffix"],
                  ["oracle", "seed"], ["oracle", "capacity"], ["channel", "delta"],
                  ["channel", "async_max_delay"],
                  ["channel", "delays", 0, "delay"], ["processes", 0, "block_interval"],
                  ["processes", 0, "append_offset"], ["processes", 0, "read_interval"],
                  ["processes", 0, "read_offset"]]


@pytest.mark.parametrize("path", INTEGER_FIELDS, ids=lambda path: "/".join(map(str, path)))
@pytest.mark.parametrize("value", ["40", 40.9, True])
def test_every_integer_scenario_field_takes_json_integers_only(tmp_path, capsys, path,
                                                               value):
    doc = preset("bitcoin-like").to_dict()
    _set(path, value)(doc)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    assert run_cli("run", str(scenario)) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and str(path[-1]) in captured.err, captured.err
    assert captured.out == ""


# One mutation of figure-3 events (the first one, the last read response, or
# every read response), sent once as script events of the scenario and once as
# lines of a trace: both carriers must judge it alike. A decoder names the
# script event or the line; a read's returned is judged by the History the
# events build, which names the event.
READ_RULE_PROBES = {"returned-number", "foreign-genesis", "rooted-at-g0"}
CARRIER_PROBES = {
    "unchanged": ("first", lambda ev: None),
    "time-string": ("first", lambda ev: ev.update(logical_time="0")),
    "time-float": ("first", lambda ev: ev.update(logical_time=0.9)),
    "time-bool": ("first", lambda ev: ev.update(logical_time=True)),
    "no-args": ("first", lambda ev: ev.pop("args")),
    "extra-field": ("first", lambda ev: ev.update(x=1)),
    "op-number": ("first", lambda ev: ev.update(op=5)),
    "process-number": ("first", lambda ev: ev.update(process=5)),
    "returned-number": ("read", lambda ev: ev.update(returned=5)),
    "foreign-genesis": ("read", lambda ev: ev.update(returned=["x0"])),
    "rooted-at-g0": ("reads", lambda ev: ev["returned"].__setitem__(0, "g0")),
}


@pytest.mark.parametrize("probe", sorted(CARRIER_PROBES))
def test_a_script_event_and_a_trace_line_are_judged_alike(tmp_path, capsys, probe):
    doc = preset("figure-3").to_dict()
    script = doc["script"]
    reads = [n for n, ev in enumerate(script) if (ev["kind"], ev["op"]) == ("response", "read")]
    which, mutate = CARRIER_PROBES[probe]
    for n in {"first": [0], "read": reads[-1:], "reads": reads}[which]:
        mutate(script[n])
    scenario, trace = tmp_path / "scenario.json", tmp_path / "trace.jsonl"
    scenario.write_text(json.dumps(doc))
    trace.write_text("".join(json.dumps({"event_id": n, **ev}) + "\n"
                             for n, ev in enumerate(script)))
    outcomes = []
    read_rule = probe in READ_RULE_PROBES
    for argv, where in ((["run", str(scenario)], r"script event \d+"),
                        (["check", str(trace)], r"line \d+")):
        code = run_cli(*argv)
        err = capsys.readouterr().err
        if code == 2:       # one line
            assert re.fullmatch(r"error: a read's returned .* \(event \d+\)\n" if read_rule
                                else f"error: {where}: .*\n", err), err
        outcomes.append((code, err if read_rule else re.sub(f"^error: {where}: ", "", err)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == (0 if probe == "unchanged" else 2)


def test_seed_flag_overrides_scenario_and_oracle_seed(tmp_path):
    assert run_cli("run", "bitcoin-like", "--seed", "4", "--out",
                   str(tmp_path)) in (0, 1)     # expectations may shift off-seed
    report = json.loads((tmp_path / "bitcoin-like.report.json").read_text())
    assert report["seed"] == 4


def test_the_environment_does_not_change_a_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BTLAB_SEED", "4")
    assert run_cli("run", "bitcoin-like", "--out", str(tmp_path)) == 0
    report = json.loads((tmp_path / "bitcoin-like.report.json").read_text())
    assert report["seed"] == 3                  # the scenario file's seed
    capsys.readouterr()
    assert run_cli("campaign", "--lab", "tape") == 0
    assert campaign_output(capsys)[1]["grants"] == 4972


@pytest.mark.parametrize("argv", [["run", "figure-4", "--seed", "9"],
                                  ["replay", "figure-3", "T", "--seed", "1"]])
def test_a_scripted_scenario_refuses_a_seed(capsys, argv):
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "--seed" in captured.err
    assert captured.out == ""


def test_a_scripted_scenario_names_no_seed(tmp_path, capsys):
    # its run replays the script, so no seed could reproduce or change it
    assert run_cli("run", "figure-4", "--out", str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert out.startswith("scenario figure-4 dropped=0 undelivered=0\n")
    assert "seed" not in out
    assert "seed" not in json.loads((tmp_path / "figure-4.report.json").read_text())
    assert run_cli("replay", "figure-4", str(tmp_path / "figure-4.trace.jsonl")) == 0
    assert capsys.readouterr().out == "replay of figure-4: byte-identical\n"
    twisted = preset("figure-4").to_dict()
    twisted["expected_verdicts"]["sc"] = "PASS"
    (tmp_path / "twisted.json").write_text(json.dumps(twisted))
    assert run_cli("run", str(tmp_path / "twisted.json")) == 1
    assert capsys.readouterr().out.endswith("[ok] witness=[6, 12]\nverdict mismatch\n")


# -- check -----------------------------------------------------------------------------


@pytest.fixture()
def figure_traces(tmp_path):
    out = tmp_path / "traces"
    for name in ("figure-3", "figure-5"):
        assert run_cli("run", name, "--out", str(out)) == 0
    return out


def test_check_passes_nested_reads(figure_traces, capsys):
    trace = figure_traces / "figure-3.trace.jsonl"
    assert run_cli("check", str(trace), "--criterion", "sc") == 0
    line = json.loads(capsys.readouterr().out.strip())
    assert line == {"criterion": "sc", "status": "PASS", "witness": [],
                    "detail": ""}


def test_check_flags_permanent_divergence_on_complete_traces(figure_traces, capsys):
    trace = figure_traces / "figure-5.trace.jsonl"
    assert run_cli("check", str(trace), "--criterion", "ec", "--complete",
                   "--window", "1") == 1
    line = json.loads(capsys.readouterr().out.strip())
    assert line["status"] == "FAIL" and line["witness"]


def test_check_without_complete_is_inconclusive_not_failing(figure_traces, capsys):
    trace = figure_traces / "figure-5.trace.jsonl"
    assert run_cli("check", str(trace), "--criterion", "ec", "--window", "1") == 0
    assert json.loads(capsys.readouterr().out.strip())["status"] == "INCONCLUSIVE"


def test_check_empty_trace_passes_vacuously(tmp_path, capsys):
    empty = tmp_path / "empty.trace.jsonl"
    empty.write_text("")
    assert run_cli("check", str(empty), "--criterion", "sc") == 0
    assert json.loads(capsys.readouterr().out.strip())["status"] == "PASS"


def test_check_byzantine_flag_excludes_a_process(figure_traces, capsys):
    trace = figure_traces / "figure-5.trace.jsonl"
    # with both processes byzantine there are no reads left to diverge
    assert run_cli("check", str(trace), "--criterion", "ec", "--complete",
                   "--window", "1", "--byzantine", "i", "--byzantine", "j") == 0


def test_check_builds_one_history_and_judges_its_restriction(figure_traces,
                                                              monkeypatch, capsys):
    trace = figure_traces / "figure-5.trace.jsonl"
    built, restrictions, judged = [], [], []
    init, restricted, run_checker = History.__init__, History.restricted, cli.run_checker

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    def recording_restricted(self):
        restrictions.append(restricted(self))
        return restrictions[-1]

    def recording_run_checker(name, h, window):
        judged.append(h)
        return run_checker(name, h, window)
    monkeypatch.setattr(History, "__init__", counting_init)
    monkeypatch.setattr(History, "restricted", recording_restricted)
    monkeypatch.setattr(cli, "run_checker", recording_run_checker)
    assert run_cli("check", str(trace), "--byzantine", "j") == 0
    assert len(built) == 1 and len(restrictions) == 1      # the parsed history only
    (parsed,), (restriction,) = built, restrictions
    assert judged == [restriction, restriction]             # sc and ec
    assert len(restriction.events) < len(parsed.events) and restriction.correct == {"i"}


def test_check_output_on_the_figure_4_raw_trace_is_pinned(tmp_path, capsys):
    assert run_cli("run", "figure-4", "--out", str(tmp_path)) == 0
    raw = str(tmp_path / "figure-4.raw.jsonl")
    capsys.readouterr()
    assert run_cli("check", raw, "--byzantine", "j") == 1
    assert capsys.readouterr().out.splitlines() == [
        '{"criterion": "sc", "detail": "strong-prefix failed: b0/2/4 vs b0/1/3/5", '
        '"status": "FAIL", "witness": [6, 10]}',
        '{"criterion": "ec", "detail": "", "status": "PASS", "witness": []}']
    for extra in ([], ["--byzantine", "j", "--complete"]):
        assert run_cli("check", raw, "--criterion", "lrc", *extra) == 0
        assert capsys.readouterr().out.splitlines() == [
            '{"criterion": "lrc", "detail": "", "status": "PASS", "witness": []}']


def test_check_rejects_unknown_criteria_and_missing_files(figure_traces, tmp_path, capsys):
    trace = figure_traces / "figure-3.trace.jsonl"
    assert run_cli("check", str(trace), "--criterion", "zzz") == 2
    capsys.readouterr()
    assert run_cli("check", str(trace), "--criterion", "sc", "--criterion", "nope") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1     # no criterion judged
    assert run_cli("check", str(figure_traces / "nope.jsonl")) == 2
    assert_unreadable_inputs_exit_two(tmp_path, capsys, "check")


@pytest.mark.parametrize("flags, named", [
    (["--window", "0"], "--window"), (["--window", "-1"], "--window"),
    (["--criterion", "nope"], "--criterion"),
    (["--criterion", "sc", "--criterion", "nope"], "--criterion")])
def test_check_refuses_a_bad_flag_before_reading_the_trace(tmp_path, capsys, flags, named):
    # the trace does not exist: only a flag checked first can be the error
    assert run_cli("check", str(tmp_path / "missing.jsonl"), *flags) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1, captured
    assert named in captured.err and "missing.jsonl" not in captured.err, captured.err


READ_INVOCATION = {"args": [], "event_id": 0, "kind": "invocation", "logical_time": 0,
                   "op": "read", "process": "p", "returned": None}
READ_RESPONSE = {"args": [], "event_id": 1, "kind": "response", "logical_time": 1,
                 "op": "read", "process": "p", "returned": ["b0"]}


def _read(event_id, process, invoked, chain):
    return [{**READ_INVOCATION, "event_id": event_id, "process": process,
             "logical_time": invoked},
            {**READ_RESPONSE, "event_id": event_id + 1, "process": process,
             "logical_time": invoked + 1, "returned": chain}]


# Three reads, one of them of a chain rooted at another genesis: every chain a
# read returns starts at genesis "b0", so the trace is malformed.
FOREIGN_GENESIS = [
    {**READ_INVOCATION, "event_id": 10, "op": "append", "args": ["a", "b0", True]},
    {**READ_INVOCATION, "event_id": 11, "op": "append", "args": ["x0", "b0", True],
     "process": "q"},
    *_read(0, "p", 0, ["b0"]), *_read(2, "p", 2, ["b0", "a"]), *_read(4, "q", 2, ["x0"]),
]


def test_check_rejects_malformed_traces(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"event_id": 1}\n')
    assert run_cli("check", str(bad)) == 2
    good = tmp_path / "good.jsonl"
    good.write_text(json.dumps(READ_INVOCATION) + "\n" + json.dumps(READ_RESPONSE) + "\n")
    assert run_cli("check", str(good)) == 0
    capsys.readouterr()
    assert run_cli("check", str(good), "--byzantine", "p", "--byzantine", "nobody") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'nobody'" in err, err
    for field, value in [("returned", 5), ("returned", [1, 2]), ("returned", "b0"),
                         ("args", 5), ("event_id", "x"), ("event_id", 1.5),
                         ("logical_time", "x"), ("logical_time", True)]:
        capsys.readouterr()
        bad.write_text(json.dumps(READ_INVOCATION) + "\n"
                       + json.dumps({**READ_RESPONSE, field: value}) + "\n")
        assert run_cli("check", str(bad)) == 2, (field, value)
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and field in err, (field, value, err)
    for text in UNDECODABLE_JSON:
        capsys.readouterr()
        bad.write_text(json.dumps(READ_INVOCATION) + "\n" + text + "\n")
        assert run_cli("check", str(bad)) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and "line 2: not JSON" in captured.err
        assert captured.out == ""
    for window in ("0", "-1"):
        capsys.readouterr()
        assert run_cli("check", str(good), "--window", window) == 2, window
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--window" in err, (window, err)
    bad.write_text("".join(json.dumps(e) + "\n" for e in FOREIGN_GENESIS))
    for flags in (["--criterion", "eventual-prefix", "--window", "1"], ["--window", "1"],
                  [], ["--criterion", "sc"]):
        capsys.readouterr()
        assert run_cli("check", str(bad), *flags) == 2, flags
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "genesis" in err and "returned" in err, (flags, err)


@pytest.mark.parametrize("args", [[], [{"x": 1}]], ids=["one-call", "line-by-line"])
def test_check_names_the_event_of_a_bad_read(tmp_path, capsys, args):
    # a nested object in `args` sends the trace down the line-by-line decoder;
    # either way the History judges the read and names its event, not a line
    text = "".join(json.dumps(e) + "\n" for e in [
        {**READ_INVOCATION, "args": args}, {**READ_RESPONSE, "returned": ["x0"]}])
    assert (_decode_flat(text) is None) == bool(args)
    trace = tmp_path / "trace.jsonl"
    trace.write_text(text)
    assert run_cli("check", str(trace)) == 2
    captured = capsys.readouterr()
    assert re.fullmatch(r"error: a read's returned .* \(event 1\)\n", captured.err), \
        captured.err
    assert captured.out == ""


# -- replay --------------------------------------------------------------------------------


def test_replay_detects_identity_and_divergence(figure_traces, tmp_path):
    trace = figure_traces / "figure-3.trace.jsonl"
    assert run_cli("replay", "figure-3", str(trace)) == 0
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text(trace.read_text().replace('"b0"', '"bX"', 1))
    assert run_cli("replay", "figure-3", str(tampered)) == 1
    assert run_cli("replay", "figure-3", str(tmp_path / "nope.jsonl")) == 2


def test_replay_rejects_an_unreadable_trace(tmp_path, capsys):
    assert_unreadable_inputs_exit_two(tmp_path, capsys, "replay", "figure-3")


def test_replay_compares_raw_traces_when_asked(figure_traces):
    raw = figure_traces / "figure-3.raw.jsonl"
    assert run_cli("replay", "figure-3", str(raw), "--raw") == 0
    assert run_cli("replay", "figure-3", str(raw)) in (0, 1)  # script: raw==trace?


# -- campaign ----------------------------------------------------------------------------------


def test_campaign_without_lab_is_trivially_empty(capsys):
    assert run_cli("campaign") == 0
    assert capsys.readouterr().out == "no lab selected: empty campaign, trivially passing\n"
    assert run_cli("campaign", "--runs", "0") == 2
    captured = capsys.readouterr()
    assert captured.err == "error: an empty campaign (no --lab) does not read --runs\n"
    assert captured.out == ""


def test_campaign_cas_lab_is_exhaustive_and_green(capsys):
    assert run_cli("campaign", "--lab", "cas") == 0
    assert "0 violations" in capsys.readouterr().out


def test_campaign_snapshot_lab_is_green():
    assert run_cli("campaign", "--lab", "snapshot") == 0


def test_campaign_tape_lab_reports_the_pinned_band(capsys):
    assert run_cli("campaign", "--lab", "tape") == 0
    header, stats = campaign_output(capsys)
    assert header == "campaign tape: 10000 runs, 0 violations"
    assert stats == {"grants": 4972, "low": 4850.0, "high": 5150.0}


def test_campaign_tape_lab_honours_the_seed_flag(capsys):
    assert run_cli("campaign", "--lab", "tape", "--seed", "5") == 0
    assert campaign_output(capsys)[1]["grants"] != 4972
    assert run_cli("campaign", "--lab", "tape", "--seed", "2026") == 0
    assert campaign_output(capsys)[1]["grants"] == 4972


def test_a_tape_outside_three_sigma_is_a_counterexample_of_its_seed(capsys, monkeypatch):
    # a tape of merit 0.6 judged against the band around 0.5 * 10000
    monkeypatch.setattr(campaigns, "prodigal_oracle", lambda merits, seed: prodigal_oracle(
        {"miner": Merit(0.6)}, seed=seed))
    assert run_cli("campaign", "--lab", "tape", "--seed", "7") == 1
    out = capsys.readouterr().out
    assert out.startswith("campaign tape: 10000 runs, 1 violations\n")
    assert re.search(r"^counterexample 7: \d+ grants, over 3 sigma from 5000$", out, re.M)


# -- the lab registry: each lab takes, reads and defaults exactly its declared flags


@pytest.mark.parametrize("lab", sorted(campaigns.LABS))
def test_a_lab_takes_exactly_the_flags_it_declares(lab):
    run, reads = campaigns.LABS[lab]
    params = inspect.signature(run).parameters
    assert tuple(params) == reads and set(reads) <= {"runs", "seed"}
    # the CLI passes only the flags given, so every one needs the lab's default
    assert all(param.default is not param.empty for param in params.values())


def every_seeded_run_fails(monkeypatch):
    """Make each run of kfork, containment and shm a counterexample, whose
    line prints the run's seed: their stats do not show the seed."""
    # four appends under genesis: wider than any k, and not replayable at k' = 1
    monkeypatch.setattr(campaigns, "_successes",
                        lambda run: [("p0", f"x{i}", "b0") for i in range(4)])
    # one decision, of a value nobody proposed
    monkeypatch.setattr(campaigns, "run_consensus", lambda seed, crash: ConsensusOutcome(
        decided={"p0": Block(id="foreign")}, crashed=[], exhausted=["p1", "p2", "p3"],
        steps=0))


@pytest.mark.parametrize("lab, flag", [(lab, flag) for lab, (_, reads)
                                       in sorted(campaigns.LABS.items()) for flag in reads])
def test_every_declared_flag_is_read(capsys, monkeypatch, lab, flag):
    every_seeded_run_fails(monkeypatch)
    size = []
    if flag == "seed" and "runs" in campaigns.LABS[lab][1]:   # past hierarchy's presets
        size = ["--runs", "10" if lab == "hierarchy" else "2"]
    outs = []
    for value in ("2", "3") if flag == "runs" else ("1", "2"):
        run_cli("campaign", "--lab", lab, f"--{flag}", value, *size)
        outs.append(capsys.readouterr().out)
    assert outs[0] != outs[1]


@pytest.mark.parametrize("lab, header", [
    ("containment", "campaign containment: 100 runs, 0 violations"),
    ("shm", "campaign consensus: 200 runs, 0 violations")])
def test_a_lab_without_runs_given_runs_its_own_default(capsys, lab, header):
    assert run_cli("campaign", "--lab", lab) == 0
    assert capsys.readouterr().out.split("\n", 1)[0] == header


@pytest.mark.parametrize("lab, flag", [("cas", "--runs"), ("cas", "--seed"),
                                       ("snapshot", "--runs"), ("snapshot", "--seed"),
                                       ("tape", "--runs")])
def test_campaign_refuses_a_flag_its_lab_does_not_read(capsys, lab, flag):
    assert run_cli("campaign", "--lab", lab, flag, "5") == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --lab {lab} does not read {flag}\n"
    assert captured.out == ""


@pytest.mark.parametrize("runs", ["0", "-5"])
def test_campaign_rejects_fewer_than_one_run(capsys, runs):
    assert run_cli("campaign", "--lab", "hierarchy", "--runs", runs) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "--runs" in captured.err
    assert captured.out == ""


def test_campaign_small_hierarchy_and_shm_runs(capsys):
    assert run_cli("campaign", "--lab", "hierarchy", "--runs", "12",
                   "--seed", "5") == 0
    assert run_cli("campaign", "--lab", "shm", "--runs", "12", "--seed", "5") == 0


@pytest.mark.parametrize("runs", ["3", "8"])
def test_a_hierarchy_campaign_of_presets_alone_refuses_a_seed(capsys, runs):
    # the first eight histories are the presets, which no seed changes
    assert run_cli("campaign", "--lab", "hierarchy", "--runs", runs, "--seed", "1") == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "--seed" in captured.err
    assert captured.out == ""


def test_an_unmet_existence_property_is_not_shown_not_a_counterexample(capsys):
    # figure-3 alone passes both criteria, so nothing separates them
    assert run_cli("campaign", "--lab", "hierarchy", "--runs", "1") == 1
    out = capsys.readouterr().out
    assert "property not shown: no history separated the two criteria\n" in out
    assert "counterexample" not in out


def test_kfork_reports_a_width_no_run_reached_as_not_shown(capsys, monkeypatch):
    fork_scenario = campaigns._fork_scenario
    monkeypatch.setattr(campaigns, "_fork_scenario", lambda k, seed: dataclasses.replace(
        fork_scenario(k, seed), duration=1))    # over before anyone appends
    assert run_cli("campaign", "--lab", "kfork", "--runs", "2") == 1
    out = capsys.readouterr().out
    assert out.startswith("campaign kfork: 6 runs, 0 violations\n")
    assert "counterexample" not in out
    for k in (1, 2, 3):
        assert f"property not shown: no run ever forked exactly {k} ways\n" in out


def test_a_short_hierarchy_campaign_judges_exactly_its_runs(capsys):
    assert run_cli("campaign", "--lab", "hierarchy", "--runs", "2") == 0
    out = capsys.readouterr().out
    header, stats = out.split("\n", 1)
    assert header == "campaign hierarchy: 2 runs, 0 violations"
    counts = json.loads(stats)
    assert sum(counts["sc"].values()) == sum(counts["ec"].values()) == 2
