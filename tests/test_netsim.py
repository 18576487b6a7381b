"""Simulator: scenario schema, channels, presets, invariants, determinism."""

import dataclasses
import gc
import hashlib
import heapq
import json
import math
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from btlab import campaigns, netsim
from btlab.checkers import Status, run_checker
from btlab.history import EventKind, History
from btlab.netsim import (ChannelKind, ChannelModel, OracleSpec, ProcessSpec,
                          Scenario, ScenarioError, evaluate_run, preset,
                          preset_names, run_scenario, scenario_from_dict)
from btlab.refinement import RefinedLedger

PRESETS_DIR = Path(__file__).resolve().parent.parent / "src" / "btlab" / "presets"

EXPECTED_PRESET_VERDICTS = {
    "figure-3": {"sc": "PASS", "ec": "PASS"},
    "figure-4": {"sc": "FAIL", "ec": "PASS", "strong-prefix": "FAIL"},
    "figure-5": {"sc": "FAIL", "ec": "FAIL", "eventual-prefix": "FAIL"},
    "figure-6": {"update-agreement": "PASS", "lrc": "PASS"},
    "fork-strong-violation": {"strong-prefix": "FAIL", "sc": "FAIL", "ec": "PASS"},
    "update-drop": {"update-agreement": "FAIL", "lrc": "FAIL", "ec": "FAIL"},
    "bitcoin-like": {"sc": "FAIL", "ec": "PASS"},
    "consortium-like": {"sc": "PASS", "ec": "PASS"},
}


# -- channel model ------------------------------------------------------------


def two_process_run(channel, duration=400):
    """Both processes append every 5 ticks and read never."""
    return run_scenario(Scenario(
        name="pair", channel=channel, seed=3, duration=duration,
        processes=[ProcessSpec(p, block_interval=5, append_offset=5 + i)
                   for i, p in enumerate(("a", "b"))]))


def first_arrivals(run):
    """Ticks from each block's send to each first receive of it."""
    sent = {e.args[1]: e.logical_time for e in run.full_history.events if e.kind is EventKind.SEND}
    return [e.logical_time - sent[e.args[1]] for e in run.full_history.events
            if e.kind is EventKind.RECEIVE]


def dropped_on(route, block_id):
    return route.drops_all or block_id in route.drops


def test_synchronous_delay_respects_delta():
    ch = ChannelModel(kind=ChannelKind.SYNCHRONOUS, delta=4)
    assert ch.max_delay == 4
    assert all(route.delay is None for routes in ch.routes(["a", "b"]).values()
               for route in routes)                     # every link draws
    arrivals = first_arrivals(two_process_run(ch))
    assert len(arrivals) > 200
    assert all(1 <= d <= 4 for d in arrivals)
    assert len(set(arrivals)) > 1


def test_asynchronous_delay_is_bounded_only_by_the_cap():
    ch = ChannelModel(kind=ChannelKind.ASYNCHRONOUS, delta=2, async_max_delay=25)
    assert ch.max_delay == 25
    arrivals = first_arrivals(two_process_run(ch))
    assert len(arrivals) > 200
    assert all(1 <= d <= 25 for d in arrivals)
    assert max(arrivals) > 2                    # really not delta-bounded


@pytest.mark.parametrize("max_delay", [*range(1, 41), 63, 64, 65, 1000])
def test_a_drawn_delay_is_what_randint_draws_from_the_same_stream(max_delay):
    # `send` draws through `_delay_drawer`; equal delays from equally seeded
    # rngs, and an equal draw after them, show that both consume one stream
    for seed in range(20):
        ours, theirs = random.Random(seed), random.Random(seed)
        draw = netsim._delay_drawer(ours, max_delay)
        assert [draw() for _ in range(300)] == [theirs.randint(1, max_delay)
                                                for _ in range(300)], seed
        assert ours.random() == theirs.random()


def test_delay_overrides_match_first_rule():
    ch = ChannelModel(delta=9, delays=[
        {"from": "a", "to": "a", "delay": 3},
        {"from": "a", "delay": 5},
    ])
    routes = ch.routes(["a", "b"])
    assert [(r.dest, r.delay) for r in routes["a"]] == [("a", 3), ("b", 5)]
    assert [(r.dest, r.delay) for r in routes["b"]] == [("a", None), ("b", None)]
    assert ch.max_delay == 9
    arrivals = first_arrivals(two_process_run(ch))     # b -> a draws in [1, 9]
    assert all(1 <= d <= 9 for d in arrivals) and max(arrivals) > 5


def test_drop_rules_match_block_sender_and_destination():
    ch = ChannelModel(drops=[{"block": "x", "to": "p2"}, {"from": "evil"}])
    routes = {(s, r.dest): r for s, rs in ch.routes(["p0", "p1", "p2", "evil"]).items()
              for r in rs}
    assert dropped_on(routes["p0", "p2"], "x")
    assert dropped_on(routes["p1", "p2"], "x")
    assert not dropped_on(routes["p0", "p1"], "x")
    assert not dropped_on(routes["p0", "p2"], "y")
    assert dropped_on(routes["evil", "p0"], "anything")


def test_no_copy_is_scheduled_that_an_earlier_one_beats(monkeypatch):
    pushed = []                                 # (dest, block id, tick) per delivery push

    def heappush(heap, entry):
        tick, klass, _, payload = entry
        if klass == netsim._DELIVER:
            pushed.append((payload[0], payload[1].id, tick))
        heapq.heappush(heap, entry)

    monkeypatch.setattr(netsim, "heapq", SimpleNamespace(heappush=heappush,
                                                         heappop=heapq.heappop))
    sc = small_scenario(5, n=4, duration=80)
    sc.channel = ChannelModel(kind=ChannelKind.ASYNCHRONOUS, async_max_delay=12)
    run = run_scenario(sc)
    earliest = {}
    for dest, block_id, tick in pushed:         # each push beats every earlier one
        assert tick < earliest.get((dest, block_id), math.inf)
        earliest[dest, block_id] = tick
    assert len(earliest) < len(pushed)          # some later push did beat one
    sends = sum(e.kind is EventKind.SEND for e in run.full_history.events)
    echoes = sum(e.kind is EventKind.RECEIVE for e in run.full_history.events)
    copies = 4 * sends + 3 * echoes             # every copy the broadcast makes
    assert len(pushed) + run.undelivered + run.dropped < copies


def test_only_the_synchronous_and_asynchronous_kinds_remain():
    assert {kind.value for kind in ChannelKind} == {"synchronous", "asynchronous"}
    with pytest.raises(ScenarioError, match="'weakly-synchronous'"):
        ChannelModel(kind="weakly-synchronous")


# -- scenario schema ----------------------------------------------------------------


def valid_doc():
    return {
        "version": 1,
        "name": "t",
        "processes": [{"id": "p0", "block_interval": 5, "read_interval": 5}],
        "channel": {"kind": "synchronous", "delta": 2},
        "oracle": {"capacity": None, "seed": 0},
        "duration": 20,
    }


def test_minimal_scenario_parses_with_defaults():
    sc = scenario_from_dict(valid_doc())
    assert sc.name == "t" and sc.duration == 20
    assert sc.stabilization_suffix == 3 and sc.declared_complete is True


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.update(version=2), "version"),
    (lambda d: d.update(name=""), "name"),
    (lambda d: d.update(processes=[]), "processes"),
    (lambda d: d.update(processes=[{"id": "a"}, {"id": "a"}]), "duplicate"),
    (lambda d: d["processes"][0].update(behavior="evil"), "behavior"),
    (lambda d: d["processes"][0].update(merit=0.0), "merit"),
    (lambda d: d["channel"].update(kind="postal"), "kind"),
    (lambda d: d["channel"].update(delta=0), "delta"),
    (lambda d: d["oracle"].update(capacity=0), "capacity"),
    (lambda d: d.update(stabilization_suffix=0), "stabilization_suffix"),
    (lambda d: d.update(expected_verdicts={"sc": "MAYBE"}), "PASS|FAIL"),
    (lambda d: d.update(duration=-1), "duration"),
    (lambda d: d["processes"][0].update(merit="hi"), "merit must be a number"),
    (lambda d: d["channel"].update(delays=[{"from": "p0"}]), "delay"),
    (lambda d: d["processes"][0].update(block_interval=0), "block_interval"),
    (lambda d: d["processes"][0].update(read_interval=-3), "read_interval"),
    (lambda d: d["processes"][0].update(append_offset="x"), "append_offset"),
    (lambda d: d["channel"].update(delta="x"), "delta must be a number"),
    (lambda d: d.update(oracle=[]), "oracle"),
    (lambda d: d.update(seed=None), "seed"),
    (lambda d: d["channel"].update(drops=[{"to": "p1"}]), "unknown process 'p1'"),
    (lambda d: d["channel"].update(delays=[{"from": "P0", "delay": 1}]), "unknown process"),
    (lambda d: d.update(version=True), "version"),
    (lambda d: d.update(version=1.0), "version"),
    (lambda d: d.update(script=[{"kind": "invocation", "op": "read", "args": [],
                                 "process": "p1", "logical_time": 0, "returned": None}]),
     "script event 0 names unknown process 'p1'"),
])
def test_schema_violations_raise_scenario_errors(mutate, fragment):
    doc = valid_doc()
    mutate(doc)
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert fragment.split("|")[0].lower() in str(err.value).lower()


def test_scenario_round_trips_through_its_dict_form():
    for name in preset_names():
        sc = preset(name)
        back = scenario_from_dict(sc.to_dict())
        assert run_scenario(back).history.to_jsonl() == \
            run_scenario(sc).history.to_jsonl()


# -- golden presets --------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(EXPECTED_PRESET_VERDICTS))
def test_preset_verdicts_match_their_stated_expectations(name):
    sc = preset(name)
    assert sc.expected_verdicts == EXPECTED_PRESET_VERDICTS[name]
    report = evaluate_run(run_scenario(sc))
    assert report["ok"], report["verdicts"]


def test_preset_names_are_the_expected_presets():
    assert preset_names() == sorted(EXPECTED_PRESET_VERDICTS)


@pytest.mark.parametrize("name", preset_names())
def test_preset_file_equals_its_builtin(name):
    # the shipped file is in canonical form: loading and re-dumping changes nothing
    doc = json.loads((PRESETS_DIR / f"{name}.json").read_text())
    assert doc == preset(name).to_dict()
    assert scenario_from_dict(doc) == preset(name)


def test_unknown_preset_is_a_scenario_error():
    with pytest.raises(ScenarioError):
        preset("no-such-thing")


@pytest.mark.parametrize("name", ["../pyproject", "figure-3/../figure-4"])
def test_preset_opens_only_listed_names(name):
    with pytest.raises(ScenarioError, match="unknown preset"):
        preset(name)


def test_scripted_figure_replays_are_fixed_event_sequences():
    for name, lines in [("figure-3", 16), ("figure-4", 17),
                        ("figure-5", 18), ("figure-6", 7)]:
        run = run_scenario(preset(name))
        assert len(run.history.to_jsonl().splitlines()) == lines


def test_fork_preset_witness_is_a_two_read_pair():
    run = run_scenario(preset("fork-strong-violation"))
    v = run_checker("strong-prefix", run.history, run.scenario.window())
    assert v.status == Status.FAIL
    assert len(v.witness) == 2
    a, b = (run.history.event(i) for i in v.witness)
    assert {a.process, b.process} == {"p0", "p1"}
    # the construction: each replica holds genesis plus the other's block
    chains = {tuple(e.returned) for e in (a, b)}
    assert chains == {("b0", "p0-1"), ("b0", "p1-1")}


def test_update_drop_preset_fails_on_the_missing_receiver():
    run = run_scenario(preset("update-drop"))
    v = run_checker("update-agreement", run.history, run.scenario.window())
    assert v.status == Status.FAIL
    assert v.detail.startswith("R3") and "p2" in v.detail


# -- fault-removal flips ---------------------------------------------------------------------


def test_capacity_one_removes_the_fork_violation():
    sc = preset("fork-strong-violation")
    fixed = dataclasses.replace(sc, oracle=OracleSpec(capacity=1, seed=sc.oracle.seed),
                                expected_verdicts={})
    run = run_scenario(fixed)
    assert run_checker("strong-prefix", run.history,
                       fixed.window()).status == Status.PASS


def test_removing_the_drop_heals_update_agreement_and_ec():
    sc = preset("update-drop")
    fixed = dataclasses.replace(
        sc, channel=dataclasses.replace(sc.channel, drops=[]),
        expected_verdicts={})
    run = run_scenario(fixed)
    for crit in ("update-agreement", "lrc", "ec"):
        assert run_checker(crit, run.history, fixed.window()).status == Status.PASS


# -- simulator invariants ---------------------------------------------------------------------


def small_scenario(seed, capacity=None, n=3, drops=(), duration=40,
                   byzantine=()):
    procs = []
    for i in range(n):
        procs.append(ProcessSpec(
            f"p{i}", merit=1.0,
            behavior="byzantine" if f"p{i}" in byzantine else "correct",
            block_interval=8, append_offset=8 + i,
            read_interval=9, read_offset=2))
    return Scenario(
        name=f"small-{seed}", processes=procs,
        channel=ChannelModel(kind=ChannelKind.SYNCHRONOUS, delta=2,
                             drops=list(drops)),
        oracle=OracleSpec(capacity=capacity, seed=seed),
        seed=seed, duration=duration, stabilization_suffix=1)


def test_single_process_run_grows_one_chain_and_passes_ec():
    sc = Scenario(
        name="solo",
        processes=[ProcessSpec("p0", block_interval=10, read_interval=10,
                               read_offset=5)],
        channel=ChannelModel(delta=1),
        seed=1, duration=35, stabilization_suffix=1)
    run = run_scenario(sc)
    chain = run.ledgers["p0"].read()
    assert 1 < len(chain) <= 4                    # three append slots
    assert run_checker("ec", run.history, sc.window()).status == Status.PASS
    assert run_checker("strong-prefix", run.history, sc.window()).status == \
        Status.PASS


def test_fork_width_never_exceeds_oracle_capacity():
    rng = random.Random(6)
    for _ in range(15):
        k = rng.choice([1, 2, 3])
        run = run_scenario(small_scenario(rng.randrange(10**6), capacity=k))
        for led in run.ledgers.values():
            assert led.tree.max_fork_count() <= k
        for block_id in run.ledgers["p0"].tree._blocks:
            assert len(run.oracle.consumed_view(block_id)) <= k


def test_capacity_one_runs_always_satisfy_strong_prefix():
    rng = random.Random(13)
    for _ in range(10):
        sc = small_scenario(rng.randrange(10**6), capacity=1)
        run = run_scenario(sc)
        assert run_checker("strong-prefix", run.history,
                           sc.window()).status == Status.PASS


def test_every_read_returns_a_chain_of_integrated_blocks():
    run = run_scenario(small_scenario(21))
    for read in run.history.reads():
        chain = read.response.returned
        assert chain[0] == "b0"
        tree = run.ledgers[read.process].tree
        for block_id in chain[1:]:
            assert block_id in tree


def test_a_read_event_holds_the_chain_its_replica_tree_read(monkeypatch):
    tree_reads = []
    ledger_read = RefinedLedger.read

    def read(ledger):
        tree_reads.append(ledger.tree.read())
        return ledger_read(ledger)

    monkeypatch.setattr(RefinedLedger, "read", read)
    run = run_scenario(small_scenario(21))
    returned = [e.returned for e in run.full_history.events
                if e.kind is EventKind.RESPONSE and e.op == "read"]
    assert returned and len(returned) == len(tree_reads)
    assert all(chain is tree_chain for chain, tree_chain in zip(returned, tree_reads))


def test_relayed_forwarding_heals_a_dropped_direct_link():
    # every direct copy from p0 to p2 is lost; p1's echo still delivers
    sc = small_scenario(3, drops=({"from": "p0", "to": "p2"},))
    run = run_scenario(sc)
    received_at_p2 = {e.args[1] for e in run.history.events
                      if e.kind is EventKind.RECEIVE and e.process == "p2"}
    made_by_p0 = {b.id for b in run.ledgers["p0"].tree.blocks()
                  if b.id.startswith("p0-")}
    assert made_by_p0 and made_by_p0 <= received_at_p2
    assert run.dropped > 0


def test_byzantine_processes_leave_only_append_invocations_in_the_trace():
    sc = small_scenario(9, byzantine=("p2",))
    run = run_scenario(sc)
    byz_events = [e for e in run.history.events if e.process == "p2"]
    assert byz_events                              # its appends are visible
    assert {e.op for e in byz_events} == {"append"}
    assert {e.kind for e in byz_events} == {EventKind.INVOCATION}
    full_byz_ops = {e.op for e in run.full_history.events if e.process == "p2"}
    assert "send" in full_byz_ops                  # it did broadcast underneath


def test_a_withholding_byzantine_process_is_a_drop_rule():
    # byzantine p3 withholds its blocks from p0 and p1; the digests are those
    # of both traces of this scenario written with the former per-process
    # {"withhold_from": ["p0", "p1"]}: the drop rules give the same bytes,
    # and count the withheld sends as dropped
    procs = [{"id": f"p{i}", "block_interval": 6, "append_offset": 6 + i,
              "read_interval": 7, "read_offset": 2} for i in range(4)]
    procs[3]["behavior"] = "byzantine"
    run = run_scenario(scenario_from_dict({
        "version": 1, "name": "withhold", "processes": procs, "seed": 11, "duration": 60,
        "channel": {"kind": "asynchronous", "async_max_delay": 9,
                    "drops": [{"from": "p3", "to": "p0"}, {"from": "p3", "to": "p1"}]}}))
    assert hashlib.sha256(run.history.to_jsonl().encode()).hexdigest() == \
        "5fc039d0281e3e70f2fa6eec691bf41a6cb8e346aff68f9d368f2a4bbb28284d"
    assert hashlib.sha256(run.full_history.to_jsonl().encode()).hexdigest() == \
        "dc9ed6f0b47cb5abdb55c620c0efd8200255406ee1cc551dacc8f6023257ddac"
    assert run.dropped == 18


def test_a_byzantine_process_dropped_on_every_link_reaches_no_one():
    run = run_scenario(small_scenario(9, byzantine=("p2",), drops=({"from": "p2"},)))
    assert not [e for e in run.history.events
                if e.kind in (EventKind.RECEIVE, EventKind.UPDATE) and e.args[1].startswith("p2-")]
    sends = [e for e in run.full_history.events if e.kind is EventKind.SEND and e.process == "p2"]
    assert sends and run.dropped == 3 * len(sends)      # to each process, p2 included


@pytest.mark.parametrize("rule,lag", [({"from": "p0"}, 1), ({"from": "p0"}, 5),
                                      ({"to": "p2"}, 1), ({"to": "p2"}, 5)])
def test_a_delays_rule_sets_the_first_arrival_on_the_links_it_matches(rule, lag):
    # the direct copy is the first to arrive: a relayed one takes a second hop
    sc = small_scenario(5, duration=60)
    run = run_scenario(dataclasses.replace(
        sc, channel=dataclasses.replace(sc.channel, delays=[{**rule, "delay": lag}])))
    sent = {e.args[1]: (e.process, e.logical_time) for e in run.history.events
            if e.kind is EventKind.SEND}
    first = {}
    for e in run.history.events:
        if e.kind is EventKind.RECEIVE:
            first.setdefault((e.process, e.args[1]), e.logical_time)
    matched = [(dest, block) for dest, block in first
               if sent[block][0] != dest and rule.get("from", sent[block][0]) == sent[block][0]
               and rule.get("to", dest) == dest]
    assert len(matched) >= 5
    assert all(first[key] == sent[key[1]][1] + lag for key in matched)


def test_no_process_receives_or_updates_a_block_twice():
    # every correct process echoes what it receives, so each block reaches
    # each process once directly and up to twice more as a relay
    run = run_scenario(small_scenario(2, n=4))
    seen = [(e.kind, e.process, e.args[1]) for e in run.history.events
            if e.kind in (EventKind.RECEIVE, EventKind.UPDATE)]
    assert len(seen) == len(set(seen))
    made = {e.args[1] for e in run.history.events     # in time to arrive: delta is 2
            if e.kind is EventKind.SEND and e.logical_time <= 40 - 2}
    received = {(p, b) for kind, p, b in seen if kind is EventKind.RECEIVE}
    assert made and all((f"p{i}", b) in received
                        for b in made for i in range(4) if not b.startswith(f"p{i}-"))


def test_a_run_calls_the_history_constructor_zero_times(monkeypatch):
    built = []
    init = History.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(History, "__init__", counting)
    run = run_scenario(small_scenario(9, byzantine=("p2",)))
    assert built == []                  # nothing sorted, checked or matched again
    full = run.full_history
    again = full.restricted()
    assert again.events == run.history.events and again.operations == run.history.operations
    assert run.history.line_memo is full.line_memo          # one memo for both traces
    assert built == []


def test_a_simulated_history_survives_its_trace_round_trip():
    # reads and consumes are recorded with tuples, as the trace parser stores them
    run = run_scenario(preset("bitcoin-like"))
    for h in (run.history, run.full_history):
        back = History.from_jsonl(h.to_jsonl())
        assert back.events == h.events
        assert len(set(h.events)) == len(h.events)          # events are hashable


def test_a_run_leaves_no_reference_cycle():
    sc = preset("bitcoin-like")
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            run_scenario(sc)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_orphans_are_applied_depth_first_in_arrival_order():
    # r gets s-1 only from u, five ticks late: the blocks built on it wait,
    # then apply after it depth first, each fork in the order it arrived
    run = run_scenario(scenario_from_dict({
        "version": 1, "name": "orphans", "duration": 8,
        "processes": [{"id": "s", "block_interval": 1, "append_offset": 1},
                      {"id": "t", "block_interval": 100, "append_offset": 2},
                      {"id": "u"}, {"id": "r"}],
        "channel": {"kind": "synchronous", "delta": 1,
                    "delays": [{"from": "u", "to": "r", "delay": 5}],
                    "drops": [{"block": "s-1", "from": "s", "to": "r"},
                              {"block": "s-1", "from": "t", "to": "r"}]}}))
    events = run.full_history.events
    at_r = [e for e in events if e.process == "r"]
    received = [(e.args[1], e.logical_time) for e in at_r if e.kind is EventKind.RECEIVE]
    assert [b for b, _ in received[:6]] == ["s-2", "t-1", "s-3", "s-4", "s-5", "s-1"]
    assert received[5][1] == 7
    updates = [e.args for e in at_r if e.kind is EventKind.UPDATE]
    assert [b for _, b in updates] == ["s-1", "s-2", "t-1", "s-3", "s-4", "s-5", "s-6", "s-7"]
    assert ("t-1", "s-3") in updates                        # s-3 sits under t-1, not s-2
    assert [e.event_id for e in events] == list(range(len(events)))     # each its position
    for p in run.full_history.correct:
        got = {e.args[1] for e in events if e.process == p and e.kind is EventKind.RECEIVE}
        applied = {e.args[1] for e in events if e.process == p and e.kind is EventKind.UPDATE}
        assert got <= applied, (p, got - applied)


def test_a_run_hands_its_ledgers_only_blocks_they_admit(monkeypatch):
    # a block waits in the run's buffer until its parent is applied, and a
    # copy reaches a process once: so every block a run hands a ledger has
    # its parent there and is admitted, on the presets and the hierarchy corpus
    calls = []
    integrate = RefinedLedger.integrate

    def spy(ledger, block):
        found = block.parent_id in ledger.tree
        admitted = integrate(ledger, block)
        calls.append((block.id, found, admitted))
        return admitted

    monkeypatch.setattr(RefinedLedger, "integrate", spy)
    for name in preset_names():
        run_scenario(preset(name))
    for _ in campaigns.hierarchy_corpus(200):
        pass
    refused = [c for c in calls if not (c[1] and c[2])]
    assert len(calls) > 3000 and not refused, (len(calls), refused[:5])


def _never_applied(run):
    """How many blocks a correct process received and never applied."""
    events = run.full_history.events

    def blocks(p, kind):
        return {e.args[1] for e in events if e.process == p and e.kind is kind}
    return sum(len(blocks(p, EventKind.RECEIVE) - blocks(p, EventKind.UPDATE))
               for p in run.full_history.correct)


def test_a_run_counts_the_blocks_left_waiting_for_their_parent(monkeypatch):
    # a block whose parent never reaches its process waits to the end of the
    # run, received and never applied; the run and its report count it
    runs = {name: run_scenario(preset(name)) for name in preset_names()}
    assert {name: run.waiting for name, run in runs.items()} == {
        **dict.fromkeys(preset_names(), 0), "update-drop": 3}
    # r never gets s-1, under which both s-2 and t-1 wait: seven blocks in all
    runs["lost-parent"] = run_scenario(scenario_from_dict({
        "version": 1, "name": "lost-parent", "duration": 8,
        "processes": [{"id": "s", "block_interval": 1, "append_offset": 1},
                      {"id": "t", "block_interval": 100, "append_offset": 2},
                      {"id": "u"}, {"id": "r"}],
        "channel": {"kind": "synchronous", "delta": 1,
                    "drops": [{"block": "s-1", "from": p, "to": "r"} for p in "stu"]}}))
    assert runs["lost-parent"].waiting == 7
    for run in runs.values():
        assert run.waiting == _never_applied(run)
        assert evaluate_run(run)["waiting"] == run.waiting
    waiting = []

    def spy(sc, run_scenario=campaigns.run_scenario):
        run = run_scenario(sc)
        waiting.append(run.waiting)
        return run
    monkeypatch.setattr(campaigns, "run_scenario", spy)
    for _ in campaigns.hierarchy_corpus(1000):
        pass
    assert (len(waiting), sum(map(bool, waiting)), sum(waiting)) == (1000, 128, 438)


def test_messages_past_duration_are_counted_undelivered():
    sc = small_scenario(4, duration=9)          # append at 8(+i), delivery at 10+
    run = run_scenario(sc)
    assert run.undelivered > 0


def test_equal_seeds_give_byte_identical_traces():
    for name in preset_names():
        sc = preset(name)
        a = run_scenario(sc)
        b = run_scenario(sc)
        assert a.history.to_jsonl() == b.history.to_jsonl()
        assert a.full_history.to_jsonl() == b.full_history.to_jsonl()


def test_evaluate_run_reports_mismatches_without_hiding_actuals():
    sc = preset("figure-3")
    twisted = dataclasses.replace(sc, expected_verdicts={"sc": "FAIL"})
    report = evaluate_run(run_scenario(twisted))
    assert not report["ok"]
    row = report["verdicts"]["sc"]
    assert row["expected"] == "FAIL" and row["actual"] == "PASS"
