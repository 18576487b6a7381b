"""Histories: event ordering, operation matching, program order, traces."""

import functools
import gc
import random

import pytest

from btlab.checkers import Status, check_block_validity, check_sc
from btlab.cli import main
from btlab.history import (Event, EventKind, History, TraceError, decode_events,
                           make_event, returned_chain)
from btlab.netsim import preset, run_scenario

INV, RSP = EventKind.INVOCATION, EventKind.RESPONSE
SEND, RECV, UPD = EventKind.SEND, EventKind.RECEIVE, EventKind.UPDATE

_RESPONSE_LIKE = {RSP, SEND, RECV, UPD}
_INVOCATION_LIKE = {INV, SEND, RECV, UPD}


def ev(event_id, kind, op, process, t, args=(), returned=None):
    return make_event(event_id, kind, op, args=args, process=process,
                      logical_time=t, returned=returned)


# -- construction ---------------------------------------------------------------


def test_events_sort_canonically_by_time_then_id():
    h = History([
        ev(3, RSP, "read", "p", 5),
        ev(1, INV, "read", "p", 5),
        ev(2, INV, "read", "q", 1),
    ])
    assert [e.event_id for e in h.events] == [2, 1, 3]
    with pytest.raises(AttributeError):      # events are immutable
        h.events[0].logical_time = 9


def test_a_history_and_its_verdicts_are_immutable():
    h = History([ev(1, INV, "read", "p", 0), ev(2, RSP, "read", "p", 1, returned=("b0",))],
                correct={"p"}, complete=True)
    assert type(h.events) is tuple and type(h.correct) is frozenset
    assert type(h.processes) is tuple and type(h.operations) is tuple
    with pytest.raises(AttributeError):
        h.complete = False
    assert h.complete is True
    verdict = check_sc(h)                    # shared by every caller that judges sc
    assert verdict is check_sc(h)
    with pytest.raises(AttributeError):
        verdict.status = Status.FAIL
    with pytest.raises(AttributeError):
        verdict.parts["block-validity"].witness = (1,)
    with pytest.raises(TypeError):
        verdict.parts["lrc"] = verdict


def test_operations_are_immutable():
    h = run_scenario(preset("figure-4")).history
    read = h.reads()[0]
    for name in read._fields:
        with pytest.raises(AttributeError):
            setattr(read, name, None)
    assert read.response is not None and h.reads() is h.reads()
    assert check_block_validity(h).status == Status.PASS


def test_duplicate_event_ids_rejected():
    with pytest.raises(TraceError, match="duplicate event_id 1$"):
        History([ev(1, INV, "read", "p", 0), ev(1, RSP, "read", "p", 1)])
    with pytest.raises(TraceError, match="duplicate event_id 2$"):   # first in time order
        History([ev(3, INV, "read", "p", 5), ev(2, INV, "read", "q", 0),
                 ev(3, RSP, "read", "p", 6), ev(2, RSP, "read", "q", 1)])


def test_operations_match_fifo_per_process_and_op():
    h = History([
        ev(0, INV, "read", "p", 0),
        ev(1, INV, "read", "p", 1),
        ev(2, RSP, "read", "p", 2, returned=("b0",)),
        ev(3, RSP, "read", "p", 3, returned=("b0", "a")),
    ])
    ops = [o for o in h.operations if o.op == "read"]
    assert [o.invocation.event_id for o in ops] == [0, 1]
    assert [o.response.event_id for o in ops] == [2, 3]
    assert returned_chain(ops[0]) == ("b0",)


def test_open_invocations_are_allowed_but_responses_need_invocations():
    h = History([ev(0, INV, "append", "p", 0, args=("x", "b0"))])
    assert len(h.operations) == 1 and not h.operations[0].complete
    with pytest.raises(TraceError):
        History([ev(0, RSP, "read", "p", 0)])


@pytest.mark.parametrize("returned", [["b0"], ["x0"], "b0", 5])
def test_a_read_response_returns_none_or_a_tuple(returned):
    # make_event and trace lines turn a list into a tuple; an Event built
    # directly keeps what it is given
    with pytest.raises(TraceError, match="must be None or a tuple of block ids"):
        History([ev(0, INV, "read", "p", 0), Event(1, RSP, "read", (), "p", 1, returned)])


def test_the_decoder_leaves_the_read_rule_to_the_history():
    docs = [{"event_id": 0, "kind": "invocation", "op": "read", "args": [], "process": "p",
             "logical_time": 0, "returned": None},
            {"event_id": 1, "kind": "response", "op": "read", "args": [], "process": "p",
             "logical_time": 1, "returned": ["x0"]}]
    events = decode_events(enumerate(docs), "line")
    assert events[1] == ev(1, RSP, "read", "p", 1, (), ("x0",))
    with pytest.raises(TraceError, match=r"start at genesis 'b0', got \('x0',\) \(event 1\)"):
        History(events)


@pytest.mark.parametrize("chains", [
    [("b0", 5)],
    [("b0", "x"), ("b0", "x", 5)],             # beyond the previous read
    [("b0", "x", "y"), ("b0", 5)],             # a chain that does not extend it
    [("b0", "x"), ("b0", "x"), (b"b0", "x")],
])
def test_a_read_returns_string_block_ids_only(chains):
    events = []
    for t, chain in enumerate(chains):
        events += [ev(2 * t, INV, "read", "p", t), ev(2 * t + 1, RSP, "read", "p", t, (), chain)]
    with pytest.raises(TraceError, match="must be None or a tuple of block ids"):
        History(events)


def test_a_read_extending_a_checked_one_builds():
    shared = ("b0", "x")
    chains = [shared, shared, ("b0", "x", "y"), ("b0", "z"), ()]
    events = []
    for t, chain in enumerate(chains):
        events += [ev(2 * t, INV, "read", "p", t), ev(2 * t + 1, RSP, "read", "p", t, (), chain)]
    h = History(events)
    assert [returned_chain(r) for r in h.reads_of("p")] == chains
    assert History.from_jsonl(h.to_jsonl()).events == h.events


# -- indexes ------------------------------------------------------------------------

INDEXES = tuple(name for name, member in vars(History).items()
                if isinstance(member, functools.cached_property))


@pytest.fixture()
def index_builds(monkeypatch):
    """The History behind every index build, in build order."""
    built = []
    for name in INDEXES:
        def counting(self, build=vars(History)[name].func):
            built.append(self)
            return build(self)
        prop = functools.cached_property(counting)
        prop.__set_name__(History, name)
        monkeypatch.setattr(History, name, prop)
    return built


def test_indexes_are_built_on_first_use(index_builds, tmp_path, capsys):
    run = run_scenario(preset("bitcoin-like"))
    text = run.full_history.to_jsonl()
    run.history.to_jsonl()
    assert index_builds == []                # simulating and writing build none
    trace = tmp_path / "raw.jsonl"
    trace.write_text(text)
    # btlab check parses, re-wraps and restricts: only the last one is judged
    assert main(["check", str(trace), "--criterion", "sc"]) in (0, 1)
    assert len({id(h) for h in index_builds}) == 1
    assert {e.op for e in index_builds[0].events} < {e.op for e in run.full_history.events}


def test_a_history_builds_its_processes_on_first_read():
    full = run_scenario(preset("bitcoin-like")).full_history
    h = History._trusted(full.events, {"p0"}, False, full.operations)
    assert "processes" not in vars(h) and h.correct == {"p0"}
    assert h.processes == tuple(sorted({e.process for e in full.events}))
    assert "processes" in vars(h)
    # without a correct set every process is correct
    assert History(full.events).correct == frozenset(h.processes)


# -- program order -----------------------------------------------------------------


def test_same_process_events_are_ordered_by_sequence():
    h = History([
        ev(0, INV, "read", "p", 0),
        ev(1, RSP, "read", "p", 0),    # same tick: sequence still orders them
        ev(2, INV, "read", "p", 3),
    ])
    a, b, c = h.events
    assert h.po(a, b) and h.po(b, c) and h.po(a, c)
    assert not h.po(b, a) and not h.po(c, a)


def test_cross_process_order_needs_strictly_earlier_response():
    h = History([
        ev(0, INV, "read", "p", 0),
        ev(1, RSP, "read", "p", 2),
        ev(2, INV, "read", "q", 2),    # same tick as the response: concurrent
        ev(3, RSP, "read", "q", 4),
        ev(4, INV, "read", "q", 6),
    ])
    rsp_p = h.event(1)
    assert not h.po(rsp_p, h.event(2))
    assert h.po(rsp_p, h.event(4))     # 2 < 6 via q's later invocation
    assert h.po(h.event(0), h.event(4))


def test_single_events_bridge_order_in_both_directions():
    h = History([
        ev(0, SEND, "send", "p", 1, args=("b0", "x")),
        ev(1, RECV, "receive", "q", 3, args=("b0", "x")),
        ev(2, UPD, "update", "q", 3, args=("b0", "x")),
        ev(3, INV, "read", "q", 5),
        ev(4, RSP, "read", "q", 6),
    ])
    assert h.po(h.event(0), h.event(1))
    assert h.po(h.event(0), h.event(4))
    assert not h.po(h.event(1), h.event(0))


def brute_force_program_order(h):
    """Independent reference: explicit one-hop relation, then transitive closure."""
    events = h.events
    position, last = {}, {}         # event_id -> position among its process's events
    for e in events:
        position[e.event_id] = last[e.process] = last.get(e.process, -1) + 1
    edges = set()
    for a in events:
        for b in events:
            if a.event_id == b.event_id:
                continue
            if a.process == b.process:
                if position[a.event_id] < position[b.event_id]:
                    edges.add((a.event_id, b.event_id))
            elif (a.kind in _RESPONSE_LIKE and b.kind in _INVOCATION_LIKE
                  and a.logical_time < b.logical_time):
                edges.add((a.event_id, b.event_id))
    closed = set(edges)
    changed = True
    while changed:
        changed = False
        for (x, y) in list(closed):
            for (y2, z) in list(closed):
                if y == y2 and (x, z) not in closed and x != z:
                    closed.add((x, z))
                    changed = True
    return closed


def random_history(rng, n_procs=3, n_ops=5):
    events = []

    def emit(*fields, **named):         # the next event, its id its position
        events.append(ev(len(events), *fields, **named))
    t = 0
    for p in range(n_procs):
        t = rng.randint(0, 2)
        for i in range(rng.randint(1, n_ops)):
            roll = rng.random()
            if roll < 0.5:
                emit(INV, "read", f"p{p}", t)
                t += rng.randint(0, 3)
                emit(RSP, "read", f"p{p}", t, returned=("b0",))
            elif roll < 0.7:
                emit(SEND, "send", f"p{p}", t, args=("b0", f"x{p}{i}"))
            elif roll < 0.9:
                emit(RECV, "receive", f"p{p}", t, args=("b0", f"x{p}{i}"))
            else:
                emit(UPD, "update", f"p{p}", t, args=("b0", f"x{p}{i}"))
            t += rng.randint(0, 3)
    return History(events)


def program_order(h):
    """All ordered pairs (by id) under h.po."""
    return {(a.event_id, b.event_id) for a in h.events for b in h.events
            if a.event_id != b.event_id and h.po(a, b)}


def test_program_order_equals_transitive_closure_of_both_orders():
    rng = random.Random(42)
    for _ in range(60):
        h = random_history(rng)
        assert program_order(h) == brute_force_program_order(h)


def test_program_order_is_a_strict_partial_order():
    rng = random.Random(43)
    for _ in range(30):
        h = random_history(rng)
        po = program_order(h)
        for (a, b) in po:
            assert (b, a) not in po                      # antisymmetric
        for (a, b) in po:
            for (b2, c) in po:
                if b == b2:
                    assert (a, c) in po                  # transitive


# -- reads ------------------------------------------------------------------------------


def test_reads_are_ordered_by_response_and_filtered_by_process():
    h = History([
        ev(0, INV, "read", "p", 0), ev(1, RSP, "read", "p", 4, returned=("b0",)),
        ev(2, INV, "read", "q", 1), ev(3, RSP, "read", "q", 2, returned=("b0",)),
        ev(4, INV, "read", "p", 9),          # never completes
    ])
    assert [r.response.event_id for r in h.reads()] == [3, 1]
    assert [r.response.event_id for r in h.reads_of("p")] == [1]


# -- restriction ---------------------------------------------------------------------------


def test_restriction_keeps_reads_appends_and_comms_at_correct_processes():
    h = History([
        ev(0, INV, "read", "good", 0),
        ev(1, RSP, "read", "good", 1, returned=("b0",)),
        ev(2, INV, "read", "bad", 0),
        ev(3, RSP, "read", "bad", 1, returned=("b0", "ghost")),
        ev(4, INV, "append", "bad", 2, args=("x", "b0", True)),
        ev(5, INV, "append", "bad", 3, args=("y", "b0", False)),
        ev(6, INV, "get_token", "good", 4, args=("z",)),
        ev(7, RSP, "append", "bad", 5, returned=True),
        ev(8, SEND, "send", "bad", 6, args=("b0", "x")),
        ev(9, SEND, "send", "good", 6, args=("b0", "x")),
    ], correct={"good"})
    r = h.restricted()
    kept = sorted(e.event_id for e in r.events)
    # bad's reads drop; bad's valid append invocation stays (4), the invalid
    # one drops (5); oracle chatter and bare append responses drop; bad's
    # send drops, good's stays
    assert kept == [0, 1, 4, 9]
    assert r.restricted().to_jsonl() == r.to_jsonl()     # idempotent


def test_append_invocations_without_flag_count_as_valid():
    h = History([ev(0, INV, "append", "p", 0, args=("x", "b0"))])
    assert len(h.restricted().events) == 1


# -- serialization --------------------------------------------------------------------------


def test_jsonl_round_trip_is_identity():
    rng = random.Random(77)
    for _ in range(25):
        h = random_history(rng)
        text = h.to_jsonl()
        back = History.from_jsonl(text)
        assert back.to_jsonl() == text
        assert [e for e in back.events] == [e for e in h.events]


def test_jsonl_lines_are_canonically_sorted_json():
    h = History([ev(0, INV, "read", "p", 0),
                 ev(1, RSP, "read", "p", 1, returned=("b0", "a"))])
    line = h.to_jsonl().splitlines()[0]
    assert line == ('{"args":[],"event_id":0,"kind":"invocation",'
                    '"logical_time":0,"op":"read","process":"p","returned":null}')


def test_empty_trace_parses_to_empty_history():
    h = History.from_jsonl("")
    assert h.events == () and h.reads() == ()


@pytest.mark.parametrize("text", [
    '{"args":[],"event_id":0,"kind":"invocation","logical_time":0,"op":"read",'
    '"process":"p","returned":null}\n',                    # decoded in one call
    '{"args":[{}],"event_id":0,"kind":"invocation","logical_time":0,"op":"read",'
    '"process":"p","returned":null}\n',                    # line by line
    '{"args":[]}\n',                                       # refused
])
def test_parsing_leaves_the_garbage_collector_as_it_was(text):
    for collecting in (True, False):
        (gc.enable if collecting else gc.disable)()
        try:
            try:
                History.from_jsonl(text)
            except TraceError:
                pass
            assert gc.isenabled() is collecting
        finally:
            gc.enable()


def test_malformed_traces_are_rejected():
    with pytest.raises(TraceError):
        History.from_jsonl("not json\n")
    with pytest.raises(TraceError):
        History.from_jsonl('{"event_id":0}\n')
    bad_kind = ('{"args":[],"event_id":0,"kind":"banana","logical_time":0,'
                '"op":"read","process":"p","returned":null}')
    with pytest.raises(TraceError):
        History.from_jsonl(bad_kind + "\n")
