"""The indexed checkers agree with the reference oracles, verdict for verdict.

Status, witness, detail and parts must match for all nine criteria, over
windows 1-4 and both completeness flags. Inputs: small random scenarios run
through the simulator (forks, drops, Byzantine processes), raw random event
streams (same-tick events, pending reads, updates nobody received, messages
naming a block under a parent other than its own), every preset, and the
golden generated runs.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import reference_checkers as reference  # noqa: E402
from btlab import checkers  # noqa: E402
from btlab.history import EventKind, History, make_event  # noqa: E402
from btlab.netsim import preset, preset_names, run_scenario, scenario_from_dict  # noqa: E402
from strategies import scenarios  # noqa: E402
from test_golden import GENERATED  # noqa: E402

BASE = ("block-validity", "local-monotonic-read", "strong-prefix",
        "ever-growing-tree", "eventual-prefix", "update-agreement", "lrc")
COMPOSITE = {"sc": ("block-validity", "local-monotonic-read", "strong-prefix",
                    "ever-growing-tree"),
             "ec": ("block-validity", "local-monotonic-read", "ever-growing-tree",
                    "eventual-prefix")}
WINDOWS = (1, 2, 3, 4)


def outcome(table, name, h, window):
    try:
        return table[name](h, window)
    except Exception as exc:     # both sides must fail the same way, too
        return ("raises", type(exc), str(exc))


def assert_agree(h, windows=WINDOWS, completes=(False, True)):
    for complete in completes:
        hc = History(h.events, correct=h.correct, complete=complete)
        for window in windows:
            for name in checkers.CHECKERS:
                got = outcome(checkers.CHECKERS, name, hc, window)
                want = outcome(reference.CHECKERS, name, hc, window)
                assert got == want, (name, window, complete)


# -- random scenarios through the simulator -------------------------------------


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=scenarios(), full=st.booleans())
def test_checkers_agree_on_simulated_runs(doc, full):
    run = run_scenario(scenario_from_dict(doc))
    assert_agree(run.full_history if full else run.history)


# -- raw random event streams ---------------------------------------------------------

# a small block tree: b0 <- a1 <- a2 <- a3, a1 <- d2, b0 <- c1 <- c2
PARENT = {"a1": "b0", "a2": "a1", "a3": "a2", "d2": "a1", "c1": "b0", "c2": "c1"}
BLOCKS = sorted(PARENT)
SEND, RECV, UPD = EventKind.SEND, EventKind.RECEIVE, EventKind.UPDATE


def chain_to(block):
    chain = [block]
    while chain[-1] in PARENT:
        chain.append(PARENT[chain[-1]])
    return tuple(reversed(chain))


returned_chains = st.one_of(
    st.sampled_from(BLOCKS + ["b0"]).map(chain_to),
    st.just(()), st.none(),
)


@st.composite
def event_streams(draw):
    procs = ["p", "q", "r"]
    raw = []                                     # (kind, op, process, t, args, returned)
    for p in procs:
        t = draw(st.integers(0, 2))
        for _ in range(draw(st.integers(0, 7))):
            what = draw(st.sampled_from(["read", "read", "pending", "append", "send",
                                         "receive", "update", "broadcast", "broadcast"]))
            if what in ("read", "pending"):
                raw.append((EventKind.INVOCATION, "read", p, t, (), None))
                if what == "read":
                    t += draw(st.integers(0, 2))
                    raw.append((EventKind.RESPONSE, "read", p, t, (),
                                draw(returned_chains)))
            elif what == "append":
                block = draw(st.sampled_from(BLOCKS))
                flag = draw(st.sampled_from([(), (True,), (False,)]))
                raw.append((EventKind.INVOCATION, "append", p, t,
                            (block, PARENT[block]) + flag, None))
            else:                                # few blocks, so comms collide
                block = draw(st.sampled_from(BLOCKS[:2]))
                # under its own parent or another: a block's origin is keyed by
                # its id alone, a message by (parent, block)
                args = (draw(st.sampled_from([PARENT[block], "c1"])), block)
                if what != "broadcast":
                    raw.append((EventKind(what), what, p, t, args, None))
                else:
                    # p sends, delivers and applies it, and the others, or some
                    # of them, receive it later: so a message that reached every
                    # process can come before one that did not
                    others = [q for q in procs if q != p]
                    raw += [(kind, kind.value, p, t, args, None) for kind in (SEND, RECV, UPD)]
                    raw += [(RECV, "receive", q, t + draw(st.integers(0, 3)), args, None)
                            for q in draw(st.one_of(st.just(others), st.lists(
                                st.sampled_from(others), unique=True)))]
            t += draw(st.integers(0, 2))
    # random ids shuffle same-tick events across processes; each process keeps
    # its ids increasing so that its own events stay in the order drawn
    shuffled = draw(st.permutations(range(len(raw))))
    ids = [0] * len(raw)
    for p in procs:
        mine = [k for k, e in enumerate(raw) if e[2] == p]
        for k, i in zip(mine, sorted(shuffled[k] for k in mine)):
            ids[k] = i
    events = [make_event(i, kind, op, args=args, process=p, logical_time=t,
                         returned=returned)
              for i, (kind, op, p, t, args, returned) in zip(ids, raw)]
    correct = set(draw(st.one_of(st.lists(st.sampled_from(procs), unique=True),
                                 st.just(procs))))
    return History(events, correct=correct)


def messages_history(rows, correct):
    """The history of `(kind, process, logical_time, parent, block)` rows, each
    with its position as its id."""
    return History([make_event(i, kind, kind.value, (parent, block), p, t)
                    for i, (kind, p, t, parent, block) in enumerate(rows)], correct=correct)


# a1 reaches every correct process under b0 but not under c1: judging one
# message per block, not per (parent, block), would miss the second
REACHED_THEN_NOT = messages_history(
    [(SEND, "p", 0, "b0", "a1"), (RECV, "p", 0, "b0", "a1"), (UPD, "p", 0, "b0", "a1"),
     (RECV, "q", 1, "b0", "a1"),
     (SEND, "p", 2, "c1", "a1"), (RECV, "p", 2, "c1", "a1"), (UPD, "p", 2, "c1", "a1")],
    {"p", "q"})
# q originates a1; p is the first to name it under c1, and applies it unreceived
FOREIGN_UNDER_ANOTHER_PARENT = messages_history(
    [(SEND, "q", 0, "b0", "a1"), (UPD, "p", 1, "c1", "a1")], {"p", "q"})


@settings(max_examples=150, deadline=None)
@given(h=event_streams(), restrict=st.booleans())
@example(h=REACHED_THEN_NOT, restrict=False)
@example(h=FOREIGN_UNDER_ANOTHER_PARENT, restrict=False)
def test_checkers_agree_on_raw_event_streams(h, restrict):
    assert_agree(h.restricted() if restrict else h)


# -- presets and a golden generated run -----------------------------------------------


@pytest.mark.parametrize("name", preset_names())
def test_checkers_agree_on_presets(name):
    run = run_scenario(preset(name))
    assert_agree(run.history)
    assert_agree(run.full_history)


# The reference's eventual prefix and update agreement scan pairs of reads
# and of updates with a linear test each: on the duration-2000 runs they take
# 15-116 s, so there those two (and ec, which contains eventual prefix) are
# left to the duration-1000 run and the random inputs.
SLOW = ("eventual-prefix", "update-agreement")


def assert_agree_on_large(h, window, names):
    """Each named base criterion once, and each composite whose parts are all
    named through those parts: the reference takes seconds per criterion at
    this size."""
    parts = {name: reference.CHECKERS[name](h, window) for name in names}
    for name in names:
        assert checkers.CHECKERS[name](h, window) == parts[name], name
    for name, needs in COMPOSITE.items():
        if all(n in parts for n in needs):
            want = reference.conjunction(name, [parts[n] for n in needs])
            assert checkers.CHECKERS[name](h, window) == want, name


@pytest.mark.parametrize("name", GENERATED)
def test_checkers_agree_on_golden_generated_runs(name):
    scenario = scenario_from_dict(GENERATED[name])
    slow = SLOW if scenario.duration > 1000 else ()
    assert_agree_on_large(run_scenario(scenario).history, scenario.window(),
                          [n for n in BASE if n not in slow])
