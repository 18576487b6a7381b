"""A restriction is the history of its restricted events.

`History.restricted()` takes its operations from its parent's instead of
sorting and matching the kept events again. Whatever the parent, the result
must equal `History(restrict(h.events, h.correct), ...)` in events,
processes, correct set, completeness, operations and every verdict; so must
the restriction of the restriction, and all three share the parent's line
memo. Its operations are the parent's, not rebuilt: each read the same
`Operation`, each kept append holding the same invocation event. Inputs: one fixed history under every correct set, random histories
(any op name, invalid appends, open operations, nested args) under random
correct sets, and simulated runs with Byzantine processes.

A simulated run builds its full history from its events and operations as
it records them, and its restricted history as that history's restriction,
with nothing sorted, checked or matched; both must equal the histories the
checking constructor builds from the run's events, on every preset and on
random scenarios.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from btlab.checkers import CHECKERS  # noqa: E402
from btlab.history import EventKind, History, make_event, restrict  # noqa: E402
from btlab.netsim import preset, preset_names, run_scenario, scenario_from_dict  # noqa: E402
from strategies import scenarios  # noqa: E402
from test_codec_equivalence import histories  # noqa: E402


def verdicts(h):
    """All nine criteria at windows 1 and 3, or the error each one raised."""
    out = []
    for name in CHECKERS:
        for window in (1, 3):
            try:
                out.append(CHECKERS[name](h, window))
            except Exception as exc:
                out.append(("raises", type(exc), str(exc)))
    return out


def assert_same_history(got, want):
    assert got.events == want.events
    assert got.processes == want.processes
    assert got.correct == want.correct
    assert got.complete == want.complete
    assert got.operations == want.operations


def assert_restricts_as_rebuilt(h):
    rebuilt = History(restrict(h.events, h.correct), correct=h.correct, complete=h.complete)
    once = h.restricted()
    for r in (once, once.restricted()):
        assert_same_history(r, rebuilt)
        assert r.line_memo is h.line_memo
        assert verdicts(r) == verdicts(rebuilt)


def assert_derived(restriction, parent):
    """Each operation of `restriction` is taken from `parent`'s, not rebuilt:
    a read is its parent's operation, a kept append holds its parent's
    invocation."""
    of = {o.invocation.event_id: o for o in parent.operations}
    for o in restriction.operations:
        if o.op == "read":
            assert o is of[o.invocation.event_id]
        else:
            assert o.op == "append" and o.invocation is of[o.invocation.event_id].invocation


INV, RSP = EventKind.INVOCATION, EventKind.RESPONSE


def fixed_history(correct, complete):
    # reads at both processes, one still open; valid, flagless and invalid
    # appends with responses; oracle chatter; and communication
    return History([
        make_event(0, INV, "read", (), "p", 0),
        make_event(1, RSP, "read", (), "p", 1, ["b0"]),
        make_event(2, INV, "append", ("x", "b0", True), "q", 1),
        make_event(3, INV, "append", ("y", "b0", False), "q", 1),
        make_event(4, INV, "append", ("z", "b0"), "p", 2),
        make_event(5, RSP, "append", (), "q", 2, True),
        make_event(6, RSP, "append", (), "q", 3, False),
        make_event(7, INV, "get_token", ("x",), "q", 3),
        make_event(8, RSP, "get_token", (), "q", 4, "x"),
        make_event(9, EventKind.SEND, "send", ("b0", "x"), "q", 4),
        make_event(10, EventKind.RECEIVE, "receive", ("b0", "x"), "p", 5),
        make_event(11, INV, "read", (), "q", 6),
        make_event(12, RSP, "read", (), "q", 6, ["b0", "x"]),
        make_event(13, INV, "read", (), "p", 7),
    ], correct=correct, complete=complete)


@pytest.mark.parametrize("complete", [False, True])
@pytest.mark.parametrize("correct", [{"p", "q"}, {"p"}, {"q"}, set()])
def test_a_restriction_keeps_the_operations_matching_would(correct, complete):
    assert_restricts_as_rebuilt(fixed_history(correct, complete))


@settings(max_examples=200, deadline=None)
@given(h=histories(), data=st.data())
def test_a_restriction_equals_the_history_of_its_events(h, data):
    correct = data.draw(st.sets(st.sampled_from(h.processes)) if h.processes
                        else st.just(set()))
    assert_restricts_as_rebuilt(History(h.events, correct=correct,
                                        complete=data.draw(st.booleans())))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=scenarios(), complete=st.booleans())
def test_a_restriction_of_a_simulated_run_equals_the_history_of_its_events(doc, complete):
    doc["declared_complete"] = complete
    run = run_scenario(scenario_from_dict(doc))
    assert_restricts_as_rebuilt(run.full_history)


def assert_built_as_checked(run):
    correct, complete = run.scenario.correct_set(), run.scenario.declared_complete
    assert_same_history(run.full_history, History(run.full_history.events, correct, complete))
    assert_same_history(run.history, History(restrict(run.full_history.events, correct), correct, complete))


@pytest.mark.parametrize("name", preset_names())
def test_a_preset_run_builds_the_histories_its_events_give(name):
    assert_built_as_checked(run_scenario(preset(name)))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=scenarios(), complete=st.booleans())
def test_a_simulated_run_builds_the_histories_its_events_give(doc, complete):
    doc["declared_complete"] = complete
    assert_built_as_checked(run_scenario(scenario_from_dict(doc)))


@pytest.mark.parametrize("correct", [{"p", "q"}, {"p"}, {"q"}, set()])
def test_a_restriction_takes_its_operations_from_its_parent(correct):
    h = fixed_history(correct, False)
    restriction = h.restricted()
    assert_derived(restriction, h)
    # the valid and the flagless append, and every read at a correct process
    reads = {0: "p", 11: "q", 13: "p"}              # invocation id -> process
    assert [o.invocation.event_id for o in restriction.operations] == sorted(
        [2, 4] + [i for i, p in reads.items() if p in correct])


@pytest.mark.parametrize("name", preset_names())
def test_a_preset_restriction_takes_its_operations_from_its_parent(name):
    run = run_scenario(preset(name))
    assert_derived(run.history, run.full_history)
