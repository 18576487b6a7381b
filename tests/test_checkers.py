"""Criterion checkers: three-valued verdicts, witnesses, window semantics."""

import inspect
import random

import pytest

from btlab import checkers
from btlab.checkers import (DEFAULT_WINDOW, Status, Verdict, check_block_validity,
                            check_ec, check_eventual_prefix, check_ever_growing_tree,
                            check_local_monotonic_read, check_lrc, check_sc,
                            check_strong_prefix, check_update_agreement,
                            run_checker)
import reference_checkers as reference
from btlab.history import EventKind, History, TraceError, make_event, returned_chain
from btlab.netsim import preset, run_scenario, scenario_from_dict

INV, RSP = EventKind.INVOCATION, EventKind.RESPONSE
SEND, RECV, UPD = EventKind.SEND, EventKind.RECEIVE, EventKind.UPDATE

W1 = 1


def ev(event_id, kind, op, process, t, args=(), returned=None):
    return make_event(event_id, kind, op, args=args, process=process,
                      logical_time=t, returned=returned)


def reads_history(spans, appends=(), comms=(), complete=True, correct=None):
    """spans: (process, inv_t, rsp_t, chain); appends: (block, parent, t, proc)."""
    events = []
    for block, parent, t, proc in appends:
        events.append(ev(len(events), INV, "append", proc, t, args=(block, parent)))
    for proc, inv_t, rsp_t, chain in spans:
        events.append(ev(len(events), INV, "read", proc, inv_t))
        events.append(ev(len(events), RSP, "read", proc, rsp_t, returned=tuple(chain)))
    for kind, proc, t, parent, block in comms:
        events.append(ev(len(events), kind, kind.value, proc, t, args=(parent, block)))
    return History(events, correct=correct, complete=complete)


# -- block validity ------------------------------------------------------------


def test_read_of_never_appended_block_fails_validity():
    h = reads_history([("p", 1, 2, ("b0", "ghost"))])
    v = check_block_validity(h)
    assert v.status == Status.FAIL
    assert "ghost" in v.detail
    assert len(v.witness) == 1


def test_appended_blocks_satisfy_validity_and_genesis_is_exempt():
    h = reads_history([("p", 5, 6, ("b0", "x"))],
                      appends=[("x", "b0", 1, "q")])
    assert check_block_validity(h).status == Status.PASS


def test_same_process_append_at_same_tick_counts_as_prior():
    h = History([ev(0, INV, "append", "p", 3, args=("x", "b0")),
                 ev(1, INV, "read", "p", 3),
                 ev(2, RSP, "read", "p", 3, returned=("b0", "x"))])
    assert check_block_validity(h).status == Status.PASS


def test_read_before_any_append_of_the_block_fails():
    h = reads_history([("p", 1, 2, ("b0", "x"))],
                      appends=[("x", "b0", 9, "q")])
    assert check_block_validity(h).status == Status.FAIL


def test_a_read_that_leaves_its_process_chain_is_checked_whole():
    # only the ids beyond a read's previous chain are new; a chain that does
    # not extend it is new in full, and the first failing read is the witness
    h = reads_history([("p", 1, 2, ("b0", "x")), ("q", 1, 2, ("b0", "x")),
                       ("q", 3, 4, ("b0", "x", "y")), ("p", 5, 6, ("b0", "ghost")),
                       ("q", 7, 8, ("b0", "x", "y", "ghost"))],
                      appends=[("x", "b0", 0, "r"), ("y", "x", 0, "r")])
    v = check_block_validity(h)
    assert v.status == Status.FAIL and "ghost" in v.detail
    assert h.event(v.witness[0]).process == "p"


# -- local monotonic read -----------------------------------------------------------


def test_score_drop_at_one_process_fails_with_adjacent_witness():
    h = reads_history([
        ("p", 0, 1, ("b0", "a", "b")),
        ("p", 2, 3, ("b0", "a")),
        ("q", 0, 1, ("b0",)),
    ])
    v = check_local_monotonic_read(h)
    assert v.status == Status.FAIL
    assert len(v.witness) == 2          # the two adjacent reads, nothing more
    assert h.event(v.witness[0]).process == h.event(v.witness[1]).process == "p"


def test_cross_process_score_drops_are_fine():
    h = reads_history([
        ("p", 0, 1, ("b0", "a", "b")),
        ("q", 2, 3, ("b0",)),
    ])
    assert check_local_monotonic_read(h).status == Status.PASS


# -- strong prefix --------------------------------------------------------------------


def test_diverging_reads_fail_strong_prefix_with_two_read_witness():
    h = reads_history([
        ("p", 0, 1, ("b0", "a")),
        ("q", 2, 3, ("b0", "z")),
    ])
    v = check_strong_prefix(h)
    assert v.status == Status.FAIL
    assert len(v.witness) == 2


def test_nested_reads_pass_strong_prefix_across_processes():
    h = reads_history([
        ("p", 0, 1, ("b0", "a")),
        ("q", 2, 3, ("b0", "a", "b")),
        ("p", 4, 5, ("b0", "a", "b", "c")),
    ])
    assert check_strong_prefix(h).status == Status.PASS


@pytest.mark.parametrize("spans, times", [
    ([("p", 0, 1, ("b0", "a")), ("q", 2, 3, ("b0", "z")), ("p", 4, 5, ("b0", "y"))], [1, 3]),
    # the first offending chain is read again, an empty read sits between the
    # offending pair, and the chain it diverges from is read again later
    ([("p", 0, 1, ("b0", "a")), ("q", 0, 2, ("b0", "a")), ("r", 0, 3, ()),
      ("q", 4, 5, ("b0", "z")), ("p", 6, 7, ("b0", "a")), ("p", 8, 9, ("b0", "z"))], [1, 5]),
    # the first read agrees with every later one; a re-read of it and an
    # empty read come before the second read's offender
    ([("p", 0, 1, ("b0", "a")), ("q", 2, 3, ("b0", "a", "b")), ("p", 4, 5, ("b0", "a")),
      ("r", 6, 7, ()), ("r", 8, 9, ("b0", "a", "c")), ("q", 10, 11, ("b0", "a", "b"))],
     [3, 9]),
])
def test_strong_prefix_witness_is_the_earliest_offending_pair(spans, times):
    h = reads_history(spans)
    v = check_strong_prefix(h)
    assert v == reference.check_strong_prefix(h)
    assert [h.event(i).logical_time for i in v.witness] == times


# -- ever growing tree ------------------------------------------------------------------


def test_growing_scores_pass():
    h = reads_history([
        ("p", 0, 1, ("b0",)),
        ("p", 2, 3, ("b0", "a")),
        ("q", 4, 5, ("b0", "a", "b")),
    ], appends=[("a", "b0", 0, "p"), ("b", "a", 0, "p")])
    assert check_ever_growing_tree(h, W1).status == Status.PASS


def test_stalled_window_read_is_inconclusive_never_fail():
    h = reads_history([
        ("p", 0, 1, ("b0", "a")),
        ("p", 2, 3, ("b0", "a")),       # window read, still at score 2
    ], complete=True)
    v = check_ever_growing_tree(h, W1)
    assert v.status == Status.INCONCLUSIVE      # even on a complete history
    assert len(v.witness) == 2


def test_window_reads_are_not_references():
    # the last read of each process may stall without any verdict impact
    h = reads_history([
        ("p", 0, 1, ("b0", "a")),
        ("p", 2, 3, ("b0", "a", "b")),
        ("q", 4, 5, ("b0", "a", "b")),  # same score as p's last: both in window
    ])
    assert check_ever_growing_tree(h, W1).status == Status.PASS


def test_wider_window_turns_pass_into_inconclusive():
    # scores 2,3,3,4: the 3->3 stall sits inside a width-2 window but is
    # papered over by the final growth when the window is just the last read
    h = reads_history([
        ("p", 0, 1, ("b0", "a")),
        ("p", 2, 3, ("b0", "a", "b")),
        ("p", 4, 5, ("b0", "a", "b")),
        ("p", 6, 7, ("b0", "a", "b", "c")),
    ])
    assert check_ever_growing_tree(h, W1).status == Status.PASS
    assert check_ever_growing_tree(h, 2).status == \
        Status.INCONCLUSIVE


# -- eventual prefix ---------------------------------------------------------------------


def fork_spans(heals: bool):
    tail_q = ("b0", "x", "y", "z") if heals else ("b0", "q1", "q2", "q3")
    return [
        ("p", 0, 1, ("b0", "x")),
        ("q", 2, 3, ("b0", "q1")),
        ("p", 4, 5, ("b0", "x", "y", "z")),
        ("q", 6, 7, tail_q),
    ]


def auto_appends(spans):
    """One append invocation (by a bystander, before any read) per block id."""
    ids = []
    for _, _, _, chain in spans:
        for block_id in chain:
            if block_id != "b0" and block_id not in ids:
                ids.append(block_id)
    return [(block_id, "b0", 0, "w") for block_id in ids]


def test_healed_fork_passes_eventual_prefix():
    h = reads_history(fork_spans(heals=True))
    assert check_eventual_prefix(h, W1).status == Status.PASS


def test_persistent_fork_is_inconclusive_until_history_is_complete():
    h_open = reads_history(fork_spans(heals=False), complete=False)
    h_done = reads_history(fork_spans(heals=False), complete=True)
    assert check_eventual_prefix(h_open, W1).status == Status.INCONCLUSIVE
    assert check_eventual_prefix(h_done, W1).status == Status.FAIL


def test_eventual_prefix_witness_names_reference_and_window_pair():
    h = reads_history(fork_spans(heals=False), complete=True)
    v = check_eventual_prefix(h, W1)
    assert len(v.witness) == 3
    ref, a, b = (h.event(i) for i in v.witness)
    assert {a.process, b.process} == {"p", "q"}


def test_divergence_below_reference_score_only_counts():
    # window reads agree exactly up to score 2; a reference read with score 2
    # is satisfied, a reference with score 3 is not
    spans = [
        ("p", 0, 1, ("b0", "x")),
        ("q", 2, 3, ("b0", "x", "a", "c")),
        ("p", 4, 5, ("b0", "x", "b", "d")),
    ]
    h = reads_history(spans, complete=True)
    assert check_eventual_prefix(h, W1).status == Status.PASS
    spans[0] = ("p", 0, 1, ("b0", "x", "a"))
    h = reads_history(spans, complete=True)
    assert check_eventual_prefix(h, W1).status == Status.FAIL


def test_eventual_prefix_walks_each_after_set_once(monkeypatch):
    # W1: the window reads are wp, wq and wr. Reference a (score 1) precedes
    # all three; reference b (score 2) responds after wr was invoked, so its
    # after set is {wp, wq}, whose one pair agrees only up to score 1.
    spans = [
        ("p", 0, 1, ("b0",)),                       # a
        ("p", 6, 7, ("b0", "a1")),                  # b
        ("p", 10, 11, ("b0", "a1", "a2")),          # wp
        ("q", 10, 11, ("b0", "c1")),                # wq
        ("r", 5, 20, ("b0", "a1")),                 # wr
    ]
    h = reads_history(spans, complete=True)
    mcps_calls = counting(monkeypatch, checkers, "mcps")
    v = check_eventual_prefix(h, W1)
    assert v == reference.check_eventual_prefix(h, W1)
    assert v.status == Status.FAIL and v.witness == (3, 5, 7)
    # a set of k chains costs k - 1 calls: 2 for the floor, which is a's after
    # set, 1 for b's; b's set falls below its score, so its pairs are scanned
    # for the witness: 1 more
    assert len(mcps_calls) == 2 + 1 + 1


def test_eventual_prefix_tells_after_sets_of_one_size_apart():
    # all at one tick, so only a process's own later reads follow a reference:
    # a's after set is p's window reads, b's is q's; only q's pair diverges
    spans = [("p", 0, 0, ("b0",)), ("q", 0, 0, ("b0", "x")),
             ("p", 0, 0, ("b0", "a1", "a2")), ("p", 0, 0, ("b0", "a1", "a2", "a3")),
             ("q", 0, 0, ("b0", "c1")), ("q", 0, 0, ("b0", "a1", "a2"))]
    h = reads_history(spans, complete=True)
    v = check_eventual_prefix(h, 2)
    assert v == reference.check_eventual_prefix(h, 2)
    assert v.status == Status.FAIL and v.witness == (3, 9, 11)


def test_eventual_prefix_witness_is_the_first_pair_below_the_score():
    # the first window pair agrees exactly up to the reference's score 2
    h = reads_history([("p", 0, 1, ("b0", "a1")), ("p", 4, 5, ("b0", "a1", "a2")),
                       ("q", 4, 6, ("b0", "a1", "c2")), ("r", 4, 7, ("b0", "d1"))],
                      complete=True)
    v = check_eventual_prefix(h, W1)
    assert v == reference.check_eventual_prefix(h, W1)
    assert v.witness == (1, 3, 7)


def test_eventual_prefix_after_set_of_a_reference_between_two_cuts():
    # W1. Of p's references, wq (invoked at 3) follows only r0, and wu
    # (invoked at 10) follows r0 and r1: r1's after set is {wp, wu}, a strict
    # part of r0's, and its pair agrees only below r1's score 3
    spans = [
        ("p", 0, 1, ("b0",)),                       # r0
        ("p", 4, 5, ("b0", "a1", "a2")),            # r1
        ("p", 20, 21, ("b0", "a1", "a2", "a3")),    # wp
        ("q", 3, 30, ("b0", "d1")),                 # wq
        ("u", 10, 31, ("b0", "a1", "c2")),          # wu
    ]
    h = reads_history(spans, complete=True)
    v = check_eventual_prefix(h, W1)
    assert v == reference.check_eventual_prefix(h, W1)
    assert v.status == Status.FAIL
    assert [h.event(i).logical_time for i in v.witness] == [5, 21, 31]


def test_eventual_prefix_floor_leaves_out_a_window_read_no_reference_precedes(monkeypatch):
    # W1. q's one read is invoked before p's first responds, so no reference
    # precedes it: the floor is the agreement of wp alone, which every
    # reference meets, and every lookup starts at p's first reference
    spans = [
        ("p", 0, 1, ("b0", "a1")),                  # r0
        ("p", 2, 3, ("b0", "a1", "a2")),            # r1
        ("p", 4, 5, ("b0", "a1", "a2", "a3")),      # wp
        ("q", 0, 50, ("b0", "c1")),                 # wq
    ]
    h = reads_history(spans, complete=True)
    expected = reference.check_eventual_prefix(h, W1)
    looked_up = po_starts(monkeypatch)
    v = check_eventual_prefix(h, W1)
    assert v == expected and v.status == Status.PASS
    assert looked_up and set(looked_up) == {h.reads_of("p")[0].response.event_id}


def test_a_read_rooted_at_another_genesis_is_refused():
    with pytest.raises(TraceError, match=r"start at genesis 'b0', got \('x0',\) \(event 3\)"):
        reads_history([("p", 0, 1, ("b0", "a1")), ("q", 2, 3, ("x0",))])


# -- update agreement ----------------------------------------------------------------------


def comm(kind, proc, t, block="x", parent="b0"):
    return (kind, proc, t, parent, block)


def test_full_broadcast_round_passes():
    h = reads_history([], comms=[
        comm(SEND, "i", 1), comm(UPD, "i", 2),
        comm(RECV, "i", 6), comm(RECV, "j", 7), comm(RECV, "k", 8),
        comm(UPD, "j", 9), comm(UPD, "k", 10),
    ], complete=True)
    assert check_update_agreement(h).status == Status.PASS


def test_originator_may_update_before_receiving_its_own_block():
    h = reads_history([], comms=[
        comm(SEND, "i", 1), comm(UPD, "i", 2),
        comm(RECV, "i", 3), comm(RECV, "j", 4), comm(UPD, "j", 5),
    ], complete=True, correct={"i", "j"})
    assert check_update_agreement(h).status == Status.PASS


def test_foreign_update_without_prior_receive_fails_immediately():
    h = reads_history([], comms=[
        comm(SEND, "i", 1), comm(UPD, "i", 2),
        comm(UPD, "j", 3),                      # j never received x
        comm(RECV, "i", 4), comm(RECV, "j", 5),
    ], complete=False)                           # FAIL even while open: safety
    v = check_update_agreement(h)
    assert v.status == Status.FAIL
    assert v.detail.startswith("R2")
    assert h.event(v.witness[0]).process == "j"


def test_receive_after_the_update_does_not_excuse_it():
    h = reads_history([], comms=[
        comm(SEND, "i", 1), comm(UPD, "i", 2),
        comm(UPD, "j", 3), comm(RECV, "j", 9),
    ], complete=True, correct={"i", "j"})
    assert check_update_agreement(h).status == Status.FAIL


def test_update_never_broadcast_is_inconclusive_then_fail():
    comms = [comm(UPD, "i", 2), comm(RECV, "i", 3), comm(RECV, "j", 4),
             comm(UPD, "j", 5)]
    h_open = reads_history([], comms=comms, complete=False, correct={"i", "j"})
    h_done = reads_history([], comms=comms, complete=True, correct={"i", "j"})
    assert check_update_agreement(h_open).status == Status.INCONCLUSIVE
    assert check_update_agreement(h_open).detail.startswith("R1")
    assert check_update_agreement(h_done).status == Status.FAIL


def test_update_not_received_everywhere_is_r3():
    comms = [comm(SEND, "i", 1), comm(UPD, "i", 2),
             comm(RECV, "i", 3), comm(RECV, "j", 4), comm(UPD, "j", 5)]
    h_open = reads_history([], comms=comms, complete=False,
                           correct={"i", "j", "k"})
    h_done = reads_history([], comms=comms, complete=True,
                           correct={"i", "j", "k"})
    assert check_update_agreement(h_open).status == Status.INCONCLUSIVE
    v = check_update_agreement(h_done)
    assert v.status == Status.FAIL
    assert v.detail.startswith("R3") and "k" in v.detail


def test_r3_judges_each_parent_of_a_block_apart():
    # x is received everywhere under b0, but j's update of x under y reaches
    # only j: that update is the witness
    h = reads_history([], comms=[
        comm(SEND, "i", 1), comm(UPD, "i", 2), comm(RECV, "i", 3),
        comm(RECV, "j", 4), comm(UPD, "j", 5),
        (RECV, "j", 6, "y", "x"), (UPD, "j", 7, "y", "x"),
    ], complete=True, correct={"i", "j"})
    v = check_update_agreement(h)
    assert v.status == Status.FAIL and v.detail.startswith("R3") and "i" in v.detail
    assert h.event(v.witness[0]).args == ("y", "x")


# -- reliable broadcast -------------------------------------------------------------------


def test_lrc_validity_requires_self_delivery():
    comms = [comm(SEND, "i", 1), comm(RECV, "j", 2)]
    h_done = reads_history([], comms=comms, complete=True, correct={"i", "j"})
    v = check_lrc(h_done)
    assert v.status == Status.FAIL and "validity" in v.detail


def test_lrc_agreement_requires_all_correct_deliveries():
    comms = [comm(SEND, "i", 1), comm(RECV, "i", 2), comm(RECV, "j", 3)]
    h = reads_history([], comms=comms, complete=True, correct={"i", "j", "k"})
    v = check_lrc(h)
    assert v.status == Status.FAIL and "agreement" in v.detail and "k" in v.detail
    h_all = reads_history([], comms=comms + [comm(RECV, "k", 4)],
                          complete=True, correct={"i", "j", "k"})
    assert check_lrc(h_all).status == Status.PASS


def test_lrc_witness_is_the_first_correct_receive_of_the_unreached_pair():
    # x under b0 reaches every correct process; x under y is received over and
    # over, first at byzantine z, but never at k
    comms = [comm(SEND, "i", 1), comm(RECV, "i", 2), comm(RECV, "j", 3), comm(RECV, "k", 4),
             comm(SEND, "j", 5, parent="y"), comm(RECV, "z", 6, parent="y")]
    comms += [comm(RECV, p, t, parent="y") for t, p in enumerate("jiijji", start=7)]
    h = reads_history([], comms=comms, complete=True, correct={"i", "j", "k"})
    v = check_lrc(h)
    assert v == reference.check_lrc(h)
    first = next(e for e in h.events if e.kind is RECV and e.args == ("y", "x")
                 and e.process != "z")
    assert v.status == Status.FAIL and v.witness == (first.event_id,)
    assert v.detail == "agreement: 'x' reached j but not k"


def test_lrc_ignores_byzantine_processes():
    comms = [comm(SEND, "z", 1)]                 # z never self-delivers
    h = reads_history([], comms=comms, complete=True, correct={"i"})
    assert check_lrc(h).status == Status.PASS


def test_communication_with_fewer_than_two_args_names_no_block():
    # a send never delivered and an update never sent or received would each
    # fail a complete history, but without (parent, block) they are no message
    h = History([ev(0, SEND, "send", "i", 1, args=("x",)),
                 ev(1, UPD, "update", "j", 2, args=("b0",)),
                 ev(2, RECV, "receive", "k", 3)], complete=True)
    m = h.messages
    assert (m.sends, m.receives, m.updates) == ((), (), ())
    assert not (m.first_receive or m.sent or m.origin)
    assert check_lrc(h).status == check_update_agreement(h).status == Status.PASS


# -- composite criteria and the hierarchy ---------------------------------------------------


def test_empty_history_passes_everything_vacuously():
    h = History([])
    for name in ("sc", "ec", "strong-prefix", "eventual-prefix",
                 "ever-growing-tree", "block-validity", "local-monotonic-read",
                 "update-agreement", "lrc"):
        assert run_checker(name, h, DEFAULT_WINDOW).status == Status.PASS


def test_composite_fail_beats_inconclusive_beats_pass():
    # diverging window reads on an open history: strong prefix FAIL while
    # eventual prefix is only INCONCLUSIVE
    spans = fork_spans(heals=False)
    h = reads_history(spans, appends=auto_appends(spans), complete=False)
    assert check_strong_prefix(h).status == Status.FAIL
    assert check_sc(h, W1).status == Status.FAIL
    assert check_ec(h, W1).status == Status.INCONCLUSIVE
    assert check_ec(h, W1).parts["eventual-prefix"].status == Status.INCONCLUSIVE


def test_sc_composite_reports_parts():
    spans = fork_spans(heals=True)
    h = reads_history(spans, appends=auto_appends(spans))
    v = check_sc(h, W1)
    assert set(v.parts) == {"block-validity", "local-monotonic-read",
                            "strong-prefix", "ever-growing-tree"}


def test_a_verdict_reads_as_its_criterion_status_witness_and_detail():
    assert str(Verdict("lrc", Status.PASS)) == "lrc: PASS"
    h = run_scenario(preset("fork-strong-violation")).history
    assert str(check_sc(h, DEFAULT_WINDOW)) == (
        "sc: FAIL witness=[23, 25] (strong-prefix failed: b0/p1-1 vs b0/p0-1)")


def test_each_criterion_is_judged_once_per_history_and_window():
    spans = fork_spans(heals=False)
    h = reads_history(spans, appends=auto_appends(spans), complete=True)
    growing = check_ever_growing_tree(h)
    assert growing is check_ever_growing_tree(h, DEFAULT_WINDOW)
    assert growing is check_ever_growing_tree(h, window=DEFAULT_WINDOW)
    assert check_ever_growing_tree(h, W1) is not growing
    sc, ec = check_sc(h, W1), check_ec(h, W1)
    for name in ("block-validity", "local-monotonic-read", "ever-growing-tree"):
        assert sc.parts[name] is ec.parts[name]
    assert sc.parts["strong-prefix"] is check_strong_prefix(h)
    assert ec.parts["eventual-prefix"] is check_eventual_prefix(h, W1)
    assert check_block_validity(h) is check_block_validity(h, W1)
    again = History(h.events, correct=h.correct, complete=h.complete)
    assert check_sc(again, W1) == sc and check_sc(again, W1) is not sc


def test_a_verdict_is_keyed_by_the_window_only_if_its_check_reads_it():
    # btlab check --criterion block-validity --criterion local-monotonic-read
    #             --criterion sc --window 1
    h = run_scenario(preset("figure-4")).history
    alone = {name: run_checker(name, h, W1)
             for name in ("block-validity", "local-monotonic-read")}
    sc = run_checker("sc", h, W1)
    assert set(h.verdict_cache) == {"block-validity", "local-monotonic-read",
                                    "strong-prefix", ("ever-growing-tree", W1), ("sc", W1)}
    for name, verdict in alone.items():
        assert sc.parts[name] is verdict
        assert h.verdict_cache[name] is verdict
    assert h.verdict_cache[("ever-growing-tree", W1)] is sc.parts["ever-growing-tree"]
    for key, verdict in h.verdict_cache.items():
        expected = reference.CHECKERS[key if isinstance(key, str) else key[0]](h, W1)
        assert (verdict.status, verdict.witness) == (expected.status, expected.witness)
    # update-agreement and lrc read no window; one entry each
    for name in ("update-agreement", "lrc"):
        assert run_checker(name, h, W1) is run_checker(name, h)
    assert len(h.verdict_cache) == 7


def test_every_criterion_takes_history_and_window():
    assert DEFAULT_WINDOW == 3
    assert list(checkers.CHECKERS) == [
        "block-validity", "local-monotonic-read", "strong-prefix", "ever-growing-tree",
        "eventual-prefix", "update-agreement", "lrc", "sc", "ec"]
    for name, check in checkers.CHECKERS.items():
        assert check is getattr(checkers, "check_" + name.replace("-", "_"))
        params = inspect.signature(check, follow_wrapped=False).parameters.values()
        assert [(p.name, p.default) for p in params] == [
            ("h", inspect.Parameter.empty), ("window", DEFAULT_WINDOW)], name


def test_a_window_below_one_is_refused_before_any_work():
    spans = fork_spans(heals=False)
    h = reads_history(spans, appends=auto_appends(spans), complete=True)
    check_strong_prefix(h)
    kept = dict(h.verdict_cache)
    for window in (0, -1):
        for judge in (lambda: check_sc(h, window), lambda: check_ever_growing_tree(h, window),
                      lambda: run_checker("ec", h, window)):
            with pytest.raises(ValueError, match=f"window must be at least 1, got {window}"):
                judge()
            assert h.verdict_cache == kept


def test_a_raised_error_is_not_kept(monkeypatch):
    # only eventual prefix compares two chains by their common prefix
    h = reads_history([("p", 0, 1, ("b0", "a1")), ("p", 4, 5, ("b0", "a1", "a2")),
                       ("q", 4, 6, ("b0", "c1"))], complete=True)
    mcps_calls = []

    def incomparable(a, b):
        mcps_calls.append(1)
        raise ValueError("incomparable")
    monkeypatch.setattr(checkers, "mcps", incomparable)
    for _ in range(2):
        with pytest.raises(ValueError, match="incomparable"):
            check_ec(h, W1)
    assert len(mcps_calls) == 2
    assert set(h.verdict_cache) == {"block-validity", "local-monotonic-read",
                                    ("ever-growing-tree", W1)}


def test_unknown_criterion_is_rejected():
    with pytest.raises(KeyError):
        run_checker("no-such-criterion", History([]))


def test_strong_pass_implies_eventual_not_fail_on_random_read_patterns():
    # randomized nested-read histories: whenever sc PASSes, ec must not FAIL
    rng = random.Random(2026)
    seen_sc_pass = 0
    for _ in range(300):
        chain = ["b0"]
        spans = []
        t = 0
        for i in range(rng.randint(2, 8)):
            if rng.random() < 0.6:
                chain.append(f"n{i}")
            proc = rng.choice(["p", "q"])
            spans.append((proc, t, t + 1, tuple(chain)))
            t += 2
        h = reads_history(spans, appends=auto_appends(spans),
                          complete=bool(rng.getrandbits(1)))
        window = rng.choice([1, 2, 3])
        sc = check_sc(h, window)
        ec = check_ec(h, window)
        assert not (sc.status == Status.PASS and ec.status == Status.FAIL)
        if sc.status == Status.PASS:
            seen_sc_pass += 1
            assert ec.status == Status.PASS
    assert seen_sc_pass > 0


# -- cost bounds of the indexed checkers ------------------------------------------------


def cap1_history():
    """A single-chain run, as `btlab check --complete` sees it: every pair of
    reads is prefix-comparable, so strong and eventual prefix scan to the end."""
    doc = {"version": 1, "name": "cap1-4p",
           "processes": [{"id": f"p{i}", "merit": 1.0, "block_interval": 10,
                          "read_interval": 7} for i in range(4)],
           "channel": {"kind": "synchronous", "delta": 3},
           "oracle": {"capacity": 1, "seed": 5}, "seed": 6, "duration": 250}
    full = run_scenario(scenario_from_dict(doc)).full_history
    return History(full.events, correct=set(full.processes), complete=True).restricted()


def counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)
    return calls


def po_starts(monkeypatch):
    """The event each `History.po` lookup starts from, in call order."""
    starts = []
    po = History.po

    def recording(self, a, b):
        starts.append(a.event_id)
        return po(self, a, b)
    monkeypatch.setattr(History, "po", recording)
    return starts


def test_indexed_checkers_stay_within_their_call_bounds(monkeypatch):
    h = cap1_history()
    reads = h.reads()
    window = DEFAULT_WINDOW
    w = sum(min(len(h.reads_of(p)), window) for p in h.processes)
    refs = len(reads) - w
    assert refs > 10 * w                          # the bounds below are not vacuous
    mcps_calls = counting(monkeypatch, checkers, "mcps")
    comparable_calls = counting(monkeypatch, checkers, "prefix_comparable")
    po_calls = counting(monkeypatch, History, "po")

    assert check_eventual_prefix(h, window).status == Status.PASS
    assert len(mcps_calls) <= w * (w - 1) // 2    # once per unordered window pair
    assert len(po_calls) <= w                     # one floor lookup per window read

    po_calls.clear()
    check_ever_growing_tree(h, window)
    assert len(po_calls) <= refs * w

    assert check_strong_prefix(h).status == Status.PASS
    assert not comparable_calls                   # one pass against the longest chain


def test_ever_growing_tree_looks_up_no_order_for_a_reference_below_the_window(monkeypatch):
    h = cap1_history()
    lowest = min(len(returned_chain(o))
                 for p in h.processes for o in h.reads_of(p)[-DEFAULT_WINDOW:])
    assert any(len(returned_chain(r)) < lowest for r in h.reads())
    scores = {r.response.event_id: len(returned_chain(r)) for r in h.reads()}
    looked_up = po_starts(monkeypatch)
    check_ever_growing_tree(h, DEFAULT_WINDOW)
    assert looked_up and all(scores[i] >= lowest for i in looked_up)


def test_strong_prefix_on_a_forked_run_compares_each_pair_of_chains_at_most_once(
        monkeypatch):
    # 4 prodigal processes at merit 0.02 fork: strong prefix fails
    doc = {"version": 1, "name": "forked", "duration": 150, "seed": 5,
           "processes": [{"id": f"p{i}", "merit": 0.02, "block_interval": 10,
                          "read_interval": 7} for i in range(4)],
           "oracle": {"capacity": None, "seed": 5}}
    h = run_scenario(scenario_from_dict(doc)).history
    chains = [returned_chain(r) for r in h.reads()]
    distinct = len(set(filter(None, chains)))
    comparable_calls = counting(monkeypatch, checkers, "prefix_comparable")
    v = check_strong_prefix(h)
    assert v.status == Status.FAIL and v == reference.check_strong_prefix(h)
    assert distinct > 1 and len(comparable_calls) <= distinct * (distinct - 1) // 2


def test_judging_all_nine_criteria_stays_within_the_call_bounds(monkeypatch):
    # sc and ec reuse the standalone criteria judged on the same history
    h = cap1_history()
    w = sum(min(len(h.reads_of(p)), DEFAULT_WINDOW)
            for p in h.processes)
    mcps_calls = counting(monkeypatch, checkers, "mcps")
    comparable_calls = counting(monkeypatch, checkers, "prefix_comparable")
    for name in checkers.CHECKERS:
        run_checker(name, h, DEFAULT_WINDOW)
    assert len(mcps_calls) <= w * (w - 1) // 2
    assert not comparable_calls
