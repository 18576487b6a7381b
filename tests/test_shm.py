"""Shared-memory lab: interleaving enumeration, reductions, consensus."""

import math
import random

from btlab.blocktree import Block
from btlab.oracle import Merit, frugal_oracle
from btlab.shm import (CrashSchedule, Proposer, ProposerPhase, RegisterSpace,
                       cas_via_consume, cas_via_consume_steps,
                       consume_via_snapshot_steps, interleavings,
                       run_consensus, run_interleaving)


# -- registers -----------------------------------------------------------------


def test_cas_installs_only_on_match_and_returns_previous():
    space = RegisterSpace({"r": frozenset()})
    assert space.cas("r", frozenset(), frozenset({"a"})) == frozenset()
    assert space.read("r") == frozenset({"a"})
    assert space.cas("r", frozenset(), frozenset({"b"})) == frozenset({"a"})
    assert space.read("r") == frozenset({"a"})          # loser changed nothing


def test_scan_reads_many_registers_in_one_step():
    space = RegisterSpace()
    space.write("x", 1)
    space.write("y", 2)
    assert space.scan(["x", "y", "z"]) == (1, 2, None)


# -- interleaving enumeration ------------------------------------------------------


def test_interleavings_enumerates_all_merge_orders_exactly_once():
    for lengths in [(2, 2), (2, 2, 2), (1, 3), (4,)]:
        orders = list(interleavings(lengths))
        total = sum(lengths)
        expected = math.factorial(total)
        for n in lengths:
            expected //= math.factorial(n)
        assert len(orders) == expected
        assert len(set(orders)) == len(orders)
        for order in orders:
            assert sorted(order) == sorted(
                i for i, n in enumerate(lengths) for _ in range(n))


def test_run_interleaving_steps_each_caller_in_its_own_order():
    trace = []
    steps = [[lambda: trace.append("a1"), lambda: trace.append("a2")],
             [lambda: trace.append("b1"), lambda: trace.append("b2")]]
    run_interleaving((0, 1, 1, 0), steps)
    assert trace == ["a1", "b1", "b2", "a2"]


# -- compare&swap out of token consumption ---------------------------------------------


def one_slot_oracle(n_callers):
    # b0 is a single-winner slot that every caller holds a token for
    oracle = frugal_oracle({f"c{i}": Merit(1.0) for i in range(n_callers)}, k=1)
    stamped = {i: oracle.get_token("b0", Block(id=f"x{i}"), f"c{i}")
               for i in range(n_callers)}
    return oracle, stamped


def test_first_consume_wins_and_reports_success_as_empty_set():
    oracle, stamped = one_slot_oracle(2)
    assert cas_via_consume(oracle, stamped[0]) == frozenset()
    assert cas_via_consume(oracle, stamped[1]) == frozenset({stamped[0]})


def test_cas_reduction_matches_register_cas_in_every_sequential_order():
    for first, second in [(0, 1), (1, 0)]:
        oracle, stamped = one_slot_oracle(2)
        reference = RegisterSpace({"slot": frozenset()})
        for who in (first, second):
            got = cas_via_consume(oracle, stamped[who])
            want = reference.cas("slot", frozenset(), frozenset({stamped[who]}))
            assert got == want


def test_cas_steps_split_shared_and_local_work():
    oracle, stamped = one_slot_oracle(1)
    out = {}
    consume, compare = cas_via_consume_steps(oracle, stamped[0], out, "c0")
    consume()
    assert "c0" not in out                   # nothing published yet
    compare()
    assert out["c0"] == frozenset()


# -- consume out of update + snapshot ------------------------------------------------------


def test_snapshot_consume_includes_own_token_and_everything_published():
    space = RegisterSpace()
    out = {}
    w0 = consume_via_snapshot_steps(space, "b0", "w0", ["w0", "w1"], "t0", out, "w0")
    w1 = consume_via_snapshot_steps(space, "b0", "w1", ["w0", "w1"], "t1", out, "w1")
    w0[0](); w0[1]()                          # w0 runs alone first
    assert out["w0"] == frozenset({"t0"})
    w1[0](); w1[1]()                          # then w1: sees both
    assert out["w1"] == frozenset({"t0", "t1"})


def test_snapshot_consume_registers_are_per_parent_and_writer():
    space = RegisterSpace()
    out = {}
    steps = consume_via_snapshot_steps(space, "parentA", "w", ["w"], "tok", out, "k")
    steps[0]()
    assert space.read("parentA/w") == "tok"
    assert space.read("parentB/w") is None


# -- proposer state machine ------------------------------------------------------------------


def test_lone_proposer_walks_get_consume_decide():
    oracle = frugal_oracle({"p0": Merit(1.0)}, k=1)
    prop = Proposer(oracle, "p0", Block(id="v-p0"))
    assert prop.phase is ProposerPhase.GETTING
    prop.step()
    assert prop.phase is ProposerPhase.CONSUMING and prop.stamped is not None
    prop.step()
    assert prop.phase is ProposerPhase.DECIDING
    assert prop.returned == frozenset({prop.stamped})
    prop.step()
    assert prop.phase is ProposerPhase.DECIDED
    assert prop.decided.id == "v-p0"
    assert not prop.live


def test_survivor_decides_the_value_of_a_crashed_winner():
    oracle = frugal_oracle({"p0": Merit(1.0), "p1": Merit(1.0)}, k=1)
    winner = Proposer(oracle, "p0", Block(id="v-p0"))
    loser = Proposer(oracle, "p1", Block(id="v-p1"))
    winner.step(); winner.step()      # grant + consume, then crash before deciding
    winner.phase = ProposerPhase.CRASHED
    while loser.live:
        loser.step()
    assert loser.decided.id == "v-p0"


def test_proposer_exhausts_after_grant_budget():
    # merit so small that no cell of the pinned tape grants
    oracle = frugal_oracle({"p0": Merit(1e-12)}, k=1, seed=0)
    prop = Proposer(oracle, "p0", Block(id="v-p0"), max_grant_attempts=3)
    for _ in range(3):
        prop.step()
    assert prop.phase is ProposerPhase.EXHAUSTED
    assert prop.attempts == 3 and not prop.live


def test_crash_schedule_fires_at_or_after_its_step():
    crash = CrashSchedule(victims=(("p1", 5),))
    assert not crash.crashes_at("p1", 4)
    assert crash.crashes_at("p1", 5)
    assert crash.crashes_at("p1", 9)
    assert not crash.crashes_at("p0", 9)


# -- seeded consensus runs ----------------------------------------------------------------------


def test_fault_free_runs_decide_one_proposed_value_everywhere():
    for seed in range(25):
        outcome = run_consensus(4, seed)
        assert set(outcome.decided) == {"p0", "p1", "p2", "p3"}
        ids = {b.id for b in outcome.decided.values()}
        assert len(ids) == 1                               # agreement
        assert ids.pop() in {f"v-p{i}" for i in range(4)}  # validity
        assert not outcome.crashed and not outcome.exhausted


def test_crashy_runs_keep_agreement_and_terminate_for_survivors():
    rng = random.Random(17)
    saw_crash_after_consume = 0
    for trial in range(60):
        seed = rng.randrange(10**6)
        victim = f"p{rng.randrange(4)}"
        crash = CrashSchedule(victims=((victim, rng.randint(1, 10)),))
        outcome = run_consensus(4, seed, crash)
        decided = list(outcome.decided.values())
        assert len({b.id for b in decided}) <= 1
        survivors = {f"p{i}" for i in range(4)} - set(outcome.crashed)
        assert set(outcome.decided) == survivors
        if outcome.crashed and decided and \
                decided[0].id == f"v-{outcome.crashed[0]}":
            saw_crash_after_consume += 1
    assert saw_crash_after_consume > 0      # the interesting schedule occurs


def test_equal_seeds_reproduce_the_same_outcome():
    a = run_consensus(4, 99, CrashSchedule(victims=(("p2", 3),)))
    b = run_consensus(4, 99, CrashSchedule(victims=(("p2", 3),)))
    assert {p: blk.id for p, blk in a.decided.items()} == \
        {p: blk.id for p, blk in b.decided.items()}
    assert a.steps == b.steps and a.crashed == b.crashed
