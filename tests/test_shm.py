"""Shared-memory lab: interleaving enumeration, reductions, consensus."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from inspect import GEN_CLOSED, GEN_SUSPENDED, getgeneratorstate
from pathlib import Path

import pytest

import btlab
import btlab.campaigns as campaigns
from btlab.blocktree import Block
from btlab.campaigns import cas_equivalence_suite, consensus_campaign
from btlab.oracle import ConfigError, Merit, frugal_oracle
from btlab.shm import (CrashSchedule, RegisterSpace, cas_via_consume,
                       consume_via_snapshot, finish, interleavings, propose,
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


def traced(trace, first, second):
    trace.append(first)
    yield
    trace.append(second)
    return second


def test_run_interleaving_steps_each_caller_in_its_own_order():
    trace = []
    ops = [traced(trace, "a1", "a2"), traced(trace, "b1", "b2")]
    assert run_interleaving((0, 1, 1, 0), ops) == ["a2", "b2"]
    assert trace == ["a1", "b1", "b2", "a2"]


def test_run_interleaving_leaves_an_unfinished_caller_without_response():
    trace = []
    ops = [traced(trace, "a1", "a2"), traced(trace, "b1", "b2")]
    assert run_interleaving((0, 1, 1), ops) == [None, "b2"]
    assert trace == ["a1", "b1", "b2"]


def test_run_interleaving_rejects_stepping_a_caller_that_returned():
    trace = []
    ops = [traced(trace, "a1", "a2"), traced(trace, "b1", "b2")]
    with pytest.raises(ValueError, match="caller 0"):
        run_interleaving((0, 0, 1, 0), ops)
    assert trace == ["a1", "a2", "b1"]


# -- compare&swap out of token consumption ---------------------------------------------


def one_slot_oracle(n_callers):
    # b0 is a single-winner slot that every caller holds a token for
    oracle = frugal_oracle({f"c{i}": Merit(1.0) for i in range(n_callers)}, k=1)
    stamped = {i: oracle.get_token("b0", Block(id=f"x{i}"), f"c{i}")
               for i in range(n_callers)}
    return oracle, stamped


def test_first_consume_wins_and_reports_success_as_empty_set():
    oracle, stamped = one_slot_oracle(2)
    assert finish(cas_via_consume(oracle, stamped[0])) == frozenset()
    assert finish(cas_via_consume(oracle, stamped[1])) == frozenset({stamped[0]})


def test_cas_reduction_matches_register_cas_in_every_sequential_order():
    for first, second in [(0, 1), (1, 0)]:
        oracle, stamped = one_slot_oracle(2)
        reference = RegisterSpace({"slot": frozenset()})
        for who in (first, second):
            got = finish(cas_via_consume(oracle, stamped[who]))
            want = reference.cas("slot", frozenset(), frozenset({stamped[who]}))
            assert got == want


def test_cas_steps_split_shared_and_local_work():
    oracle, stamped = one_slot_oracle(1)
    steps = cas_via_consume(oracle, stamped[0])
    next(steps)                                         # the shared consume ...
    assert oracle.consumed_view("b0") == frozenset({stamped[0]})
    assert getgeneratorstate(steps) == GEN_SUSPENDED    # ... but no response yet
    assert finish(steps) == frozenset()


# -- consume out of update + snapshot ------------------------------------------------------


def test_snapshot_consume_includes_own_token_and_everything_published():
    space = RegisterSpace()
    w0 = consume_via_snapshot(space, "b0", "w0", ["w0", "w1"], "t0")
    w1 = consume_via_snapshot(space, "b0", "w1", ["w0", "w1"], "t1")
    assert finish(w0) == frozenset({"t0"})              # w0 runs alone first
    assert finish(w1) == frozenset({"t0", "t1"})        # then w1: sees both


def test_snapshot_consume_registers_are_per_parent_and_writer():
    space = RegisterSpace()
    next(consume_via_snapshot(space, "parentA", "w", ["w"], "tok"))
    assert space.read("parentA/w") == "tok"
    assert space.read("parentB/w") is None


# -- proposers ---------------------------------------------------------------------------------


def test_lone_proposer_walks_get_consume_decide():
    oracle = frugal_oracle({"p0": Merit(1.0)}, k=1)
    steps = propose(oracle, "p0", Block(id="v-p0"))
    assert not oracle.issued                            # nothing runs before a step
    next(steps)
    assert oracle.issued == {"tkn1": "b0"}              # granted, not yet spent
    next(steps)
    (stamped,) = oracle.consumed_view("b0")             # consumed, not yet decided
    assert stamped.id == "v-p0" and getgeneratorstate(steps) == GEN_SUSPENDED
    with pytest.raises(StopIteration) as done:
        next(steps)
    assert done.value.value == stamped
    assert getgeneratorstate(steps) == GEN_CLOSED


def test_survivor_decides_the_value_of_a_crashed_winner():
    oracle = frugal_oracle({"p0": Merit(1.0), "p1": Merit(1.0)}, k=1)
    winner = propose(oracle, "p0", Block(id="v-p0"))
    loser = propose(oracle, "p1", Block(id="v-p1"))
    next(winner); next(winner)      # grant + consume, then crash before deciding
    assert finish(loser).id == "v-p0"


# Two proposers on a capacity-2 oracle: b consumes after a, so b's consumed
# set holds both blocks and b cannot decide; `python -O` must not change that.
ABOVE_CAPACITY_1 = """
from btlab import Block, ConfigError, Merit, frugal_oracle, propose, run_interleaving
oracle = frugal_oracle({"a": Merit(1.0), "b": Merit(1.0)}, k=2)
ops = [propose(oracle, name, Block(id=f"v-{name}")) for name in ("a", "b")]
try:
    print(run_interleaving((0, 0, 1, 1, 0, 1), ops))
except ConfigError as exc:
    print(f"ConfigError: {exc}")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_a_proposer_on_an_oracle_above_capacity_1_raises(flags):
    src = str(Path(btlab.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, *flags, "-c", ABOVE_CAPACITY_1],
                          capture_output=True, text=True, timeout=60, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout == ("ConfigError: consensus needs a capacity-1 oracle: "
                           "b consumed 2 blocks under 'b0'\n")


def test_the_second_proposer_to_finish_on_a_capacity_2_oracle_cannot_decide():
    oracle = frugal_oracle({"a": Merit(1.0), "b": Merit(1.0)}, k=2)
    assert finish(propose(oracle, "a", Block(id="v-a"))).id == "v-a"
    with pytest.raises(ConfigError, match=r"^consensus needs a capacity-1 oracle: b "
                                          r"consumed 2 blocks under 'b0'$"):
        finish(propose(oracle, "b", Block(id="v-b")))


def test_proposer_exhausts_after_grant_budget():
    # merit so small that no cell of the pinned tape grants
    oracle = frugal_oracle({"p0": Merit(1e-12)}, k=1, seed=0)
    steps = propose(oracle, "p0", Block(id="v-p0"), max_grant_attempts=3)
    assert run_interleaving((0, 0, 0), [steps]) == [None]
    assert oracle.tapes["p0"].cursor == 3 and getgeneratorstate(steps) == GEN_CLOSED


def test_crash_schedule_fires_at_or_after_its_step():
    crash = CrashSchedule(victims=(("p1", 5),))
    assert not crash.crashes_at("p1", 4)
    assert crash.crashes_at("p1", 5)
    assert crash.crashes_at("p1", 9)
    assert not crash.crashes_at("p0", 9)


# -- seeded consensus runs ----------------------------------------------------------------------


def test_fault_free_runs_decide_one_proposed_value_everywhere():
    for seed in range(25):
        outcome = run_consensus(seed)
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
        outcome = run_consensus(seed, crash)
        decided = list(outcome.decided.values())
        assert len({b.id for b in decided}) <= 1
        survivors = {f"p{i}" for i in range(4)} - set(outcome.crashed)
        assert set(outcome.decided) == survivors
        if outcome.crashed and decided and \
                decided[0].id == f"v-{outcome.crashed[0]}":
            saw_crash_after_consume += 1
    assert saw_crash_after_consume > 0      # the interesting schedule occurs


def test_equal_seeds_reproduce_the_same_outcome():
    a = run_consensus(99, CrashSchedule(victims=(("p2", 3),)))
    b = run_consensus(99, CrashSchedule(victims=(("p2", 3),)))
    assert {p: blk.id for p, blk in a.decided.items()} == \
        {p: blk.id for p, blk in b.decided.items()}
    assert a.steps == b.steps and a.crashed == b.crashed


# -- pinned outcomes ----------------------------------------------------------------------------


def digest(rows):
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_consensus_and_cas_suite_outcomes_are_pinned(monkeypatch):
    """Recorded before the step model became generators; any change to a
    schedule, an oracle call or a response shows up here."""
    outcomes = []
    real_run_consensus = campaigns.run_consensus

    def logged_run_consensus(*args, **kwargs):
        outcome = real_run_consensus(*args, **kwargs)
        outcomes.append([[[p, b.id] for p, b in outcome.decided.items()],
                         outcome.crashed, outcome.exhausted, outcome.steps])
        return outcome

    monkeypatch.setattr(campaigns, "run_consensus", logged_run_consensus)
    assert consensus_campaign(runs=200, seed=0).ok
    assert len(outcomes) == 200
    assert digest(outcomes) == \
        "66a95e13e9d07922e1f50d7102b8943738f1b2b6ae6eb97e4001d95894f99f08"

    # the suite fails any interleaving whose returns differ from the atomic
    # register's, so pinning the register's returns pins the reduction's
    swaps = []
    real_cas = RegisterSpace.cas

    def logged_cas(self, name, old, new):
        previous = real_cas(self, name, old, new)
        swaps.append([sorted(b.id for b in new), sorted(b.id for b in previous)])
        return previous

    monkeypatch.setattr(RegisterSpace, "cas", logged_cas)
    suite = cas_equivalence_suite()
    assert suite.ok and suite.runs == 97 and len(swaps) == 1 + 2 * 6 + 3 * 90
    assert digest(swaps) == \
        "83ad50be328bbe22e36387f9f175c4aac94220c0c6b332eef1771705b64564fa"
