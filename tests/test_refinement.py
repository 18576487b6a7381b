"""Refined ledger: grant loop + consume + concatenate, atomically."""

import random

from btlab.blocktree import Block, BlockTree
from btlab.oracle import Merit, frugal_oracle, prodigal_oracle
from btlab.refinement import AppendResult, AppendStatus, RefinedLedger


def ledger(capacity=None, seed=0, merit=1.0, caller="a", attempts=10**6):
    oracle = (prodigal_oracle({caller: Merit(merit)}, seed=seed)
              if capacity is None
              else frugal_oracle({caller: Merit(merit)}, k=capacity, seed=seed))
    return RefinedLedger(oracle=oracle, max_grant_attempts=attempts)


# -- the append loop -----------------------------------------------------------


def test_appended_block_lands_on_selected_leaf():
    led = ledger()
    r1 = led.refined_append(Block(id="x"), "a")
    r2 = led.refined_append(Block(id="y"), "a")
    assert r1 and r2
    assert bool(r1) and r1.status is AppendStatus.APPENDED
    assert led.read() == ("b0", "x", "y")
    assert led.tree.block("y").parent_id == "x"
    assert led.tree.block("y").token_tag is not None


def test_append_succeeds_iff_own_block_in_returned_consumed_set():
    led = ledger()
    res = led.refined_append(Block(id="x"), "a")
    assert res.block in res.consumed


def test_grant_loop_skips_blank_cells_and_counts_attempts():
    # seed 2026 / holder "miner" / p=0.5: grants at cells 0,1,2 then blanks at 3,4
    oracle = prodigal_oracle({"miner": Merit(0.5)}, seed=2026)
    led = RefinedLedger(oracle=oracle)
    attempts = [led.refined_append(Block(id=f"x{i}"), "miner").attempts
                for i in range(4)]
    assert attempts == [1, 1, 1, 3]          # cells 3,4 blank, cell 5 grants


def test_exhaustion_when_no_grant_within_budget():
    # same tape: after spending cells 0..5, cells 6,7 are blank
    oracle = prodigal_oracle({"miner": Merit(0.5)}, seed=2026)
    led = RefinedLedger(oracle=oracle)
    for i in range(4):
        assert led.refined_append(Block(id=f"x{i}"), "miner")
    led.max_grant_attempts = 2
    res = led.refined_append(Block(id="x4"), "miner")
    assert res.status is AppendStatus.EXHAUSTED
    assert not res
    assert res.attempts == 2
    assert "x4" not in led.tree


def test_rejection_and_exhaustion_are_distinguishable():
    shared = frugal_oracle({"a": Merit(1.0), "b": Merit(1.0)}, k=1)
    led_a = RefinedLedger(oracle=shared)
    led_b = RefinedLedger(oracle=shared)
    assert led_a.refined_append(Block(id="x"), "a").status is AppendStatus.APPENDED
    rej = led_b.refined_append(Block(id="y"), "b")     # b still sees leaf b0
    assert rej.status is AppendStatus.REJECTED
    assert rej.consumed and rej.block not in rej.consumed
    assert "y" not in led_b.tree


def test_rejected_append_leaves_tree_untouched():
    shared = frugal_oracle({"a": Merit(1.0), "b": Merit(1.0)}, k=1)
    led_a = RefinedLedger(oracle=shared)
    led_b = RefinedLedger(oracle=shared)
    led_a.refined_append(Block(id="x"), "a")
    before = led_b.tree.blocks()
    led_b.refined_append(Block(id="y"), "b")
    assert led_b.tree.blocks() == before


def test_acquire_consumes_but_does_not_touch_the_tree():
    led = ledger()
    res = led.acquire(Block(id="x"), "a")
    assert res.status is AppendStatus.APPENDED
    assert "x" not in led.tree
    assert led.oracle.is_consumed_block(res.block)


def test_grant_loop_reevaluates_leaf_between_attempts():
    # blank first cell, then a grant: the parent must be the leaf as of the
    # granting attempt, not the first one
    oracle = prodigal_oracle({"miner": Merit(0.5)}, seed=2026)
    led = RefinedLedger(oracle=oracle)
    for i in range(3):
        led.refined_append(Block(id=f"x{i}"), "miner")  # consumes grants 0..2
    # next two cells are blank; insert a block mid-loop cannot happen in a
    # sequential test, so check the stamped parent equals the current leaf
    res = led.refined_append(Block(id="y"), "miner")
    assert res.block.parent_id == "x2"


# -- integrate (replicated updates) ------------------------------------------------


def test_integrate_applies_only_oracle_consumed_blocks():
    shared = prodigal_oracle({"a": Merit(1.0), "b": Merit(1.0)})
    origin = RefinedLedger(oracle=shared)
    replica = RefinedLedger(oracle=shared)
    res = origin.refined_append(Block(id="x"), "a")
    assert replica.integrate(res.block)
    assert "x" in replica.tree
    forged = Block(id="evil", parent_id="b0", token_tag="tkn99")
    assert not replica.integrate(forged)
    assert "evil" not in replica.tree


def test_integrate_rejects_duplicates_and_orphans():
    shared = prodigal_oracle({"a": Merit(1.0)})
    origin = RefinedLedger(oracle=shared)
    replica = RefinedLedger(oracle=shared)
    r1 = origin.refined_append(Block(id="x"), "a")
    r2 = origin.refined_append(Block(id="y"), "a")
    assert not replica.integrate(r2.block)      # orphan: parent x not here yet
    assert replica.integrate(r1.block)
    assert replica.integrate(r2.block)
    assert not replica.integrate(r2.block)      # duplicate
    assert replica.read() == ("b0", "x", "y")


# -- capacity-driven fork bounds ----------------------------------------------------


def test_capacity_one_shared_oracle_keeps_a_single_chain():
    shared = frugal_oracle({f"p{i}": Merit(1.0) for i in range(3)}, k=1)
    ledgers = [RefinedLedger(oracle=shared) for _ in range(3)]
    rng = random.Random(5)
    wins = 0
    for step in range(30):
        who = rng.randrange(3)
        res = ledgers[who].refined_append(Block(id=f"s{step}"), f"p{who}")
        if res:
            wins += 1
            for other in range(3):       # immediate propagation
                if other != who:
                    ledgers[other].integrate(res.block)
    assert wins > 0
    for led in ledgers:
        assert led.tree.max_fork_count() <= 1
    chains = {led.read() for led in ledgers}
    assert len(chains) == 1


def test_fork_width_never_exceeds_capacity_without_propagation():
    rng = random.Random(8)
    for k in (1, 2, 3):
        shared = frugal_oracle({f"p{i}": Merit(1.0) for i in range(4)}, k=k)
        ledgers = [RefinedLedger(oracle=shared) for _ in range(4)]
        for step in range(40):
            who = rng.randrange(4)
            ledgers[who].refined_append(Block(id=f"k{k}-{step}"), f"p{who}")
        for parent in ("b0",):
            assert len(shared.consumed_view(parent)) <= k
        assert max(led.tree.fork_count("b0") for led in ledgers) <= k
