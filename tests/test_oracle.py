"""Token oracle: tapes, grants, consumption caps, containment."""

import hashlib
import itertools
import random

import pytest

from btlab import oracle
from btlab.blocktree import Block
from btlab.oracle import (ConfigError, Merit, OracleState, Tape, _grant_bound,
                          frugal_oracle, prodigal_oracle)
from btlab.refinement import AppendStatus, RefinedLedger


def reference_cell(seed, holder, index):
    """Independent recomputation of a tape cell."""
    digest = hashlib.sha256(f"{seed}:{holder}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


# -- merit -----------------------------------------------------------------


def test_merit_bounds():
    Merit(1.0)
    Merit(0.25)
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ConfigError):
            Merit(bad)


# -- tapes ------------------------------------------------------------------


def test_tape_cells_match_reference_hash():
    tape = Tape(seed=2026, holder="miner", merit=Merit(0.5))
    for i in range(64):
        assert tape.peek(i) == (reference_cell(2026, "miner", i) < 0.5)


def test_first_eight_cells_of_pinned_tape():
    # values recomputed by hand from the hash construction above
    tape = Tape(seed=2026, holder="miner", merit=Merit(0.5))
    assert [tape.pop() for _ in range(8)] == [
        True, True, True, False, False, True, False, False]
    assert tape.cursor == 8


def test_equal_seeds_replay_identical_grant_sequences():
    a = Tape(seed=5, holder="p", merit=Merit(0.3))
    b = Tape(seed=5, holder="p", merit=Merit(0.3))
    assert [a.pop() for _ in range(200)] == [b.pop() for _ in range(200)]


def test_distinct_holders_get_distinct_tapes():
    a = Tape(seed=5, holder="p", merit=Merit(0.5))
    b = Tape(seed=5, holder="q", merit=Merit(0.5))
    assert [a.pop() for _ in range(64)] != [b.pop() for _ in range(64)]


def test_higher_merit_grants_superset_of_cells():
    rng = random.Random(0)
    for _ in range(20):
        seed, holder = rng.randrange(10**6), f"h{rng.randrange(10)}"
        low = Tape(seed=seed, holder=holder, merit=Merit(0.2))
        high = Tape(seed=seed, holder=holder, merit=Merit(0.8))
        for i in range(100):
            if low.peek(i):
                assert high.peek(i)


def test_grant_rate_tracks_merit():
    tape = Tape(seed=2026, holder="miner", merit=Merit(0.5))
    grants = sum(tape.pop() for _ in range(10_000))
    assert grants == 4972              # pinned; 3-sigma band is [4850, 5150]
    assert 4850 <= grants <= 5150


@pytest.mark.parametrize("p", [1.0, 0.5, 0.3, 0.02, 1e-3, 2**-40, 2**-70])
def test_grant_bound_is_the_smallest_granting_threshold(p):
    bound = int.from_bytes(_grant_bound(p), "big")
    # cell value x grants iff x / 2**64 < p, i.e. iff x < bound
    assert (bound - 1) / 2**64 < p <= bound / 2**64
    assert 1 <= bound < 2**64


def reference_draw(seed, holder, p, start, limit):
    """Pop cells one at a time from `start` until a grant or `limit` pops."""
    for popped in range(1, limit + 1):
        if reference_cell(seed, holder, start + popped - 1) < p:
            return True, popped, start + popped
    return False, limit, start + limit


# 1.0 and 2**-70 are where the grant bound rounds: 1.0 maps to a bound below
# 2**64, 2**-70 to a bound of 1, which only an all-zero 8-byte start beats
@pytest.mark.parametrize("p", [1.0, 0.5, 0.02, 2**-70], ids=["1", "0.5", "0.02", "2**-70"])
def test_draw_matches_popping_reference_cells_one_at_a_time(p):
    rng = random.Random(5)
    cases = 0
    # holders holding `%` (the cell message is a `%` template), `:` (its
    # separator) or non-ASCII characters; seeds zero, negative and past 64 bits
    holders = ["p0", "miner", "p%d", "100%", "%s%%", "a:b", ":", "p:%d:", "prozess-ü",
               "矿工", "%%:é✓"]
    for holder, seed in itertools.product(holders, [0, -7, 2**70, rng.randrange(10**6)]):
        start = rng.randrange(500)
        first = reference_draw(seed, holder, p, start, 500)[1]  # pops to a grant, or 500
        for limit in {1, first - 1, first, first + 1, rng.randrange(1, 200)}:
            if limit < 1:
                continue
            tape = Tape(seed=seed, holder=holder, merit=Merit(p), cursor=start)
            granted, popped = tape.draw(limit)
            assert (granted, popped, tape.cursor) == reference_draw(
                seed, holder, p, start, limit), (seed, holder, p, start, limit)
            cases += 1
    assert cases > 100


def test_the_tape_hash_gives_hashlibs_sha256_digest():
    # a tape hashes with the constructor oracle.py picks at import; each
    # length from 0 to 200 bytes crosses SHA-256's 55/56- and 64-byte padding
    # boundaries
    rng = random.Random(11)
    for length in range(201):
        for _ in range(3):
            message = rng.randbytes(length)
            assert oracle._sha256(message).digest() == hashlib.sha256(message).digest()


def test_draw_exhaustion_advances_the_cursor_by_exactly_the_limit():
    tape = Tape(seed=2026, holder="miner", merit=Merit(2**-70))
    assert tape.draw(300) == (False, 300) and tape.cursor == 300
    assert tape.draw(0) == (False, 0) and tape.cursor == 300
    # seed 2026 / "miner" / p=0.5: cells 3, 4 blank, cell 5 grants (the last allowed)
    tape = Tape(seed=2026, holder="miner", merit=Merit(0.5), cursor=3)
    assert tape.draw(2) == (False, 2) and tape.cursor == 5
    tape.cursor = 3
    assert tape.draw(3) == (True, 3) and tape.cursor == 6


def test_acquire_attempts_equal_the_tape_cursor_delta():
    rng = random.Random(9)
    statuses = set()
    for _ in range(60):
        oracle = frugal_oracle({"a": Merit(rng.choice([1.0, 0.3, 0.02])),
                                "b": Merit(0.5)}, k=1, seed=rng.randrange(10**6))
        ledger = RefinedLedger(oracle=oracle, max_grant_attempts=rng.randint(1, 60))
        for i in range(8):
            caller = rng.choice("ab")
            before = oracle.tapes[caller].cursor
            result = ledger.acquire(Block(id=f"x{i}"), caller)
            assert result.attempts == oracle.tapes[caller].cursor - before
            statuses.add(result.status)
    assert statuses == set(AppendStatus)


# -- token issue and consumption ----------------------------------------------


def test_get_token_stamps_candidate_with_parent_and_fresh_tag():
    oracle = prodigal_oracle({"a": Merit(1.0)})
    s1 = oracle.get_token("b0", Block(id="x"), "a")
    s2 = oracle.get_token("b0", Block(id="y"), "a")
    assert (s1.parent_id, s1.token_tag) == ("b0", "tkn1")
    assert (s2.parent_id, s2.token_tag) == ("b0", "tkn2")
    assert oracle.issued == {"tkn1": "b0", "tkn2": "b0"}


def test_get_token_returns_none_on_blank_cell():
    # seed 2026 / holder "miner" / p=0.5: cells 3 and 4 are blank
    oracle = prodigal_oracle({"miner": Merit(0.5)}, seed=2026)
    results = [oracle.get_token("b0", Block(id=f"x{i}"), "miner")
               for i in range(5)]
    assert [r is not None for r in results] == [True, True, True, False, False]


def test_draw_token_stamps_after_the_pops_get_token_would_spend():
    one_by_one = prodigal_oracle({"miner": Merit(0.5)}, seed=2026)
    at_once = prodigal_oracle({"miner": Merit(0.5)}, seed=2026)
    for i in range(12):
        candidate = Block(id=f"x{i}")
        pops, stamped = 1, one_by_one.get_token("b0", candidate, "miner")
        while stamped is None:
            pops, stamped = pops + 1, one_by_one.get_token("b0", candidate, "miner")
        assert at_once.draw_token("b0", candidate, "miner", 10**6) == (stamped, pops)
    assert at_once.draw_token("b0", Block(id="y"), "miner", 0) == (None, 0)
    assert at_once.issued == one_by_one.issued


def test_unregistered_caller_is_a_config_error():
    oracle = prodigal_oracle({"a": Merit(1.0)})
    with pytest.raises(ConfigError):
        oracle.get_token("b0", Block(id="x"), "nobody")


def test_consume_adds_to_parent_set_and_returns_it():
    oracle = prodigal_oracle({"a": Merit(1.0)})
    s1 = oracle.get_token("b0", Block(id="x"), "a")
    view = oracle.consume_token(s1)
    assert view == frozenset({s1})
    assert oracle.is_consumed_block(s1)
    assert len(oracle.consumed_view("b0")) == 1
    assert oracle.issued == {}                   # a spent token leaves `issued`


def test_token_is_single_use():
    oracle = prodigal_oracle({"a": Merit(1.0)})
    s1 = oracle.get_token("b0", Block(id="x"), "a")
    oracle.consume_token(s1)
    again = oracle.consume_token(s1)        # replay of the same stamped block
    assert again == frozenset({s1})
    assert len(oracle.consumed_view("b0")) == 1
    forged = Block(id="x2", parent_id="b0", token_tag="tkn1")
    assert forged not in oracle.consume_token(forged)
    assert len(oracle.consumed_view("b0")) == 1


def test_forged_or_reparented_tokens_never_consume():
    oracle = prodigal_oracle({"a": Merit(1.0)})
    stamped = oracle.get_token("b0", Block(id="x"), "a")
    moved = Block(id="x", parent_id="elsewhere", token_tag=stamped.token_tag)
    assert moved not in oracle.consume_token(moved)
    fake = Block(id="y", parent_id="b0", token_tag="tkn999")
    assert fake not in oracle.consume_token(fake)
    bare = Block(id="z", parent_id="b0")
    assert bare not in oracle.consume_token(bare)
    parentless = Block(id="w")                   # neither parent nor tag
    assert parentless not in oracle.consume_token(parentless)
    assert not oracle.is_consumed_block(parentless)
    assert len(oracle.consumed_view("b0")) == 0
    assert len(oracle.consumed_view("elsewhere")) == 0


def test_capacity_caps_consumptions_per_parent():
    oracle = frugal_oracle({"a": Merit(1.0)}, k=2)
    stamped = [oracle.get_token("b0", Block(id=f"x{i}"), "a") for i in range(3)]
    assert stamped[0] in oracle.consume_token(stamped[0])
    assert stamped[1] in oracle.consume_token(stamped[1])
    view = oracle.consume_token(stamped[2])
    assert stamped[2] not in view
    assert view == frozenset(stamped[:2])        # the loser learns who won


def test_a_rejected_consume_returns_the_set_it_returned_before():
    oracle = frugal_oracle({"a": Merit(1.0)}, k=1)
    first = oracle.get_token("b0", Block(id="x"), "a")
    second = oracle.get_token("b0", Block(id="y"), "a")
    won = oracle.consume_token(first)
    lost = oracle.consume_token(second)          # rejected: b0 is full
    assert lost is won and lost == frozenset({first})
    assert oracle.consumed_view("b0") is won


def test_capacity_rejection_does_not_burn_the_token():
    oracle = frugal_oracle({"a": Merit(1.0)}, k=1)
    first = oracle.get_token("b0", Block(id="x"), "a")
    second = oracle.get_token("b0", Block(id="y"), "a")
    oracle.consume_token(first)
    oracle.consume_token(second)                 # rejected: b0 is full
    assert oracle.issued[second.token_tag] == "b0"     # still unspent
    third = oracle.get_token(first.id, Block(id="y"), "a")  # fresh grant, new parent
    assert third in oracle.consume_token(third)


def test_capacity_applies_per_parent_not_globally():
    oracle = frugal_oracle({"a": Merit(1.0)}, k=1)
    for parent in ("b0", "c", "d"):
        s = oracle.get_token(parent, Block(id=f"x-{parent}"), "a")
        assert s in oracle.consume_token(s)
    assert all(len(oracle.consumed_view(p)) == 1 for p in ("b0", "c", "d"))


def test_unbounded_oracle_never_rejects_genuine_tokens():
    oracle = prodigal_oracle({"a": Merit(1.0)})
    for i in range(50):
        s = oracle.get_token("b0", Block(id=f"x{i}"), "a")
        assert s in oracle.consume_token(s)
    assert len(oracle.consumed_view("b0")) == 50


def test_invalid_capacity_is_a_config_error():
    with pytest.raises(ConfigError):
        OracleState({"a": Merit(1.0)}, capacity=0)


# -- frugal/unbounded containment at the oracle level -----------------------------


def test_loose_oracle_accepts_every_tight_oracle_consumption():
    rng = random.Random(12)
    for trial in range(30):
        k = rng.randint(1, 3)
        seed = rng.randrange(10**6)
        holders = {f"h{i}": Merit(1.0) for i in range(3)}
        tight = frugal_oracle(dict(holders), k=k, seed=seed)
        loose = frugal_oracle(dict(holders), k=k + rng.randint(0, 2), seed=seed)
        wide = prodigal_oracle(dict(holders), seed=seed)
        accepted = []
        for step in range(25):
            caller = rng.choice(sorted(holders))
            parent = rng.choice(["b0"] + [b.id for b in accepted])
            s = tight.get_token(parent, Block(id=f"t{trial}-{step}"), caller)
            if s is None:
                continue
            if s in tight.consume_token(s):
                accepted.append(s)
        # replay the accepted schedule against the looser oracles
        for other in (loose, wide):
            for s in accepted:
                granted = other.get_token(s.parent_id, Block(id=s.id), "h0")
                assert granted is not None      # merit 1.0 grants first try
                assert granted in other.consume_token(granted)
