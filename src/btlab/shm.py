"""Shared-memory lab: wait-free reductions between compare&swap, token
consumption, and atomic snapshots, plus consensus built on a capacity-1
oracle.

Everything here runs under deterministic schedulers. An operation is a
generator: each `next()` runs one step, and the operation's response is the
generator's return value. `interleavings` enumerates every merge order of the
callers' steps (exhaustive, desk scale), and `run_interleaving` executes one
merge. Registers are atomic: one step touches shared state at most once, so a
step is a linearization point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from inspect import GEN_CLOSED, getgeneratorstate
from typing import Any, Dict, Generator, Iterator, List, Optional, Sequence, Tuple

from .blocktree import GENESIS_ID, Block
from .oracle import ConfigError, Merit, OracleState, frugal_oracle
from .refinement import DEFAULT_MAX_GRANT_ATTEMPTS

# One caller's operation: each next() is one step, the return value its response.
Steps = Generator[None, None, Any]


class RegisterSpace:
    """Named atomic registers."""

    def __init__(self, initial: Optional[Dict[str, Any]] = None):
        self._regs: Dict[str, Any] = dict(initial or {})

    def read(self, name: str) -> Any:
        return self._regs.get(name)

    def write(self, name: str, value: Any) -> None:
        self._regs[name] = value

    def cas(self, name: str, old: Any, new: Any) -> Any:
        """Atomic compare&swap: install `new` iff the register holds `old`;
        either way return the previous value."""
        previous = self._regs.get(name)
        if previous == old:
            self._regs[name] = new
        return previous

    def scan(self, names: Sequence[str]) -> Tuple[Any, ...]:
        """Atomic multi-read: one indivisible step under these schedulers."""
        return tuple(self._regs.get(n) for n in names)


# -- cas from consume_token --------------------------------------------------


def cas_via_consume(oracle: OracleState, stamped: Block) -> Steps:
    """compare&swap(consumed[parent], {}, {stamped}) out of one consume call,
    as two steps: the shared consume, then a local comparison.

    The consume is the linearization point. The response is {} on success
    (the register held the empty set and now holds the block), otherwise the
    occupying set, exactly like cas returns the previous value.
    """
    returned = oracle.consume_token(stamped)
    yield
    return frozenset() if returned == frozenset({stamped}) else returned


# -- consume_token from atomic snapshot ----------------------------------------


def consume_via_snapshot(space: RegisterSpace, parent_id: str, writer: str,
                         writers: Sequence[str], token: Any) -> Steps:
    """Unbounded-capacity consume out of single-writer registers + snapshot.

    Step 1 publishes the caller's token in its own register; step 2 takes an
    atomic snapshot of every writer's register. The response is whatever
    tokens the snapshot saw (always including the caller's own).
    """
    space.write(f"{parent_id}/{writer}", token)
    yield
    seen = space.scan([f"{parent_id}/{w}" for w in writers])
    return frozenset(v for v in seen if v is not None)


# -- running operations --------------------------------------------------------


def finish(steps: Steps) -> Any:
    """Run an operation to the end and return its response."""
    try:
        while True:
            next(steps)
    except StopIteration as done:
        return done.value


def interleavings(lengths: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """Every merge order of callers with the given step counts.

    Yields tuples of caller indices, e.g. (0, 1, 0) means caller 0 steps,
    then caller 1, then caller 0 again.
    """
    def rec(remaining: List[int], prefix: List[int]):
        if not any(remaining):
            yield tuple(prefix)
            return
        for i, left in enumerate(remaining):
            if left:
                remaining[i] -= 1
                prefix.append(i)
                yield from rec(remaining, prefix)
                prefix.pop()
                remaining[i] += 1

    yield from rec(list(lengths), [])


def run_interleaving(order: Sequence[int], ops: Sequence[Steps]) -> List[Any]:
    """Step caller `order[0]`, then `order[1]`, ...; return each caller's
    response (None for a caller the order leaves unfinished)."""
    responses: List[Any] = [None] * len(ops)
    for who in order:
        if getgeneratorstate(ops[who]) == GEN_CLOSED:
            raise ValueError(f"caller {who} stepped after it returned")
        try:
            next(ops[who])
        except StopIteration as done:
            responses[who] = done.value
    return responses


# -- consensus on a capacity-1 oracle ----------------------------------------------


def propose(oracle: OracleState, name: str, value: Block,
            max_grant_attempts: int = DEFAULT_MAX_GRANT_ATTEMPTS) -> Steps:
    """propose(value): loop get_token(genesis, value) until granted, consume
    once, decide the single block in the returned set.

    Each oracle call is one step, so a proposer can crash between winning the
    token and deciding. The response is the decided block, or None when
    `max_grant_attempts` get_token calls all failed. An oracle whose consumed
    set holds more than one block cannot decide: that is a ConfigError.
    """
    attempts = 1
    while (stamped := oracle.get_token(GENESIS_ID, value, name)) is None:
        if attempts >= max_grant_attempts:
            return None
        attempts += 1
        yield
    yield
    returned = oracle.consume_token(stamped)
    yield
    if len(returned) != 1:
        raise ConfigError(f"consensus needs a capacity-1 oracle: {name} consumed "
                          f"{len(returned)} blocks under {GENESIS_ID!r}")
    return next(iter(returned))


@dataclass(frozen=True)
class CrashSchedule:
    """Each victim crashes before its given global step."""

    victims: Tuple[Tuple[str, int], ...] = ()

    def crashes_at(self, name: str, global_step: int) -> bool:
        return any(v == name and global_step >= at for v, at in self.victims)


@dataclass
class ConsensusOutcome:
    decided: Dict[str, Block]
    crashed: List[str]
    exhausted: List[str]
    steps: int


CONSENSUS_PROPOSERS = 4     # p0..p3
PROPOSER_MERIT = 0.5        # the chance that one pop of a proposer's tape grants


def run_consensus(seed: int, crash: CrashSchedule = CrashSchedule()) -> ConsensusOutcome:
    """Drive the proposers to completion under a seeded fair scheduler."""
    names = [f"p{i}" for i in range(CONSENSUS_PROPOSERS)]
    oracle = frugal_oracle({p: Merit(PROPOSER_MERIT) for p in names}, k=1, seed=seed)
    live = {p: propose(oracle, p, Block(id=f"v-{p}"))
            for p in names}
    responses: Dict[str, Optional[Block]] = {}
    crashed = set()
    rng = random.Random(seed)
    global_step = 0
    while live:
        who = rng.choice(list(live))
        global_step += 1
        if crash.crashes_at(who, global_step):
            del live[who]
            crashed.add(who)
            continue
        try:
            next(live[who])
        except StopIteration as done:
            del live[who]
            responses[who] = done.value
    return ConsensusOutcome(
        decided={p: responses[p] for p in names if responses.get(p)},
        crashed=[p for p in names if p in crashed],
        exhausted=[p for p in names if p in responses and responses[p] is None],
        steps=global_step,
    )
