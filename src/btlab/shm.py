"""Shared-memory lab: wait-free reductions between compare&swap, token
consumption, and atomic snapshots, plus consensus built on a capacity-1
oracle.

Everything here runs under deterministic schedulers. Multi-step operations
are step lists; `interleavings` enumerates every merge order of the callers'
steps (exhaustive, desk scale), and `run_interleaving` executes one merge on
fresh state. Registers are atomic: one step touches shared state at most
once, so a step is a linearization point.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .blocktree import Block
from .oracle import Merit, OracleState, frugal_oracle
from .refinement import DEFAULT_MAX_GRANT_ATTEMPTS


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


def cas_via_consume_steps(oracle: OracleState, stamped: Block,
                          out: Dict[str, Any], key: str) -> List[Callable[[], None]]:
    """compare&swap(consumed[parent], {}, {stamped}) out of one consume call,
    as two schedulable steps: the shared consume, then a local comparison.

    The consume is the linearization point. `out[key]` gets {} on success
    (the register held the empty set and now holds the block), otherwise the
    occupying set, exactly like cas returns the previous value.
    """
    cell: Dict[str, Any] = {}

    def consume_step():
        cell["returned"] = oracle.consume_token(stamped)

    def compare_step():
        returned = cell["returned"]
        out[key] = frozenset() if returned == frozenset({stamped}) else returned

    return [consume_step, compare_step]


def cas_via_consume(oracle: OracleState, stamped: Block) -> FrozenSet[Block]:
    """The same reduction with its two steps run back to back."""
    out: Dict[str, Any] = {}
    for step in cas_via_consume_steps(oracle, stamped, out, "cas"):
        step()
    return out["cas"]


# -- consume_token from atomic snapshot ----------------------------------------


def consume_via_snapshot_steps(space: RegisterSpace, parent_id: str,
                               writer: str, all_writers: Sequence[str], token: Any,
                               out: Dict[str, Any], key: str) -> List[Callable[[], None]]:
    """Unbounded-capacity consume out of single-writer registers + snapshot.

    Step 1 publishes the caller's token in its own register; step 2 takes an
    atomic snapshot of every writer's register. The returned set is whatever
    tokens the snapshot saw (always including the caller's own).
    """
    names = [f"{parent_id}/{w}" for w in all_writers]

    def update_step():
        space.write(f"{parent_id}/{writer}", token)

    def scan_step():
        seen = space.scan(names)
        out[key] = frozenset(v for v in seen if v is not None)

    return [update_step, scan_step]


# -- exhaustive interleaving enumeration -----------------------------------------


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


def run_interleaving(order: Sequence[int],
                     step_lists: Sequence[List[Callable[[], None]]]) -> None:
    cursors = [0] * len(step_lists)
    for who in order:
        step_lists[who][cursors[who]]()
        cursors[who] += 1


# -- consensus on a capacity-1 oracle ----------------------------------------------


class ProposerPhase(enum.Enum):
    GETTING = "getting"
    CONSUMING = "consuming"
    DECIDING = "deciding"
    DECIDED = "decided"
    CRASHED = "crashed"
    EXHAUSTED = "exhausted"


@dataclass
class Proposer:
    """propose(b): loop get_token(genesis, b) until granted, consume once,
    decide the single block in the returned set.

    Each oracle call is one schedulable step, so a proposer can crash between
    winning the token and deciding.
    """

    oracle: OracleState
    name: str
    value: Block
    parent_id: str = "b0"
    max_grant_attempts: int = DEFAULT_MAX_GRANT_ATTEMPTS
    phase: ProposerPhase = ProposerPhase.GETTING
    stamped: Optional[Block] = None
    returned: Optional[FrozenSet[Block]] = None
    decided: Optional[Block] = None
    attempts: int = 0

    def step(self) -> None:
        if self.phase is ProposerPhase.GETTING:
            self.attempts += 1
            self.stamped = self.oracle.get_token(self.parent_id, self.value, self.name)
            if self.stamped is not None:
                self.phase = ProposerPhase.CONSUMING
            elif self.attempts >= self.max_grant_attempts:
                self.phase = ProposerPhase.EXHAUSTED
        elif self.phase is ProposerPhase.CONSUMING:
            self.returned = self.oracle.consume_token(self.stamped)
            self.phase = ProposerPhase.DECIDING
        elif self.phase is ProposerPhase.DECIDING:
            assert self.returned is not None and len(self.returned) == 1, \
                "capacity-1 consumed set must be a singleton"
            self.decided = next(iter(self.returned))
            self.phase = ProposerPhase.DECIDED

    @property
    def live(self) -> bool:
        return self.phase not in (ProposerPhase.DECIDED, ProposerPhase.CRASHED,
                                  ProposerPhase.EXHAUSTED)


@dataclass(frozen=True)
class CrashSchedule:
    """At most `faults` victims; each crashes before its given global step."""

    victims: Tuple[Tuple[str, int], ...] = ()

    def crashes_at(self, name: str, global_step: int) -> bool:
        return any(v == name and global_step >= at for v, at in self.victims)


@dataclass
class ConsensusOutcome:
    decided: Dict[str, Block]
    crashed: List[str]
    exhausted: List[str]
    steps: int


def run_consensus(n: int, seed: int, crash: CrashSchedule = CrashSchedule(),
                  grant_probability: float = 0.5, k: int = 1,
                  max_grant_attempts: int = DEFAULT_MAX_GRANT_ATTEMPTS) -> ConsensusOutcome:
    """Drive n proposers to completion under a seeded fair scheduler."""
    names = [f"p{i}" for i in range(n)]
    oracle = frugal_oracle({p: Merit(grant_probability) for p in names}, k=k, seed=seed)
    proposers = {
        p: Proposer(oracle, p, Block(id=f"v-{p}", payload=f"proposal of {p}"),
                    max_grant_attempts=max_grant_attempts)
        for p in names
    }
    rng = random.Random(seed)
    global_step = 0
    while True:
        runnable = [p for p in names if proposers[p].live]
        if not runnable:
            break
        who = rng.choice(runnable)
        global_step += 1
        if crash.crashes_at(who, global_step):
            proposers[who].phase = ProposerPhase.CRASHED
            continue
        proposers[who].step()
    return ConsensusOutcome(
        decided={p: pr.decided for p, pr in proposers.items() if pr.decided},
        crashed=[p for p, pr in proposers.items() if pr.phase is ProposerPhase.CRASHED],
        exhausted=[p for p, pr in proposers.items() if pr.phase is ProposerPhase.EXHAUSTED],
        steps=global_step,
    )
