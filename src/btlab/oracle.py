"""Token oracles.

An oracle hands out the right to append. Each registered holder owns an
infinite pseudorandom tape of cells; popping the tape either grants a token
(with the holder's merit probability) or comes up blank. A granted token is
bound to one parent block and can be consumed at most once. The oracle caps
how many blocks may ever be consumed per parent: capacity k for the frugal
oracle, unbounded for the prodigal one (which is just k = infinity).

Tapes are lazily materialized: cell contents are a pure function of
(oracle seed, holder, cell index), so equal seeds replay identical grant
sequences on any platform.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Optional, Tuple

from .blocktree import Block


class ConfigError(ValueError):
    """Oracle misconfiguration (e.g. an unregistered caller)."""


@dataclass(frozen=True)
class Merit:
    """A holder's standing: the probability that a tape cell grants a token."""

    grant_probability: float

    def __post_init__(self):
        if not (0.0 < self.grant_probability <= 1.0):
            raise ConfigError("grant_probability must be in (0, 1]")


def _builtin_sha256():
    """CPython's own SHA-256 constructor (`_sha2` on 3.12+, `_sha256` on
    3.10-3.11), else `hashlib.sha256`.

    Both implement FIPS 180-4 SHA-256, so they give the same digest of every
    message; the built-in one skips the OpenSSL dispatch that `hashlib`'s
    pays on each call, which a tape pays once per cell.
    """
    for name in ("_sha2", "_sha256"):
        try:
            return importlib.import_module(name).sha256
        except ImportError:
            pass
    return hashlib.sha256


_sha256 = _builtin_sha256()


@functools.lru_cache(maxsize=None)
def _grant_bound(p: float) -> bytes:
    """The smallest integer x with x / 2**64 >= p, as 8 big-endian bytes.

    A cell whose hash starts with h grants iff int(h) / 2**64 < p. Since
    x -> x / 2**64 is monotone, that holds iff int(h) < X for this X, and
    comparing equal-length big-endian bytes compares the integers. The
    bisection tests that same float expression, so bound and rule agree on
    every x, also where x / 2**64 rounds (p = 1.0, p < 2**-64).
    """
    lo, hi = 0, 2**64
    while lo < hi:
        mid = (lo + hi) // 2
        if mid / 2**64 >= p:
            hi = mid
        else:
            lo = mid + 1
    return lo.to_bytes(8, "big")


@dataclass
class Tape:
    """One holder's grant tape. pop() advances the cursor by one cell.

    Cell i grants iff the first 8 bytes of sha256(b"seed:holder:i") fall
    below the merit's grant bound; the message prefix and the bound are
    computed once per tape, and each cell is hashed with the constructor
    `_builtin_sha256` picks once at import. The whole digest is compared
    with the 8-byte bound, which is the same test: a digest whose first 8
    bytes equal the bound is longer, so greater.
    """

    seed: int
    holder: str
    merit: Merit
    cursor: int = 0
    _prefix: bytes = field(init=False, repr=False, compare=False)
    _bound: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._prefix = f"{self.seed}:{self.holder}:".replace("%", "%%").encode() + b"%d"
        self._bound = _grant_bound(self.merit.grant_probability)

    def peek(self, index: int) -> bool:
        return replace(self, cursor=index).pop()

    def draw(self, limit: int) -> Tuple[bool, int]:
        """Pop up to `limit` cells, stopping right after the first grant.

        Returns (granted, cells popped); on exhaustion the cursor has moved
        by exactly `limit` (by nothing if `limit` < 1).
        """
        prefix, bound, start = self._prefix, self._bound, self.cursor
        stop = start + max(limit, 0)
        hash_cell = _sha256
        for i in range(start, stop):
            if hash_cell(prefix % i).digest() < bound:
                self.cursor = i + 1
                return True, i + 1 - start
        self.cursor = stop
        return False, stop - start

    def pop(self) -> bool:
        return self.draw(1)[0]


class OracleState:
    """Frugal capacity-k oracle; capacity=None is the prodigal oracle.

    draw_token pops the caller's tape until a grant or `limit` pops; on a
    grant it returns the candidate stamped with a fresh token bound to
    `parent_id` (the stamped block is thereby valid). get_token is the
    one-pop draw. consume_token spends a stamped block's token: if the token
    is issued, unspent, and the parent still has room, the block joins the
    parent's consumed set. It always returns the current consumed set for the
    parent, so a loser learns who won. A capacity rejection does not burn the
    token.

    The state is the paper's: `issued` maps each unspent token's tag to its
    parent, and each parent's consumed set K[h] is one frozenset, replaced
    (never mutated) when it grows, so a returned set stays what it was.
    """

    def __init__(self, merits: Dict[str, Merit], capacity: Optional[int] = None,
                 seed: int = 0):
        if capacity is not None and capacity < 1:
            raise ConfigError("capacity must be >= 1 or None for unbounded")
        self.capacity = capacity
        self.tapes: Dict[str, Tape] = {
            holder: Tape(seed=seed, holder=holder, merit=merit)
            for holder, merit in merits.items()
        }
        self.issued: Dict[str, str] = {}
        self._consumed: Dict[str, FrozenSet[Block]] = {}
        self._tags = itertools.count(1)

    # -- introspection ---------------------------------------------------

    def consumed_view(self, parent_id: str) -> FrozenSet[Block]:
        return self._consumed.get(parent_id, frozenset())

    def is_consumed_block(self, block: Block) -> bool:
        """True iff this exact stamped block sits in its parent's consumed set."""
        return block in self._consumed.get(block.parent_id, ())

    # -- operations --------------------------------------------------------

    def draw_token(self, parent_id: str, candidate: Block, caller: str,
                   limit: int) -> Tuple[Optional[Block], int]:
        """Pop the caller's tape up to `limit` times, stopping at the first grant.

        Returns (the stamped candidate, or None if no cell granted; pops spent).
        """
        tape = self.tapes.get(caller)
        if tape is None:
            raise ConfigError(f"unregistered caller {caller!r}")
        granted, popped = tape.draw(limit)
        if not granted:
            return None, popped
        tag = f"tkn{next(self._tags)}"
        self.issued[tag] = parent_id
        return Block(candidate.id, parent_id, tag), popped

    def get_token(self, parent_id: str, candidate: Block, caller: str) -> Optional[Block]:
        """Pop the caller's tape once; return the stamped candidate on a grant."""
        return self.draw_token(parent_id, candidate, caller, 1)[0]

    def consume_token(self, stamped: Block) -> FrozenSet[Block]:
        parent_id = stamped.parent_id
        consumed = self._consumed.get(parent_id, frozenset())
        if (parent_id is not None and self.issued.get(stamped.token_tag) == parent_id
                and (self.capacity is None or len(consumed) < self.capacity)):
            del self.issued[stamped.token_tag]
            consumed = self._consumed[parent_id] = consumed | {stamped}
        return consumed


def frugal_oracle(merits: Dict[str, Merit], k: int, seed: int = 0) -> OracleState:
    return OracleState(merits, capacity=k, seed=seed)


def prodigal_oracle(merits: Dict[str, Merit], seed: int = 0) -> OracleState:
    return OracleState(merits, capacity=None, seed=seed)
