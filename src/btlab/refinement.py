"""Oracle-refined ledger: the block tree with appends gated by a token oracle.

A refined append draws a token against the leaf of the currently selected
chain, in one oracle call of up to max_grant_attempts tape pops, then
consumes the granted token. The leaf is selected once per call, before the
draw, because nothing changes the local tree during it. It appended iff its
own stamped block is in the consumed set the oracle returns; a capacity loss
is a rejection, running out of grant attempts is exhaustion, and the two are
distinguishable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, Optional

from .blocktree import Block, BlockTree
from .oracle import OracleState

DEFAULT_MAX_GRANT_ATTEMPTS = 10**6


class AppendStatus(enum.Enum):
    APPENDED = "appended"
    REJECTED = "rejected"      # token consumed nothing: the parent's slots were taken
    EXHAUSTED = "exhausted"    # grant attempts ran out before any token arrived


@dataclass
class AppendResult:
    status: AppendStatus
    block: Block                       # stamped when a token was granted
    consumed: FrozenSet[Block] = frozenset()
    attempts: int = 0                  # tape pops spent

    def __bool__(self) -> bool:
        return self.status is AppendStatus.APPENDED


@dataclass
class RefinedLedger:
    """A replica: a local block tree plus a handle on the shared oracle."""

    oracle: OracleState
    tree: BlockTree = field(default_factory=BlockTree)
    max_grant_attempts: int = DEFAULT_MAX_GRANT_ATTEMPTS

    def acquire(self, candidate: Block, caller: str) -> AppendResult:
        """Oracle side of an append: draw a token + consume, no tree change.

        Used directly by replicated settings where the local tree is updated
        by a separate (possibly delayed) update event.
        """
        stamped, attempts = self.oracle.draw_token(self.tree.read()[-1], candidate,
                                                   caller, self.max_grant_attempts)
        if stamped is None:
            return AppendResult(AppendStatus.EXHAUSTED, candidate, frozenset(), attempts)
        consumed = self.oracle.consume_token(stamped)
        if stamped in consumed:
            return AppendResult(AppendStatus.APPENDED, stamped, consumed, attempts)
        return AppendResult(AppendStatus.REJECTED, stamped, consumed, attempts)

    def refined_append(self, candidate: Block, caller: str) -> AppendResult:
        """Atomic append: acquire and, on success, concatenate locally."""
        result = self.acquire(candidate, caller)
        if result:
            self.tree.insert(result.block)
        return result

    def integrate(self, block: Block) -> bool:
        """Apply a replicated block to the local tree.

        Accepts only blocks the oracle confirms consumed (tokens cannot be
        forged). Returns False for duplicates and for orphans (parent not
        here yet). The simulator buffers a block until its parent is here, so
        it hands over only blocks whose parent is present.
        """
        if (block.id in self.tree or block.parent_id not in self.tree
                or not self.oracle.is_consumed_block(block)):
            return False
        self.tree.insert(block)
        return True

    def read(self):
        return self.tree.read()
