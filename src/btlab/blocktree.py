"""Block tree abstract data type.

A block tree is an in-tree of blocks rooted at the genesis block `GENESIS_ID`,
the one root every tree, trace, script and history shares. It has the two
operations of the block tree abstract data type: `append(b)` attaches a valid
block as a child of the leaf of the selected chain, and `read()` returns that
selected chain. Appending never removes anything. A chain, here as in every
history and trace, is the tuple of its block ids, genesis first.

The selection rule is fixed: the longest chain wins (a chain's score is its
length, genesis counted), and ties go to the lexicographically largest id
sequence. It is incremental: the tree records each block's depth on insert
and keeps the selected leaf up to date, so a read costs O(1) between inserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

# The genesis block: the root of every tree, and the first block of every
# chain a read returns.
GENESIS_ID = "b0"

class DomainError(ValueError):
    """Raised when an operation is applied outside its domain."""


@dataclass(frozen=True)
class Block:
    """An immutable block. parent_id is None only for genesis.

    token_tag names the oracle token that validated this block, when an
    oracle is in play; plain trees leave it None.
    """

    id: str
    parent_id: Optional[str] = None
    token_tag: Optional[str] = None


def is_prefix(shorter: Tuple, longer: Tuple) -> bool:
    """True iff `shorter` is an initial segment of `longer` (or equal)."""
    return len(shorter) <= len(longer) and tuple(longer[: len(shorter)]) == tuple(shorter)


def prefix_comparable(a: Tuple, b: Tuple) -> bool:
    return is_prefix(a, b) or is_prefix(b, a)


def common_prefix(a: Tuple, b: Tuple) -> Tuple:
    out = []
    for x, y in zip(a, b):
        if x != y:
            break
        out.append(x)
    return tuple(out)


def mcps(a: Tuple, b: Tuple) -> int:
    """Score (length) of the maximal common prefix of two chains.

    Both chains must share a genesis; chains of unrelated objects are not
    comparable.
    """
    if not a or not b or a[0] != b[0]:
        raise DomainError("mcps: chains do not share a genesis block")
    # slices compare in C, and only slices of one type can be equal (`tuple`
    # returns a tuple as it is): equal up to `lo`, unequal up to `hi`
    a, b = tuple(a), tuple(b)
    lo, hi = 1, min(len(a), len(b))
    if a[:hi] == b[:hi]:
        return hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid
    return lo


class SelectionPolicy:
    """The chain selection of every block tree: the longest chain."""

    def choose(self, tree: "BlockTree") -> Tuple[str, ...]:
        return tree.longest_chain()


# The one selection every read goes through; bench/tracing.py times its
# `choose` as the `blocktree.choose` span.
_SELECTION = SelectionPolicy()


class BlockTree:
    """Tree of blocks rooted at `Block(GENESIS_ID)`, with append/read semantics.

    append() attaches at the selected leaf (the transition never rewrites
    history, it only grows the tree); read() returns the selected chain.
    insert() is the raw structural operation used when the parent is already
    bound (e.g. applying a replicated update).
    """

    def __init__(self):
        self._blocks: Dict[str, Block] = {GENESIS_ID: Block(GENESIS_ID)}
        self._children: Dict[str, List[str]] = {GENESIS_ID: []}
        self._depth: Dict[str, int] = {GENESIS_ID: 1}
        self._longest_leaf = GENESIS_ID
        self._longest_chain: Optional[Tuple[str, ...]] = None

    # -- structure -----------------------------------------------------

    def __contains__(self, block_id: str) -> bool:
        return block_id in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def block(self, block_id: str) -> Block:
        return self._blocks[block_id]

    def blocks(self) -> List[Block]:
        return [self._blocks[i] for i in sorted(self._blocks)]

    def fork_count(self, block_id: str) -> int:
        """Number of children of a block: the width of the fork at it."""
        return len(self._children.get(block_id, []))

    def max_fork_count(self) -> int:
        return max(len(v) for v in self._children.values())

    def leaves(self) -> List[str]:
        return sorted(i for i, kids in self._children.items() if not kids)

    def chain_to(self, block_id: str) -> Tuple[str, ...]:
        """The ids of the root-to-block path."""
        out = []
        cur: Optional[str] = block_id
        while cur is not None:
            out.append(cur)
            cur = self._blocks[cur].parent_id
        return tuple(reversed(out))

    def longest_chain(self) -> Tuple[str, ...]:
        """The deepest chain; ties go to the lexicographically largest ids.

        Equal to the max over leaves of chain_to(leaf) by (len, chain),
        kept up to date by insert() and built once per change of leaf.
        """
        if self._longest_chain is None:
            self._longest_chain = self.chain_to(self._longest_leaf)
        return self._longest_chain

    def _outranks(self, a: str, b: str) -> bool:
        """For two distinct blocks of equal depth: does a's chain sort after b's?

        The chains agree down to the fork point, so the first ids to differ
        are the fork point's children on each side.
        """
        blocks = self._blocks
        pa, pb = blocks[a].parent_id, blocks[b].parent_id
        while pa != pb:
            a, b = pa, pb
            pa, pb = blocks[a].parent_id, blocks[b].parent_id
        return a > b

    def insert(self, block: Block) -> None:
        """Attach a block under its bound parent. Parent must exist, id fresh."""
        if block.id in self._blocks:
            raise DomainError(f"duplicate block id {block.id!r}")
        if block.parent_id is None:
            raise DomainError("cannot insert a second genesis")
        if block.parent_id not in self._blocks:
            raise DomainError(f"unknown parent {block.parent_id!r}")
        self._blocks[block.id] = block
        self._children[block.id] = []
        self._children[block.parent_id].append(block.id)
        depth = self._depth[block.parent_id] + 1
        self._depth[block.id] = depth
        best = self._depth[self._longest_leaf]
        if depth > best or (depth == best and self._outranks(block.id, self._longest_leaf)):
            self._longest_leaf = block.id
            self._longest_chain = None

    # -- ADT operations -------------------------------------------------

    def append(self, candidate: Block) -> bool:
        """Attach `candidate` after the selected chain if it is valid: its id
        is fresh, and a claimed parent (if any) is the selected leaf.

        Returns True iff the tree changed. The stored block's parent is the
        selected leaf.
        """
        if candidate.id in self._blocks:
            return False
        leaf = self.read()[-1]
        if candidate.parent_id not in (None, leaf):
            return False
        self.insert(Block(candidate.id, leaf, candidate.token_tag))
        return True

    def read(self) -> Tuple[str, ...]:
        """The selected chain, genesis first: (GENESIS_ID,) on a bare tree."""
        return _SELECTION.choose(self)

