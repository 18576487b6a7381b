"""Block tree abstract data type.

A block tree is an in-tree of blocks rooted at the genesis block `GENESIS_ID`,
the one root every tree, trace, script and history shares. Appending never
removes anything: a valid block is attached as a child of the leaf of the
currently selected chain, and a read returns that selected chain (genesis
included). Which chain is "selected" is the job of a pluggable selection
policy: a chain chooser, a monotone score, and a validity predicate.

The default policy is longest-chain with a deterministic lexicographic
tiebreak and score = chain length (genesis counts). It is incremental: the
tree records each block's depth on insert and keeps the selected leaf up to
date, so a default read costs O(1) between inserts. A custom score or chain
chooser recomputes over all root-to-leaf chains on every read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

# The genesis block: the root of every tree, and the first block of every
# chain a read returns.
GENESIS_ID = "b0"

# A blockchain is a root-to-leaf path, genesis first.
Blockchain = Tuple["Block", ...]


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
    payload: str = ""
    token_tag: Optional[str] = None


def chain_ids(chain: Blockchain) -> Tuple[str, ...]:
    return tuple(b.id for b in chain)


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


def length_score(chain: Tuple) -> int:
    """Default monotone score: number of blocks, genesis included."""
    return len(chain)


def mcps(a: Tuple, b: Tuple, score: Callable[[Tuple], int] = length_score) -> int:
    """Score of the maximal common prefix of two chains.

    Both chains must share a genesis; chains of unrelated objects are not
    comparable.
    """
    if not a or not b or a[0] != b[0]:
        raise DomainError("mcps: chains do not share a genesis block")
    return score(common_prefix(a, b))


@dataclass
class SelectionPolicy:
    """Chain selection for a block tree.

    chain_chooser may be None, in which case the highest-scoring root-to-leaf
    chain wins and ties break by the lexicographically largest id sequence.
    """

    score: Callable[[Blockchain], int] = length_score
    chain_chooser: Optional[Callable[["BlockTree"], Blockchain]] = None

    def choose(self, tree: "BlockTree") -> Blockchain:
        if self.chain_chooser is not None:
            return self.chain_chooser(tree)
        if self.score is length_score:
            return tree.longest_chain()
        return max(tree.leaf_chains(), key=lambda c: (self.score(c), chain_ids(c)))


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
        self._longest_chain: Optional[Blockchain] = None

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

    def chain_to(self, block_id: str) -> Blockchain:
        """Root-to-block path."""
        out = []
        cur: Optional[str] = block_id
        while cur is not None:
            b = self._blocks[cur]
            out.append(b)
            cur = b.parent_id
        return tuple(reversed(out))

    def leaf_chains(self) -> List[Blockchain]:
        return [self.chain_to(leaf) for leaf in self.leaves()]

    def longest_chain(self) -> Blockchain:
        """The deepest chain; ties go to the lexicographically largest ids.

        Equal to max(leaf_chains(), key=lambda c: (len(c), chain_ids(c))),
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

    def append(self, candidate: Block, policy: SelectionPolicy) -> bool:
        """Attach `candidate` after the selected chain if it is valid: its id
        is fresh, and a claimed parent (if any) is the selected leaf.

        Returns True iff the tree changed. The stored block's parent is the
        selected leaf.
        """
        if candidate.id in self._blocks:
            return False
        leaf = policy.choose(self)[-1]
        if candidate.parent_id not in (None, leaf.id):
            return False
        self.insert(replace(candidate, parent_id=leaf.id))
        return True

    def read(self, policy: SelectionPolicy) -> Blockchain:
        """The selected chain, genesis first. Genesis-only trees read as (g,)."""
        return policy.choose(self)

