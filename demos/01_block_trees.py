"""Block trees and chain selection.

A block tree is a rooted tree of blocks with two operations. read()
returns one chain, genesis first: the longest, with ties broken toward the
lexicographically largest id sequence, so every replica that sees the same
blocks selects the same chain. append(b) attaches a block at that chain's
leaf.
"""

from btlab import Block, BlockTree, mcps

tree = BlockTree()
print("fresh tree reads:", list(tree.read()))

# Grow a main chain a1 -> a2, then fork a competitor b1 off genesis.
for block in (Block("a1", "b0"), Block("a2", "a1"), Block("b1", "b0")):
    tree.insert(block)

print("leaves:", sorted(tree.leaves()))
print("forks at genesis:", tree.fork_count("b0"))

selected = tree.read()
print("selected chain:", list(selected), "(longest wins)")

# Ties break by id sequence: c1 makes the fork as long as the main chain.
tree.insert(Block("c1", "b1"))
selected = tree.read()
print("after c1, selected:", list(selected),
      "(equal length, larger ids win)")

# append() is the ADT transition: it only accepts a block whose parent is
# the *currently selected* leaf, then re-selects.
fresh = Block("d1")                      # parent left open: bound on append
accepted = tree.append(fresh)
print("append d1 accepted:", accepted, "->", list(tree.read()))

stale = Block("e1", "a2")                # a2 is no longer the selected leaf
print("append under stale leaf accepted:", tree.append(stale))

# A chain's score is its length; chains are compared by the score of their
# maximal common prefix.
left, right = tree.chain_to("a2"), tree.read()
print("score(left) =", len(left), " score(selected) =",
      len(right), " mcps =", mcps(left, right))
