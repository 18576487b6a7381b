"""Refining the block tree with an oracle: append = grant loop + consume.

A refined ledger wires a tree to an oracle. Its append selects the leaf
once, keeps asking for a token against it (nothing changes the local tree
meanwhile), consumes it, and reports one of three outcomes: APPENDED,
REJECTED (someone else used up the parent's capacity), or EXHAUSTED (the
grant budget ran out before a token arrived).
"""

from btlab import (AppendStatus, Block, BlockTree, Merit, RefinedLedger,
                   frugal_oracle)

oracle = frugal_oracle({"fast": Merit(1.0), "slow": Merit(1.0)}, k=1, seed=9)
fast = RefinedLedger(oracle=oracle, tree=BlockTree())
slow = RefinedLedger(oracle=oracle, tree=BlockTree())   # same oracle, own replica

res = fast.refined_append(Block("f1"), "fast")
print("fast appends f1:", res.status, "after", res.attempts, "attempt(s)")
print("fast's chain:", list(fast.read()))

# slow still sees only genesis, so it also targets parent b0 — and the
# oracle's k=1 capacity for b0 is already spent.
res = slow.refined_append(Block("s1"), "slow")
print("slow appends s1:", res.status,
      "| consumed under b0:", sorted(b.id for b in res.consumed))

# Convergence: slow integrates the block the oracle actually consumed,
# then its next append lands one level down.
winner = next(iter(res.consumed))
print("slow integrates", winner.id, "->", slow.integrate(winner))
res = slow.refined_append(Block("s2"), "slow")
print("slow retries:", res.status,
      "chain:", list(slow.read()))

# Forged or duplicate blocks never integrate.
print("forged block integrates:", slow.integrate(Block("fake", "b0")))
print("duplicate integrates:", slow.integrate(winner))

# EXHAUSTED: a hopeless merit with a tiny grant budget gives up cleanly.
broke = RefinedLedger(
    oracle=frugal_oracle({"unlucky": Merit(1e-12)}, k=1, seed=9),
    tree=BlockTree())
broke.max_grant_attempts = 5
res = broke.refined_append(Block("u1"), "unlucky")
print("unlucky:", res.status, "after", res.attempts, "attempts",
      "| tree untouched:", list(broke.read()))
assert res.status is AppendStatus.EXHAUSTED
