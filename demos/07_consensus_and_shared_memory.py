"""What a capacity-1 oracle can compute: consensus, CAS, and snapshots.

A frugal capacity-1 oracle is a consensus object: every proposer stamps
its value as a candidate block, tries to consume, and the single block
consumed under genesis is the decision — even proposers whose token was
rejected learn the winner from the returned consumed set. Crashes cannot
break agreement, only remove deciders.

The same consume step reduces to one-shot compare-and-swap, and is itself
implementable from update/snapshot steps — both directions checked below
by exhaustive interleaving.
"""

from btlab import (Block, CrashSchedule, RegisterSpace, cas_equivalence_suite,
                   cas_via_consume, finish, frugal_oracle, interleavings,
                   run_consensus, snapshot_equivalence_suite, Merit)

print("-- consensus from a capacity-1 oracle --")
outcome = run_consensus(seed=7, crash=CrashSchedule(victims=(("p2", 4),)))
for proposer in sorted(outcome.decided):
    print(f"  {proposer} decided {outcome.decided[proposer].id}")
print("  crashed:", outcome.crashed or "nobody",
      "| exhausted:", outcome.exhausted or "nobody")
ids = {b.id for b in outcome.decided.values()}
print("  agreement:", len(ids) == 1, "| decided value is a proposal:",
      all(i.startswith("v-p") for i in ids))

print("\n-- one-shot CAS from consume --")
# one slot: both hold a token for b0, only one consume wins
oracle = frugal_oracle({"x": Merit(1.0), "y": Merit(1.0)}, k=1, seed=1)
first = oracle.get_token("b0", Block("x-val"), "x")
second = oracle.get_token("b0", Block("y-val"), "y")
print("  x swaps:", finish(cas_via_consume(oracle, first)), "(empty = x won the slot)")
print("  y swaps:", sorted(b.id for b in finish(cas_via_consume(oracle, second))),
      "(y sees the winner instead)")

space = RegisterSpace({"slot": frozenset()})
print("  direct register cas behaves identically:",
      space.cas("slot", frozenset(), "x-val") == frozenset())

print("\n-- exhaustive equivalence sweeps --")
print("  interleavings of two 2-step callers:",
      sum(1 for _ in interleavings((2, 2))))
cas = cas_equivalence_suite()
print(f"  cas-vs-consume: {cas.runs} interleavings, "
      f"{len(cas.violations)} mismatches")
snap = snapshot_equivalence_suite()
print(f"  consume-vs-snapshot: {snap.runs} interleavings, "
      f"{len(snap.violations)} mismatches")
