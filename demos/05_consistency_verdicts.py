"""Consistency checkers: three-valued verdicts over recorded histories.

The strong criterion demands that any two reads be prefix-comparable; the
eventual criterion tolerates transient forks that later heal. Safety
violations FAIL with a minimal witness. Eventuality clauses answer
INCONCLUSIVE on running histories and only FAIL once a history is
declared complete — a fork that *might* still heal is not a violation.
"""

from btlab import EventKind, History, make_event, run_checker

INV, RSP = EventKind.INVOCATION, EventKind.RESPONSE
WINDOW = 1               # trailing reads per process that must agree


def forked_history(heals: bool, complete: bool):
    events = []

    def emit(kind, op, process, t, args=(), returned=None):
        events.append(make_event(len(events), kind, op, args, process, t, returned))
    t = 0
    for block, proc in (("a1", "p"), ("b1", "q"), ("a2", "p"), ("a3", "p")):
        emit(INV, "append", proc, t, args=(block, "b0", True))
        emit(RSP, "append", proc, t + 1, returned=True)
        t += 2
    spans = [
        ("p", ("b0", "a1")), ("q", ("b0", "b1")),      # incomparable fork
    ]
    if heals:
        spans += [("p", ("b0", "a1", "a2")), ("q", ("b0", "a1", "a2")),
                  ("p", ("b0", "a1", "a2", "a3")), ("q", ("b0", "a1", "a2", "a3"))]
    else:
        spans += [("p", ("b0", "a1")), ("q", ("b0", "b1")),
                  ("p", ("b0", "a1")), ("q", ("b0", "b1"))]
    for proc, chain in spans:
        emit(INV, "read", proc, t)
        emit(RSP, "read", proc, t + 1, returned=chain)
        t += 2
    return History(events, correct={"p", "q"}, complete=complete)


healed = forked_history(heals=True, complete=True)
for crit in ("strong-prefix", "sc", "ec"):
    v = run_checker(crit, healed, WINDOW)
    print(f"healed fork   {crit:14s} -> {v.status:12s} witness={list(v.witness)}")
print("  the early fork breaks the strong criterion forever,")
print("  but the shared suffix satisfies the eventual one.\n")

running = forked_history(heals=False, complete=False)
v = run_checker("ec", running, WINDOW)
print(f"running fork  {'ec':14s} -> {v.status:12s} ({v.detail or 'no detail'})")

finished = forked_history(heals=False, complete=True)
v = run_checker("ec", finished, WINDOW)
print(f"complete fork {'ec':14s} -> {v.status:12s} witness={list(v.witness)}")
print("  same divergence: INCONCLUSIVE while running, FAIL once complete.")
