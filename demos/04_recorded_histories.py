"""Concurrent histories: events, program order, restriction, traces.

Checkers never look at live objects — they look at recorded histories:
invocation/response pairs for reads and appends, plus send/receive/update
events for communication. Histories serialize to canonical JSON lines, so
traces diff cleanly and replay byte-identically.
"""

from btlab import EventKind, History, make_event

events = []


def emit(kind, op, process, t, args=(), returned=None):
    """Record the next event; its id is its position."""
    events.append(make_event(len(events), kind, op, args, process, t, returned))


# Process p appends a1 and broadcasts it; q receives, applies, then reads.
emit(EventKind.INVOCATION, "append", "p", 1, args=("a1", "b0", True))
emit(EventKind.RESPONSE, "append", "p", 2, returned=True)
emit(EventKind.SEND, "send", "p", 2, args=("b0", "a1"))
emit(EventKind.RECEIVE, "receive", "q", 4, args=("b0", "a1"))
emit(EventKind.UPDATE, "update", "q", 4, args=("b0", "a1"))
emit(EventKind.INVOCATION, "read", "q", 5)
emit(EventKind.RESPONSE, "read", "q", 6, returned=("b0", "a1"))
emit(EventKind.INVOCATION, "read", "p", 3)      # overlaps q's activity
emit(EventKind.RESPONSE, "read", "p", 7, returned=("b0", "a1"))

h = History(events, correct={"p", "q"}, complete=True)
print("processes:", h.processes)
print("operations:", [(o.process, o.op) for o in h.operations])

# Program order: per-process sequence plus cross-process response->invocation
# edges. q's read follows p's append (the send/receive bridge), while the
# two reads overlap in real time and stay unordered.
append = h.operations[0]
q_read, p_read = h.reads()
print("append -> q.read ordered:", h.po(append.response, q_read.invocation))
print("q.read vs p.read ordered:",
      h.po(q_read.response, p_read.invocation)
      or h.po(p_read.response, q_read.invocation), "(concurrent)")

# Traces round-trip through canonical JSON lines.
wire = h.to_jsonl()
print("first trace line:", wire.splitlines()[0])
again = History.from_jsonl(wire, correct=h.correct, complete=True)
print("round-trip identical:", again.to_jsonl() == wire)

# Restriction drops what checkers must not see: reads at faulty processes,
# appends flagged invalid, oracle chatter. Byzantine appends stay visible —
# their blocks really entered the tree.
emit(EventKind.INVOCATION, "read", "byz", 8)
emit(EventKind.RESPONSE, "read", "byz", 9, returned=("b0", "lie"))
emit(EventKind.INVOCATION, "append", "byz", 10, args=("z1", "a1", True))
noisy = History(events, correct={"p", "q"}, complete=True)
clean = noisy.restricted()
print("before restriction:", len(noisy.events), "events;",
      "after:", len(clean.events))
print("byz read survives:", any(e.process == "byz" and e.op == "read"
                                for e in clean.events))
print("byz append survives:", any(e.process == "byz" and e.op == "append"
                                  for e in clean.events))
