"""Concurrent histories over ledger operations.

A history is a finite set of events: invocation/response pairs for append()
and read(), plus single send/receive/update communication events. Three
orders matter:

  process order   per-process sequence of events;
  operation order invocation precedes its own response, and a response at
                  time t precedes any invocation at a strictly later time;
  program order   the transitive closure of the union of the two.

Histories are recorded from a single global logical clock; two events may
share a tick (they are then concurrent across processes). Traces serialize
one event per line as JSON, canonically ordered by (logical_time, event_id).
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple


class TraceError(ValueError):
    """Malformed event stream or trace file."""


class EventKind(enum.Enum):
    INVOCATION = "invocation"
    RESPONSE = "response"
    SEND = "send"
    RECEIVE = "receive"
    UPDATE = "update"


# single events both close and open happens-before edges
_RESPONSE_LIKE = {EventKind.RESPONSE, EventKind.SEND, EventKind.RECEIVE, EventKind.UPDATE}
_INVOCATION_LIKE = {EventKind.INVOCATION, EventKind.SEND, EventKind.RECEIVE, EventKind.UPDATE}

TRACE_FIELDS = ("event_id", "kind", "op", "args", "process", "logical_time", "returned")


@dataclass(frozen=True)
class Event:
    event_id: int
    kind: EventKind
    op: str                       # append | read | send | receive | update | ...
    args: Tuple[Any, ...]
    process: str
    logical_time: int
    returned: Any = None

    def sort_key(self) -> Tuple[int, int]:
        return (self.logical_time, self.event_id)


@dataclass
class Operation:
    """A matched invocation/response pair (response may be missing)."""

    process: str
    op: str
    invocation: Event
    response: Optional[Event] = None

    @property
    def complete(self) -> bool:
        return self.response is not None


def make_event(event_id, kind, op, args=(), process="", logical_time=0, returned=None):
    return Event(event_id=event_id, kind=kind, op=op, args=tuple(args),
                 process=process, logical_time=logical_time, returned=returned)


class History:
    """A validated, canonically ordered event sequence."""

    def __init__(self, events: Iterable[Event], correct: Optional[Set[str]] = None,
                 complete: bool = False):
        self.events: List[Event] = sorted(events, key=Event.sort_key)
        self.complete = complete
        self.processes: List[str] = sorted({e.process for e in self.events})
        self.correct: Set[str] = set(self.processes) if correct is None else set(correct)
        self._by_id = {}
        for e in self.events:
            if e.event_id in self._by_id:
                raise TraceError(f"duplicate event_id {e.event_id}")
            self._by_id[e.event_id] = e
        self._seq: Dict[int, int] = {}        # event_id -> per-process position
        self._proc_events: Dict[str, List[Event]] = {p: [] for p in self.processes}
        for e in self.events:  # canonical order, so per-process times never regress
            lst = self._proc_events[e.process]
            self._seq[e.event_id] = len(lst)
            lst.append(e)
        # event_id -> time of the first response-like event at or after it on
        # its process (inf if none), and of the last invocation-like event at
        # or before it (-inf if none): the two ends of a cross-process edge
        self._out: Dict[int, float] = {}
        self._in: Dict[int, float] = {}
        for lst in self._proc_events.values():
            t: float = -math.inf
            for e in lst:
                if e.kind in _INVOCATION_LIKE:
                    t = e.logical_time
                self._in[e.event_id] = t
            t = math.inf
            for e in reversed(lst):
                if e.kind in _RESPONSE_LIKE:
                    t = e.logical_time
                self._out[e.event_id] = t
        self.operations: List[Operation] = self._match_operations()
        self._reads: List[Operation] = sorted(
            (o for o in self.operations if o.op == "read" and o.complete),
            key=lambda o: o.response.sort_key())
        self._reads_of: Dict[str, List[Operation]] = {p: [] for p in self.processes}
        for o in self._reads:
            self._reads_of[o.process].append(o)

    # -- construction ------------------------------------------------------

    def _match_operations(self) -> List[Operation]:
        """Pair responses with invocations, FIFO per (process, op name)."""
        open_ops: Dict[Tuple[str, str], List[Operation]] = {}
        out: List[Operation] = []
        for e in self.events:
            if e.kind is EventKind.INVOCATION:
                op = Operation(process=e.process, op=e.op, invocation=e)
                open_ops.setdefault((e.process, e.op), []).append(op)
                out.append(op)
            elif e.kind is EventKind.RESPONSE:
                queue = open_ops.get((e.process, e.op), [])
                if not queue:
                    raise TraceError(
                        f"response without invocation: {e.op} at {e.process} "
                        f"(event {e.event_id})")
                queue.pop(0).response = e
        return out

    def event(self, event_id: int) -> Event:
        return self._by_id[event_id]

    def process_events(self, process: str) -> List[Event]:
        return self._proc_events.get(process, [])

    # -- orders --------------------------------------------------------------

    def seq(self, e: Event) -> int:
        return self._seq[e.event_id]

    def po(self, a: Event, b: Event) -> bool:
        """Program order: a happens before b.

        Same process: sequence order. Across processes: there must be a
        response-like event after a on a's process whose time strictly
        precedes an invocation-like event before b on b's process; since
        per-process streams are time ordered and operations are sequential,
        this reduces to comparing a's earliest response-like follow-up with
        b's latest invocation-like lead-in, both indexed at construction.
        """
        if a.process == b.process:
            return self._seq[a.event_id] < self._seq[b.event_id]
        return self._out[a.event_id] < self._in[b.event_id]

    def program_order(self) -> Set[Tuple[int, int]]:
        """All ordered pairs (by id). Quadratic; meant for desk-scale histories."""
        out = set()
        for a in self.events:
            for b in self.events:
                if a.event_id != b.event_id and self.po(a, b):
                    out.add((a.event_id, b.event_id))
        return out

    # -- reads -----------------------------------------------------------------

    def reads(self) -> List[Operation]:
        """Completed reads, ordered by response time."""
        return list(self._reads)

    def reads_of(self, process: str) -> List[Operation]:
        return list(self._reads_of.get(process, ()))

    def reads_after(self, read: Operation) -> List[Operation]:
        """E_r: other completed reads whose response follows read's response."""
        return [
            o for o in self.reads()
            if o is not read and self.po(read.response, o.response)
        ]

    # -- restriction -------------------------------------------------------------

    def restricted(self) -> "History":
        """Keep only the checker-visible events.

        Read invocations/responses at correct processes; append invocations
        carrying valid blocks (any process); send/receive/update at correct
        processes. Everything else (append responses, oracle chatter,
        Byzantine communication) drops out. Idempotent.
        """
        kept = []
        for e in self.events:
            if e.op == "read" and e.process in self.correct:
                kept.append(e)
            elif e.op == "append" and e.kind is EventKind.INVOCATION:
                if _append_is_valid(e):
                    kept.append(e)
            elif e.kind in (EventKind.SEND, EventKind.RECEIVE, EventKind.UPDATE):
                if e.process in self.correct:
                    kept.append(e)
        return History(kept, correct=self.correct, complete=self.complete)

    # -- serialization --------------------------------------------------------------

    def to_jsonl(self) -> str:
        lines = []
        for e in self.events:
            doc = {
                "event_id": e.event_id,
                "kind": e.kind.value,
                "op": e.op,
                "args": list(e.args),
                "process": e.process,
                "logical_time": e.logical_time,
                "returned": e.returned,
            }
            lines.append(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_jsonl(cls, text: str, correct: Optional[Set[str]] = None,
                   complete: bool = False) -> "History":
        events = []
        for n, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(f"line {n}: not JSON ({exc})") from exc
            if not isinstance(doc, dict) or set(doc) != set(TRACE_FIELDS):
                raise TraceError(f"line {n}: fields must be exactly {TRACE_FIELDS}")
            try:
                kind = EventKind(doc["kind"])
            except ValueError as exc:
                raise TraceError(f"line {n}: unknown kind {doc['kind']!r}") from exc
            for key in ("event_id", "logical_time"):
                if not _is_int(doc[key]):
                    raise TraceError(f"line {n}: {key} must be an integer, got {doc[key]!r}")
            if not isinstance(doc["args"], list):
                raise TraceError(f"line {n}: args must be a list, got {doc['args']!r}")
            returned = doc["returned"]
            if kind is EventKind.RESPONSE and doc["op"] == "read" and not (
                    returned is None or (isinstance(returned, list)
                                         and all(isinstance(b, str) for b in returned))):
                raise TraceError(f"line {n}: a read's returned must be null or a "
                                 f"list of block ids, got {returned!r}")
            if isinstance(returned, list):
                returned = tuple(returned)
            events.append(Event(
                event_id=doc["event_id"], kind=kind, op=str(doc["op"]),
                args=tuple(doc["args"]), process=str(doc["process"]),
                logical_time=doc["logical_time"], returned=returned))
        return cls(events, correct=correct, complete=complete)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _append_is_valid(e: Event) -> bool:
    # append invocation args: (block_id, parent_id, valid_flag); scripted
    # histories may omit the flag, which means valid.
    if len(e.args) >= 3:
        return bool(e.args[2])
    return True


def returned_chain(read: Operation) -> Tuple[str, ...]:
    """The id sequence a completed read returned."""
    ret = read.response.returned
    if ret is None:
        return ()
    return tuple(ret)


class Recorder:
    """Accumulates events with fresh ids under a single logical clock."""

    def __init__(self):
        self._events: List[Event] = []
        self._next_id = 0

    def emit(self, kind: EventKind, op: str, process: str, logical_time: int,
             args: Sequence[Any] = (), returned: Any = None) -> Event:
        e = Event(event_id=self._next_id, kind=kind, op=op, args=tuple(args),
                  process=process, logical_time=logical_time, returned=returned)
        self._next_id += 1
        self._events.append(e)
        return e

    def history(self, correct: Optional[Set[str]] = None, complete: bool = False) -> History:
        return History(self._events, correct=correct, complete=complete)
