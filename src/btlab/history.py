"""Concurrent histories over ledger operations.

A history is a finite set of events: invocation/response pairs for append()
and read(), plus single send/receive/update communication events. Three
orders matter:

  process order   per-process sequence of events: on each process, the
                  canonical order below;
  operation order invocation precedes its own response, and a response at
                  time t precedes any invocation at a strictly later time;
  program order   the transitive closure of the union of the two.

Histories are recorded from a single global logical clock; two events may
share a tick (they are then concurrent across processes). Traces serialize
one event per line as JSON, canonically ordered by (logical_time, event_id).
A History keeps its events in that one order and no per-process copy of it.

A History validates and sorts its events when it is built, except a
restriction and a simulated run's history (see `History._trusted`): their
events come in canonical order already, and their builder pairs their
operations (a restriction keeps those whose invocation `restrict` kept)
instead of matching them again. Every History lists its operations in the
canonical order of their invocations. Its indexes (program order's two, the
completed reads, and `messages`, which update agreement and LRC read instead
of the events) are built on first use, so a history that is only parsed,
re-wrapped or written out never pays for them. A History is immutable: its
events, processes and operations are tuples, each event and operation is a
named tuple, its correct set is a frozenset and `complete` is read-only, so
whatever is computed from it (an index, a checker's verdict in
`verdict_cache`, an event's trace line in `line_memo`) never goes stale. A
run's restricted and full histories share one line memo, so writing both
traces encodes each event once. The lines are encoded field by field over
all events (`_encode_columns`): one encoder call for every `args` and every
non-null `returned`, cut apart by one rule, the `[` count of `_encode_lists`,
and each distinct `op` and `process` once, not one object per event; one
f-string then joins each event's fields into its line. Anything that rule
refuses is encoded one event at a time.

The decoders only turn JSON into events: a trace is decoded in one call when
every line is a flat event object, else each line by `json.loads`. Both
paths check the same field types (`_FIELD_TYPES`), and neither looks at
what a read returned, which the History judges whether its events were
parsed or built in code.
"""

from __future__ import annotations

import enum
import gc
import json
import math
from functools import cached_property, partial
from itertools import chain
from operator import attrgetter, itemgetter
from typing import (Any, Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Set, Tuple)

from .blocktree import GENESIS_ID


class TraceError(ValueError):
    """Malformed event stream or trace file."""


class EventKind(enum.Enum):
    INVOCATION = "invocation"
    RESPONSE = "response"
    SEND = "send"
    RECEIVE = "receive"
    UPDATE = "update"


# single events both close and open happens-before edges: every kind but an
# invocation is response-like and every kind but a response invocation-like;
# a tuple, because a set lookup would call Enum.__hash__, a Python function
_COMMUNICATION = (EventKind.SEND, EventKind.RECEIVE, EventKind.UPDATE)
_INVOCATION, _RESPONSE = EventKind.INVOCATION, EventKind.RESPONSE
_SEND, _RECEIVE, _UPDATE = _COMMUNICATION

TRACE_FIELDS = ("event_id", "kind", "op", "args", "process", "logical_time", "returned")
_FIELD_SET = frozenset(TRACE_FIELDS)
_fields_of = itemgetter(*TRACE_FIELDS)
_KINDS = {k.value: k for k in EventKind}

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_decode = json.JSONDecoder().decode
_SCALARS = frozenset({str, int, float, bool, type(None)})
# the type of each typed field of a trace line, in the order `decode_events`
# checks them; `_decode_flat` checks them column by column
_FIELD_TYPES = (("event_id", int, "an integer"), ("logical_time", int, "an integer"),
                ("op", str, "a string"), ("process", str, "a string"),
                ("args", list, "a list"))


class Event(NamedTuple):
    event_id: int
    kind: EventKind
    op: str                       # append | read | send | receive | update | ...
    args: Tuple[Any, ...]
    process: str
    logical_time: int
    returned: Any = None


_new_event = partial(tuple.__new__, Event)     # Event._make without its length check
_event_id = attrgetter("event_id")

# (process, str(args[0]), str(args[1])) of a send, receive or update: who
# sent, received or applied the block args[1] whose parent is args[0]
MessageKey = Tuple[str, str, str]
Message = Tuple[Event, MessageKey]


class Messages(NamedTuple):
    """A history's communication index (`History.messages`): its send,
    receive and update events with two or more args, each with its
    `MessageKey`, in canonical order, and what the checkers look up."""

    sends: Tuple[Message, ...]
    receives: Tuple[Message, ...]
    updates: Tuple[Message, ...]
    first_receive: Dict[MessageKey, Event]     # key -> its first receive
    sent: FrozenSet[MessageKey]                # the keys of the sends
    origin: Dict[str, str]      # block -> the process of its first send or update


class Operation(NamedTuple):
    """A matched invocation/response pair (response may be missing)."""

    process: str
    op: str
    invocation: Event
    response: Optional[Event] = None

    @property
    def complete(self) -> bool:
        return self.response is not None


_new_operation = partial(tuple.__new__, Operation)     # Operation._make, likewise


def make_event(event_id, kind, op, args=(), process="", logical_time=0, returned=None):
    if type(returned) is list:          # a tuple, as `decode_events` stores it
        returned = tuple(returned)
    return Event(event_id, kind, op, tuple(args), process, logical_time, returned)


# the one event order: a History's events, and on each process its process order
canonical_order = attrgetter("logical_time", "event_id")


class History:
    """A validated, canonically ordered, immutable event sequence. A read
    returns None or a tuple of string block ids that starts at genesis
    `GENESIS_ID`: `_match_operations` is the one place that rule is judged.
    A history built here has a line memo of its own; only `_trusted` shares
    one between histories."""

    def __init__(self, events: Iterable[Event], correct: Optional[Iterable[str]] = None,
                 complete: bool = False):
        events = tuple(sorted(events, key=canonical_order))
        if len(set(map(_event_id, events))) != len(events):
            seen = set()
            for e in events:
                if e.event_id in seen:
                    raise TraceError(f"duplicate event_id {e.event_id}")
                seen.add(e.event_id)
        self._set(events, correct, complete, _match_operations(events), None)

    @staticmethod
    def _trusted(events: Tuple[Event, ...], correct: Iterable[str], complete: bool,
                 operations: Tuple[Operation, ...],
                 line_memo: Optional[Dict[int, str]] = None) -> "History":
        """The history of `events` and `operations`, with nothing sorted,
        checked or matched, for callers that vouch for what `__init__` would
        establish: the events in canonical order with distinct ids, and the
        operations that matching them gives. `restricted()` keeps a
        subsequence of a checked history's events and, of that history's
        operations, those whose invocation it kept, each with its response
        iff that was kept; `btlab check` re-wraps a parsed history's own.
        `run_scenario` builds each event in `netsim._record`, the one place
        that gives it its position in the run's list as its id, at the tick
        just popped from a heap that pops ticks in non-decreasing order; it
        pops the heap in push order within a tick and action class, pairs each
        response with its invocation as it emits both, in invocation order,
        and records as a read's returned chain the tree's selected one.
        """
        h = History.__new__(History)
        h._set(events, correct, complete, operations, line_memo)
        return h

    def _set(self, events: Tuple[Event, ...], correct: Optional[Iterable[str]],
             complete: bool, operations: Tuple[Operation, ...],
             line_memo: Optional[Dict[int, str]]) -> None:
        """Assign every field: the one place both constructors do it."""
        self.events = events
        # by default every process is correct; `processes` is left to its first use
        self.correct: FrozenSet[str] = frozenset({e.process for e in events}
                                                 if correct is None else correct)
        self._complete = complete
        self.operations = operations
        self.verdict_cache: Dict[Any, Any] = {}   # filled by btlab.checkers
        # event_id -> canonical trace line, filled by to_jsonl; shared only with
        # histories whose events of equal id are the same events
        self.line_memo: Dict[int, str] = {} if line_memo is None else line_memo

    @property
    def complete(self) -> bool:
        """Declared complete: nothing more will ever happen."""
        return self._complete

    # -- indexes, built on first use; they depend on `events` alone --------------

    @cached_property
    def processes(self) -> Tuple[str, ...]:
        """Every process that has an event, sorted."""
        return tuple(sorted({e.process for e in self.events}))

    @cached_property
    def _by_id(self) -> Dict[int, Event]:
        return {e.event_id: e for e in self.events}

    @cached_property
    def _out(self) -> Dict[int, float]:
        """event_id of each invocation -> time of the first response-like
        event after it on its process (inf if none): the tail of a
        cross-process edge. Every other event is response-like."""
        out: Dict[int, float] = {}
        t = dict.fromkeys(self.processes, math.inf)     # process -> latest seen
        for event_id, kind, _, _, process, logical_time, _ in reversed(self.events):
            if kind is _INVOCATION:
                out[event_id] = t[process]
            else:
                t[process] = logical_time
        return out

    @cached_property
    def _in(self) -> Dict[int, float]:
        """event_id of each response -> time of the last invocation-like event
        before it on its process (-inf if none): the head of a cross-process
        edge. Every other event is invocation-like."""
        out: Dict[int, float] = {}
        t = dict.fromkeys(self.processes, -math.inf)    # process -> latest seen
        for event_id, kind, _, _, process, logical_time, _ in self.events:
            if kind is _RESPONSE:
                out[event_id] = t[process]
            else:
                t[process] = logical_time
        return out

    @cached_property
    def _reads(self) -> Tuple[Operation, ...]:
        """Completed reads, sorted by response."""
        return tuple(sorted((o for o in self.operations if o.op == "read" and o.complete),
                            key=lambda o: canonical_order(o.response)))

    @cached_property
    def _reads_of(self) -> Dict[str, Tuple[Operation, ...]]:
        out: Dict[str, List[Operation]] = {p: [] for p in self.processes}
        for o in self._reads:
            out[o.process].append(o)
        return {p: tuple(ops) for p, ops in out.items()}

    @cached_property
    def messages(self) -> Messages:
        """The communication index, in one pass over the events. A block's
        origin is keyed by its id alone, whatever parent it is named under."""
        sends: List[Message] = []
        receives: List[Message] = []
        updates: List[Message] = []
        first_receive: Dict[MessageKey, Event] = {}
        origin: Dict[str, str] = {}
        for e in self.events:
            kind, args = e.kind, e.args
            if kind is _INVOCATION or kind is _RESPONSE or len(args) < 2:
                continue
            key = (e.process, str(args[0]), str(args[1]))
            if kind is _RECEIVE:
                receives.append((e, key))
                first_receive.setdefault(key, e)
            else:
                (sends if kind is _SEND else updates).append((e, key))
                origin.setdefault(key[2], e.process)
        return Messages(tuple(sends), tuple(receives), tuple(updates), first_receive,
                        frozenset([key for _, key in sends]), origin)

    def event(self, event_id: int) -> Event:
        return self._by_id[event_id]

    # -- orders --------------------------------------------------------------

    def po(self, a: Event, b: Event) -> bool:
        """Program order: a happens before b.

        Same process: canonical order. Across processes: there must be a
        response-like event after a on a's process whose time strictly
        precedes an invocation-like event before b on b's process; since
        per-process streams are time ordered and operations are sequential,
        this reduces to comparing a's earliest response-like follow-up with
        b's latest invocation-like lead-in, both indexed on first use. Every
        event but an invocation is its own follow-up and every event but a
        response its own lead-in, so only an invocation `a` reads `_out` and
        only a response `b` reads `_in`.
        """
        if a.process == b.process:
            return canonical_order(a) < canonical_order(b)
        return ((self._out[a.event_id] if a.kind is _INVOCATION else a.logical_time)
                < (self._in[b.event_id] if b.kind is _RESPONSE else b.logical_time))

    # -- reads -----------------------------------------------------------------

    def reads(self) -> Tuple[Operation, ...]:
        """Completed reads, ordered by response time."""
        return self._reads

    def reads_of(self, process: str) -> Tuple[Operation, ...]:
        return self._reads_of.get(process, ())

    # -- restriction -------------------------------------------------------------

    def restricted(self) -> "History":
        """Keep only the checker-visible events (see `restrict`). Idempotent.

        The kept events are a subsequence of these, sorted and validated, so
        they are neither sorted nor matched again: each operation whose
        invocation `restrict` kept stays, with its response iff that was kept
        too. Of one process's invocations and responses of one op, `restrict`
        keeps all or none, or, of an append, some invocations and no
        response, so matching the kept events pairs them as here. The result
        shares this history's line memo: its events are these.
        """
        events = tuple(restrict(self.events, self.correct))
        kept = set(map(_event_id, events))
        operations = tuple([
            o if o.response is None or o.response.event_id in kept
            else _new_operation((o.process, o.op, o.invocation, None))
            for o in self.operations if o.invocation.event_id in kept])
        return History._trusted(events, self.correct, self.complete, operations,
                                self.line_memo)

    # -- serialization --------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One canonical JSON object per line. Events whose line is not in
        `line_memo` yet are encoded first, in one call, and memoised, so the
        histories that share a memo encode each event at most once."""
        if not self.events:
            return ""
        memo = self.line_memo
        fresh = [e for e in self.events if e.event_id not in memo]
        if fresh:
            memo.update(zip([e.event_id for e in fresh], _encode_lines(fresh)))
        return "\n".join([memo[e.event_id] for e in self.events]) + "\n"

    @classmethod
    def from_jsonl(cls, text: str, correct: Optional[Set[str]] = None,
                   complete: bool = False) -> "History":
        """Parse a trace: in one decoder call when every line is a flat event
        object (see `_decode_flat`), else line by line."""
        # the one-call decode holds every event's dict and lists at once; a
        # collection during it would traverse and promote them all, and it
        # makes no reference cycle, so the collector waits until it is done
        collecting = gc.isenabled()
        gc.disable()
        try:
            events = _decode_flat(text)
        finally:
            if collecting:
                gc.enable()
        if events is None:
            events = decode_events(_json_lines(text), "line")
        return cls(events, correct=correct, complete=complete)


def _match_operations(events: Sequence[Event]) -> Tuple[Operation, ...]:
    """Pair responses with invocations, FIFO per (process, op name), and
    check each read's returned chain (see `fresh_ids`)."""
    open_ops: Dict[Tuple[str, str], List[int]] = {}  # -> positions in `ops`
    ops: List[List[Any]] = []        # [process, op, invocation, response]
    chains: Dict[str, Tuple] = {}    # process -> its last read's checked chain
    for e in events:
        kind = e.kind               # most events are neither: unpack only a response
        if kind is _INVOCATION:
            key = (e.process, e.op)
            queue = open_ops.get(key)
            if queue is None:
                open_ops[key] = [len(ops)]
            else:
                queue.append(len(ops))
            ops.append([e.process, e.op, e, None])
        elif kind is _RESPONSE:
            _, _, op, _, process, _, returned = e
            queue = open_ops.get((process, op))
            if not queue:
                raise TraceError(
                    f"response without invocation: {op} at {process} "
                    f"(event {e.event_id})")
            if op == "read" and returned is not None:
                prev = chains.get(process, ())
                if returned is not prev:
                    if type(returned) is not tuple or returned and (
                            returned[0] != GENESIS_ID or not all(
                                [type(b) is str for b in fresh_ids(returned, prev)])):
                        raise TraceError(
                            f"a read's returned must be None or a tuple of block ids "
                            f"that start at genesis {GENESIS_ID!r}, got {returned!r} "
                            f"(event {e.event_id})")
                    chains[process] = returned
            ops[queue.pop(0)][3] = e
    return tuple(map(_new_operation, ops))


def _encode_lines(events: Sequence[Event]) -> List[str]:
    """The canonical line of each event: column by column when every column
    keeps its rule (see `_encode_columns`), else each event on its own with
    sorted keys."""
    lines = _encode_columns(events)
    if lines is None:
        lines = [_ENCODER.encode({"args": list(args), "event_id": event_id,
                                  "kind": kind._value_, "logical_time": logical_time,
                                  "op": op, "process": process, "returned": returned})
                 for event_id, kind, op, args, process, logical_time, returned in events]
    return lines


def _encode_columns(events: Sequence[Event]) -> Optional[List[str]]:
    """The canonical line of each event, its fields encoded column by column;
    None when a column breaks its rule.

    Each line is one f-string with the keys in sorted order. Every
    `event_id` and `logical_time` must be an exact `int`, written in decimal
    (an f-string writes an exact `int` as the encoder does), and every `op`
    and `process` an exact `str`: each distinct one is encoded once. Every
    `args` list and every non-null `returned` are encoded in one call (see
    `_encode_lists`): a tuple `returned`, a read's chain or a consumed set,
    as it is, any other value, an attempt count or an append's result, in a
    1-tuple whose brackets are cut off again. A `returned` None is `null`.
    """
    ids, kinds, ops, args, processes, times, returned = zip(*events)
    if ((_types(ids) | _types(times)) != {int} or (_types(ops) | _types(processes)) != {str}
            or not _types(args) <= {tuple, list}):
        return None
    lists = _encode_lists([*args, *[r if type(r) is tuple else (r,)
                                    for r in returned if r is not None]])
    if lists is None:
        return None
    strings = {s: _ENCODER.encode(s) for s in {*ops, *processes}}
    values = iter(lists[len(args):])       # the non-null `returned`, after the args
    returned = ["null" if r is None else next(values) if type(r) is tuple
                else next(values)[1:-1] for r in returned]
    # keys in sorted order. A kind's name is its member's own `_value_`
    # (`.value` is a descriptor, a Python function) and holds nothing JSON escapes
    return [f'{{"args":{a},"event_id":{i},"kind":"{k._value_}","logical_time":{t},'
            f'"op":{strings[o]},"process":{strings[p]},"returned":{r}}}'
            for a, i, k, o, p, t, r in zip(lists, ids, kinds, ops, processes, times, returned)]


def _encode_lists(values: Sequence[Sequence[Any]]) -> Optional[List[str]]:
    """The encoded list of each of `values` (lists or tuples), from one
    encoder call; None when one holds a list or a string holds `[`.

    Each value opens one `[` inside the outer one, so the output holds
    exactly `len(values) + 1` iff no list nests and no string holds `[`.
    Then `],[` occurs only between two values and becomes a line break (an
    encoded string holds no raw newline).
    """
    if not values:
        return []
    body = _ENCODER.encode(values)
    if body.count("[") != len(values) + 1:
        return None
    return body[1:-1].replace("],[", "]\n[").split("\n")


def _types(column: Iterable[Any]) -> Set[type]:
    return set(map(type, column))


def _decode_flat(text: str) -> Optional[List[Event]]:
    """The events of a trace whose every line is a flat event object, from one
    decoder call; None when the trace must be decoded line by line.

    The non-blank stripped lines, those `_json_lines` decodes, are joined
    into one JSON array. A strict JSON string holds no raw newline, so a
    value that ran past the end of its line would go on after the inserted
    `,\n` inside an object, where the next line's opening `{` cannot be a
    key, or inside an array, where an object would sit in a list. So when
    every line starts with `{`, the array holds one value per line, and
    every value is flat (its `args` holds only scalars and its `returned` is
    a scalar or a list of scalars, so no container sits inside a list), each
    line decodes on its own to the same value. The values are kept only if
    they pass every `decode_events` rule, checked column by column; anything
    else is left to the line-by-line path, which words the error.
    """
    lines = list(filter(None, map(str.strip, text.splitlines())))
    if not lines or any([line[0] != "{" for line in lines]):
        return None
    count = len(lines)
    lines[0] = "[" + lines[0]           # the brackets, without copying the joined text
    lines[-1] += "]"
    joined = ",\n".join(lines)
    del lines
    try:
        docs = _decode(joined)
    except (ValueError, RecursionError):    # JSONDecodeError is a ValueError
        return None
    del joined
    if len(docs) != count or _types(docs) != {dict} or set(map(len, docs)) != {7}:
        return None
    try:            # seven keys, each a field: exactly the fields
        columns = {name: list(map(itemgetter(name), docs)) for name in TRACE_FIELDS}
        kinds = list(map(_KINDS.__getitem__, columns["kind"]))
    except (KeyError, TypeError):       # a missing field; an unknown or unhashable kind
        return None
    del docs
    args, returned = columns["args"], columns["returned"]
    if (any([_types(columns[field]) != {want} for field, want, _ in _FIELD_TYPES])
            or not _types(chain.from_iterable(args)) <= _SCALARS
            or not _types(returned) <= _SCALARS | {list}
            or not _types(chain.from_iterable([r for r in returned
                                               if type(r) is list])) <= _SCALARS):
        return None
    return list(map(_new_event, zip(
        columns["event_id"], kinds, columns["op"], map(tuple, args), columns["process"],
        columns["logical_time"], [tuple(r) if type(r) is list else r for r in returned])))


def _json_lines(text: str) -> Iterator[Tuple[int, Any]]:
    """(line number, decoded JSON value) for each non-blank line of a trace."""
    for n, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except (ValueError, RecursionError) as exc:   # JSONDecodeError is a ValueError
            raise TraceError(f"line {n}: not JSON ({exc})") from exc
        yield n, doc


def decode_events(docs: Iterable[Tuple[int, Any]], where: str) -> List[Event]:
    """The events of (position, value) pairs, checked in order: trace lines or
    script events. An error names the first bad value as "{where} {position}".
    The rules are those of the trace format (see the README)."""
    events = []
    for n, doc in docs:
        if type(doc) is not dict or doc.keys() != _FIELD_SET:
            raise TraceError(f"{where} {n}: fields must be exactly {TRACE_FIELDS}")
        event_id, kind, op, args, process, logical_time, returned = _fields_of(doc)
        try:
            kind = _KINDS[kind]
        except (KeyError, TypeError):   # TypeError: an unhashable kind
            raise TraceError(f"{where} {n}: unknown kind {kind!r}") from None
        # JSON yields no int subclass but bool, which `type(...) is int` excludes
        for field, want, noun in _FIELD_TYPES:
            if type(doc[field]) is not want:
                raise TraceError(f"{where} {n}: {field} must be {noun}, got {doc[field]!r}")
        events.append(make_event(event_id, kind, op, args, process, logical_time, returned))
    return events


def restrict(events: Iterable[Event], correct: Set[str]) -> List[Event]:
    """The checker-visible events, in their given order.

    Read invocations/responses at correct processes; append invocations
    carrying valid blocks (any process; their args are (block_id, parent_id,
    valid_flag), and an omitted flag means valid); send/receive/update at
    correct processes. Everything else (append responses, oracle chatter,
    Byzantine communication) drops out.
    """
    kept: List[Event] = []
    keep = kept.append
    for e in events:
        op = e.op
        if op == "read":
            if e.process in correct:
                keep(e)
        elif op == "append" and e.kind is _INVOCATION:
            if len(e.args) < 3 or e.args[2]:
                keep(e)
        elif e.kind in _COMMUNICATION and e.process in correct:
            keep(e)
    return kept


def fresh_ids(chain: Tuple, prev: Tuple) -> Tuple:
    """The ids of `chain` beyond `prev` when it extends `prev`, else all of
    them: what a process's read adds to what its previous read showed."""
    if chain is prev:
        return ()
    n = len(prev)
    return chain[n:] if chain[:n] == prev else chain


def returned_chain(read: Operation) -> Tuple[str, ...]:
    """The id sequence a completed read returned, as stored."""
    return read.response.returned or ()

