"""Reference oracles: the straightforward, quadratic checkers and trace codec.

These are the definitions the indexed checkers in btlab.checkers must agree
with, verdict for verdict: the same status, witness, detail and parts. Each
function recomputes what it needs from the event lists on every call (program
order scans a process's events, `reads` sorts every time), so they are slow
but short enough to read against the paper's definitions. Process order is
the order of a process's events in `h.events`: each history's per-process
lists and positions are the one thing kept, so the checks stay quadratic.
A read's score is the length of its chain. Of btlab.checkers they take only
Verdict, Status and DEFAULT_WINDOW: how events are selected and how verdicts
compose is restated here, so a change there cannot move both sides at once.
The trace codec at the end encodes one event per `json.dumps` call and
decodes one line per `json.loads` call; History.to_jsonl and
History.from_jsonl must give the same bytes, the same events and the same
errors.
"""

import json
import weakref
from typing import Any, Dict, List, Optional, Set, Tuple

from btlab.blocktree import mcps, prefix_comparable
from btlab.checkers import DEFAULT_WINDOW, Status, Verdict
from btlab.history import (TRACE_FIELDS, Event, EventKind, History, Operation, TraceError,
                           returned_chain)


# -- orders and reads -----------------------------------------------------------

# single events both close and open happens-before edges
_RESPONSE_LIKE = (EventKind.RESPONSE, EventKind.SEND, EventKind.RECEIVE, EventKind.UPDATE)
_INVOCATION_LIKE = (EventKind.INVOCATION, EventKind.SEND, EventKind.RECEIVE, EventKind.UPDATE)

# History -> (process -> its events, event_id -> position there)
_PROCESS_ORDER: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _process_order(h: History) -> Tuple[Dict[str, List[Event]], Dict[int, int]]:
    """(process -> its events, event_id -> position there), from `h.events`."""
    if h not in _PROCESS_ORDER:
        events: Dict[str, List[Event]] = {}
        for e in h.events:
            events.setdefault(e.process, []).append(e)
        position = {e.event_id: i for lst in events.values() for i, e in enumerate(lst)}
        _PROCESS_ORDER[h] = (events, position)
    return _PROCESS_ORDER[h]


def _first_response_like_time(h: History, e: Event) -> Optional[int]:
    events, position = _process_order(h)
    for ev in events[e.process][position[e.event_id]:]:
        if ev.kind in _RESPONSE_LIKE:
            return ev.logical_time
    return None


def _last_invocation_like_time(h: History, e: Event) -> Optional[int]:
    events, position = _process_order(h)
    for ev in reversed(events[e.process][: position[e.event_id] + 1]):
        if ev.kind in _INVOCATION_LIKE:
            return ev.logical_time
    return None


def _before_on_process(h: History, a: Event, b: Event) -> bool:
    """a precedes b on their common process."""
    position = _process_order(h)[1]
    return position[a.event_id] < position[b.event_id]


def po(h: History, a: Event, b: Event) -> bool:
    if a.event_id == b.event_id:
        return False
    if a.process == b.process:
        return _before_on_process(h, a, b)
    t_out = _first_response_like_time(h, a)
    t_in = _last_invocation_like_time(h, b)
    return t_out is not None and t_in is not None and t_out < t_in


def reads(h: History) -> List[Operation]:
    done = [o for o in h.operations if o.op == "read" and o.complete]
    return sorted(done, key=lambda o: (o.response.logical_time, o.response.event_id))


def reads_of(h: History, process: str) -> List[Operation]:
    return [o for o in reads(h) if o.process == process]


def reads_after(h: History, read: Operation) -> List[Operation]:
    return [o for o in reads(h) if o is not read and po(h, read.response, o.response)]


def _split_window(h: History, window: int):
    in_window: Set[int] = set()
    for p in h.processes:
        for op in reads_of(h, p)[-window:]:
            in_window.add(op.response.event_id)
    refs = [r for r in reads(h) if r.response.event_id not in in_window]
    return refs, in_window


# -- criteria ------------------------------------------------------------------------


def check_block_validity(h: History, genesis_id: str = "b0") -> Verdict:
    appends: Dict[str, List[Event]] = {}
    for e in h.events:
        if e.op == "append" and e.kind is EventKind.INVOCATION and e.args:
            appends.setdefault(str(e.args[0]), []).append(e)
    for read in reads(h):
        rsp = read.response
        for block_id in returned_chain(read):
            if block_id == genesis_id:
                continue
            ok = any(
                inv.logical_time < rsp.logical_time
                or (inv.process == rsp.process and _before_on_process(h, inv, rsp))
                for inv in appends.get(block_id, [])
            )
            if not ok:
                return Verdict(
                    "block-validity", Status.FAIL, (rsp.event_id,),
                    f"read returned {block_id!r} with no prior append")
    return Verdict("block-validity", Status.PASS)


def check_local_monotonic_read(h: History) -> Verdict:
    for p in h.processes:
        per = reads_of(h, p)
        for earlier, later in zip(per, per[1:]):
            if len(returned_chain(later)) < len(returned_chain(earlier)):
                return Verdict(
                    "local-monotonic-read", Status.FAIL,
                    (earlier.response.event_id, later.response.event_id),
                    f"score fell at {p}: "
                    f"{len(returned_chain(earlier))} -> {len(returned_chain(later))}")
    return Verdict("local-monotonic-read", Status.PASS)


def check_strong_prefix(h: History) -> Verdict:
    rs = reads(h)
    for i, a in enumerate(rs):
        for b in rs[i + 1:]:
            ca, cb = returned_chain(a), returned_chain(b)
            if not ca or not cb:
                continue
            if not prefix_comparable(ca, cb):
                return Verdict(
                    "strong-prefix", Status.FAIL,
                    (a.response.event_id, b.response.event_id),
                    f"{'/'.join(ca)} vs {'/'.join(cb)}")
    return Verdict("strong-prefix", Status.PASS)


def check_ever_growing_tree(h: History, window: int = DEFAULT_WINDOW) -> Verdict:
    refs, in_window = _split_window(h, window)
    for r in refs:
        s = len(returned_chain(r))
        for later in reads(h):
            if later is r or later.response.event_id not in in_window:
                continue
            if not po(h, r.response, later.invocation):
                continue
            if len(returned_chain(later)) <= s:
                return Verdict(
                    "ever-growing-tree", Status.INCONCLUSIVE,
                    (r.response.event_id, later.response.event_id),
                    f"window read score {len(returned_chain(later))} <= {s}")
    return Verdict("ever-growing-tree", Status.PASS)


def check_eventual_prefix(h: History, window: int = DEFAULT_WINDOW) -> Verdict:
    refs, in_window = _split_window(h, window)
    for r in refs:
        s = len(returned_chain(r))
        tail = [o for o in reads_after(h, r) if o.response.event_id in in_window]
        for i, a in enumerate(tail):
            for b in tail[i + 1:]:
                ca, cb = returned_chain(a), returned_chain(b)
                if not ca or not cb:
                    continue
                if mcps(ca, cb) < s:
                    status = Status.FAIL if h.complete else Status.INCONCLUSIVE
                    return Verdict(
                        "eventual-prefix", status,
                        (r.response.event_id, a.response.event_id, b.response.event_id),
                        f"window reads agree only below score {s}")
    return Verdict("eventual-prefix", Status.PASS)


def _comm_events(h: History, kind: str) -> List[Event]:
    """The send, receive or update events naming a (parent, block) pair."""
    return [e for e in h.events if e.kind.value == kind and len(e.args) >= 2]


def _block_owner(h: History) -> Dict[str, str]:
    """block -> the process of the first send or update naming it: walking
    the history backwards, the last one written."""
    owner: Dict[str, str] = {}
    for e in reversed(h.events):
        if e.kind in (EventKind.SEND, EventKind.UPDATE) and len(e.args) >= 2:
            owner[str(e.args[1])] = e.process
    return owner


def check_update_agreement(h: History) -> Verdict:
    sends = _comm_events(h, "send")
    receives = _comm_events(h, "receive")
    updates = _comm_events(h, "update")
    owner = _block_owner(h)

    def has(events: List[Event], process: Optional[str], parent: str, block: str):
        return [e for e in events
                if (process is None or e.process == process)
                and str(e.args[0]) == parent and str(e.args[1]) == block]

    for u in updates:
        parent, block = str(u.args[0]), str(u.args[1])
        if owner.get(block) == u.process:
            continue
        prior = [e for e in has(receives, u.process, parent, block)
                 if _before_on_process(h, e, u)]
        if not prior:
            return Verdict("update-agreement", Status.FAIL, (u.event_id,),
                           f"R2: {u.process} updated {block!r} without a "
                           "prior local receive")
    for u in updates:
        parent, block = str(u.args[0]), str(u.args[1])
        if owner.get(block) != u.process:
            continue
        if not has(sends, u.process, parent, block):
            status = Status.FAIL if h.complete else Status.INCONCLUSIVE
            return Verdict("update-agreement", status, (u.event_id,),
                           f"R1: {u.process} updated own block {block!r} "
                           "without ever broadcasting it")
    for u in updates:
        parent, block = str(u.args[0]), str(u.args[1])
        missing = [p for p in sorted(h.correct)
                   if not has(receives, p, parent, block)]
        if missing:
            status = Status.FAIL if h.complete else Status.INCONCLUSIVE
            return Verdict("update-agreement", status, (u.event_id,),
                           f"R3: {block!r} was updated but never received at "
                           f"{', '.join(missing)}")
    return Verdict("update-agreement", Status.PASS)


def check_lrc(h: History) -> Verdict:
    receives = _comm_events(h, "receive")
    got = {(e.process, str(e.args[0]), str(e.args[1])) for e in receives}
    for e in _comm_events(h, "send"):
        if e.process not in h.correct:
            continue
        if (e.process, str(e.args[0]), str(e.args[1])) not in got:
            status = Status.FAIL if h.complete else Status.INCONCLUSIVE
            return Verdict("lrc", status, (e.event_id,),
                           f"validity: {e.process} never delivered its own "
                           f"broadcast of {e.args[1]!r}")
    for e in receives:
        if e.process not in h.correct:
            continue
        parent, block = str(e.args[0]), str(e.args[1])
        missing = [p for p in sorted(h.correct) if (p, parent, block) not in got]
        if missing:
            status = Status.FAIL if h.complete else Status.INCONCLUSIVE
            return Verdict("lrc", status, (e.event_id,),
                           f"agreement: {block!r} reached {e.process} but not "
                           f"{', '.join(missing)}")
    return Verdict("lrc", Status.PASS)


def conjunction(name: str, parts: List[Verdict]) -> Verdict:
    """The first failing part's verdict, else the first inconclusive one's,
    else a pass; every part is kept by criterion."""
    by_name = {v.criterion: v for v in parts}
    for status, verb in ((Status.FAIL, "failed"), (Status.INCONCLUSIVE, "inconclusive")):
        for v in parts:
            if v.status == status:
                return Verdict(name, status, v.witness, f"{v.criterion} {verb}: {v.detail}",
                               by_name)
    return Verdict(name, Status.PASS, (), "", by_name)


def check_sc(h: History, window: int = DEFAULT_WINDOW) -> Verdict:
    return conjunction("sc", [
        check_block_validity(h),
        check_local_monotonic_read(h),
        check_strong_prefix(h),
        check_ever_growing_tree(h, window),
    ])


def check_ec(h: History, window: int = DEFAULT_WINDOW) -> Verdict:
    return conjunction("ec", [
        check_block_validity(h),
        check_local_monotonic_read(h),
        check_ever_growing_tree(h, window),
        check_eventual_prefix(h, window),
    ])


CHECKERS = {
    "block-validity": lambda h, window: check_block_validity(h),
    "local-monotonic-read": lambda h, window: check_local_monotonic_read(h),
    "strong-prefix": lambda h, window: check_strong_prefix(h),
    "ever-growing-tree": check_ever_growing_tree,
    "eventual-prefix": check_eventual_prefix,
    "update-agreement": lambda h, window: check_update_agreement(h),
    "lrc": lambda h, window: check_lrc(h),
    "sc": check_sc,
    "ec": check_ec,
}


# -- trace codec -----------------------------------------------------------------------


def to_jsonl(h: History) -> str:
    lines = []
    for e in h.events:
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


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def from_jsonl(text: str, correct: Optional[Set[str]] = None,
               complete: bool = False) -> History:
    events = []
    for n, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except (ValueError, RecursionError) as exc:
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
        for key in ("op", "process"):
            if not isinstance(doc[key], str):
                raise TraceError(f"line {n}: {key} must be a string, got {doc[key]!r}")
        if not isinstance(doc["args"], list):
            raise TraceError(f"line {n}: args must be a list, got {doc['args']!r}")
        returned = doc["returned"]
        if isinstance(returned, list):
            returned = tuple(returned)
        events.append(Event(
            event_id=doc["event_id"], kind=kind, op=doc["op"],
            args=tuple(doc["args"]), process=doc["process"],
            logical_time=doc["logical_time"], returned=returned))
    return History(events, correct=correct, complete=complete)
