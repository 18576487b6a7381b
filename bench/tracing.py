"""Spans around btlab's layer boundaries, installed for the traced run only.

Each boundary is patched where its caller looks it up: class attributes for
methods, module globals of btlab.checkers and btlab.netsim for functions.
Three kinds of boundary keep the overhead and the memory bounded:

  span   one record per call: job, span id, parent span id, name, start, end;
  leaf   a hot call with no traced callee: calls and seconds are summed per
         (job, parent span, name) instead of kept one by one;
  count  calls are counted, not timed.

Spans stay in memory and are written out once the run ends. A span's self
time is its duration minus the part of it that child spans cover and minus
the time of the leaf calls made under it.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from btlab import blocktree, checkers, history, netsim, oracle, refinement

from bench.jobs import CRITERIA

SPAN, LEAF, COUNT = "span", "leaf", "count"
JOB = "bench.job"            # root span of every job; its self time is harness work


class Span(NamedTuple):
    job: int
    id: int
    parent: int
    name: str
    start: float
    end: float
    subject: int             # id() of the first argument, to tell histories apart


# -- what happens at a boundary besides timing ---------------------------------------


def _run_stats(counts, args, run):
    counts["netsim.full_events"] += len(run.full_history.events)
    counts["netsim.undelivered"] += run.undelivered
    counts["netsim.dropped"] += run.dropped
    trees = [ledger.tree for ledger in run.ledgers.values()]
    if trees:
        counts["blocktree.leaves_at_end"] += max(len(t.leaves()) for t in trees)
        counts["blocktree.max_fork"] += max(t.max_fork_count() for t in trees)


def _acquire_stats(counts, args, result):
    counts["refinement.attempts"] += result.attempts
    counts["refinement." + result.status.value] += 1


def _bump(key: str, value: Callable[[tuple, Any], int]):
    def hook(counts, args, result):
        counts[key] += value(args, result)
    return hook


# (owner, attribute, name, kind, hook)
BOUNDARIES: List[Tuple[Any, str, str, str, Optional[Callable]]] = [
    (blocktree.SelectionPolicy, "choose", "blocktree.choose", LEAF, None),
    (blocktree.BlockTree, "chain_to", "blocktree.chain_to", COUNT, None),
    (blocktree.BlockTree, "insert", "blocktree.insert", COUNT, None),
    (oracle.Tape, "pop", "oracle.tape_pop", LEAF,
     _bump("oracle.grants", lambda args, granted: int(granted))),
    (oracle.OracleState, "get_token", "oracle.get_token", SPAN, None),
    (oracle.OracleState, "consume_token", "oracle.consume", LEAF,
     _bump("oracle.consume.rejects", lambda args, consumed: int(args[1] not in consumed))),
    (refinement.RefinedLedger, "acquire", "refinement.acquire", SPAN, _acquire_stats),
    (refinement.RefinedLedger, "integrate", "refinement.integrate", LEAF,
     _bump("refinement.integrate.accepted", lambda args, ok: int(ok))),
    (netsim, "scenario_from_dict", "netsim.scenario_from_dict", SPAN, None),
    (netsim, "run_scenario", "netsim.run_scenario", SPAN, _run_stats),
    (history.History, "__init__", "history.init", SPAN, None),
    (history.History, "restricted", "history.restricted", SPAN, None),
    (history.History, "reads", "history.reads", LEAF, None),
    (history.History, "po", "history.po", LEAF, None),
    (history.History, "to_jsonl", "history.to_jsonl", SPAN,
     _bump("history.trace_bytes", lambda args, text: len(text))),
    (history.History, "from_jsonl", "history.from_jsonl", SPAN,
     _bump("history.trace_bytes", lambda args, text: len(args[1]))),
    (checkers, "mcps", "checkers.pair_compares", COUNT, None),
    (checkers, "prefix_comparable", "checkers.pair_compares", COUNT, None),
] + [(checkers, "check_" + c.replace("-", "_"), "checkers." + c, SPAN, None)
     for c in CRITERIA]

# Sub-checks that check_sc and check_ec both run on the same history.
SHARED_SUBCHECKS = ("checkers.block-validity", "checkers.local-monotonic-read",
                    "checkers.ever-growing-tree")


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.leaves: Dict[Tuple[int, int, str], List] = defaultdict(lambda: [0, 0.0])
        self.counts: Dict[str, int] = defaultdict(int)
        self.jobs = 0
        self._job = -1
        self._stack = [0]
        self._next_id = 1
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, fn, name: str, kind: str, hook):
        clock = time.perf_counter
        stack, counts, spans, leaves = self._stack, self.counts, self.spans, self.leaves

        if kind == COUNT:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        elif kind == LEAF:
            def wrapper(*args, **kwargs):
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    cell = leaves[(self._job, stack[-1], name)]
                    cell[0] += 1
                    cell[1] += clock() - start
                if hook is not None:
                    hook(counts, args, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                sid = self._next_id
                self._next_id += 1
                parent = stack[-1]
                stack.append(sid)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans.append(Span(self._job, sid, parent, name, start, end,
                                      id(args[0]) if args else 0))
                if hook is not None:
                    hook(counts, args, result)
                return result
        return functools.wraps(fn)(wrapper)

    @contextlib.contextmanager
    def installed(self, boundaries=BOUNDARIES):
        """Patch every boundary; restore the original objects on exit."""
        try:
            for owner, attr, name, kind, hook in boundaries:
                original = vars(owner)[attr]
                if isinstance(original, classmethod):
                    patched = classmethod(self._wrap(original.__func__, name, kind, hook))
                else:
                    patched = self._wrap(original, name, kind, hook)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, patched)
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    def run_job(self, job_id: int, fn: Callable, arg: Any):
        """Run one job under a root span that its boundary spans hang from."""
        self._job = job_id
        self.jobs += 1
        return self._wrap(fn, JOB, SPAN, None)(arg)

    # -- output ----------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            for s in self.spans:
                out.write(json.dumps({"job": s.job, "id": s.id, "parent": s.parent,
                                      "name": s.name, "start": s.start, "end": s.end}) + "\n")
            for (job, parent, name), (calls, seconds) in self.leaves.items():
                out.write(json.dumps({"job": job, "parent": parent, "name": name,
                                      "calls": calls, "seconds": seconds}) + "\n")
            out.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def snapshot(boundaries=BOUNDARIES) -> Dict[Tuple[Any, str], Any]:
    """The object behind every boundary attribute, to compare after tracing."""
    return {(owner, attr): vars(owner)[attr] for owner, attr, *_ in boundaries}


def unchanged(before: Dict[Tuple[Any, str], Any]) -> bool:
    return all(vars(owner)[attr] is obj for (owner, attr), obj in before.items())


# -- analysis ------------------------------------------------------------------


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: List[Span], leaves: Dict[Tuple[int, int, str], List]) -> Dict[int, float]:
    """Span id -> duration minus what child spans and leaf calls under it cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    leaf_time: Dict[int, float] = defaultdict(float)
    for (_job, parent, _name), (_calls, seconds) in leaves.items():
        leaf_time[parent] += seconds
    return {s.id: (s.end - s.start) - _covered(children[s.id], s.start, s.end)
            - leaf_time[s.id] for s in spans}


def totals(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Per boundary name: calls, inclusive seconds and self seconds, over all jobs."""
    out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    own = self_times(tracer.spans, tracer.leaves)
    for s in tracer.spans:
        row = out[s.name]
        row["calls"] += 1
        row["s"] += s.end - s.start
        row["self_s"] += own[s.id]
    for (_job, _parent, name), (calls, seconds) in tracer.leaves.items():
        row = out[name]
        row["calls"] += calls
        row["s"] += seconds
        row["self_s"] += seconds
    for name, kind in {(b[2], b[3]) for b in BOUNDARIES}:
        if kind == COUNT:
            out[name]["calls"] = tracer.counts[name]
    return out


def repeated_subcheck_seconds(spans: List[Span]) -> float:
    """Time check_ec spends in sub-checks check_sc already ran on the same history."""
    sc_done: Dict[Tuple[int, int], float] = {}
    for s in spans:
        if s.name == "checkers.sc":
            key = (s.job, s.subject)
            sc_done[key] = min(sc_done.get(key, s.end), s.end)
    repeated_ec = {s.id for s in spans if s.name == "checkers.ec"
                   and sc_done.get((s.job, s.subject), float("inf")) <= s.start}
    return sum(s.end - s.start for s in spans
               if s.parent in repeated_ec and s.name in SHARED_SUBCHECKS)


def layer_self_seconds(rows: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Self time summed per layer (the part of a name before the first dot)."""
    out: Dict[str, float] = defaultdict(float)
    for name, row in rows.items():
        out[name.split(".", 1)[0]] += row["self_s"]
    return dict(out)


def per_layer_metrics(tracer: Tracer, rows: Dict[str, Dict[str, float]]
                      ) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric, per traced job, as (value, unit); `rows` is totals(tracer)."""
    c = tracer.counts
    n = max(1, tracer.jobs)

    def calls(name):
        return (rows[name]["calls"] / n, "count")

    def secs(name, key="s"):
        return (rows[name][key] / n, "s")

    def per_job(key, unit="count"):
        return (c[key] / n, unit)

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio")

    pops = rows["oracle.tape_pop"]["calls"]
    consumes = rows["oracle.consume"]["calls"]
    acquires = rows["refinement.acquire"]["calls"]
    integrates = rows["refinement.integrate"]["calls"]
    m = {
        "blocktree.choose.calls": calls("blocktree.choose"),
        "blocktree.choose.self_s": secs("blocktree.choose", "self_s"),
        "blocktree.chain_to.calls": calls("blocktree.chain_to"),
        "blocktree.insert.calls": calls("blocktree.insert"),
        "blocktree.leaves_at_end": per_job("blocktree.leaves_at_end"),
        "blocktree.max_fork": per_job("blocktree.max_fork"),
        "oracle.tape_pop.calls": calls("oracle.tape_pop"),
        "oracle.tape_pop.self_s": secs("oracle.tape_pop", "self_s"),
        "oracle.grant_ratio": ratio(c["oracle.grants"], pops),
        "oracle.consume.calls": calls("oracle.consume"),
        "oracle.consume.reject_ratio": ratio(c["oracle.consume.rejects"], consumes),
        "refinement.acquire.calls": calls("refinement.acquire"),
        "refinement.acquire.self_s": secs("refinement.acquire", "self_s"),
        "refinement.attempts_per_acquire": ratio(c["refinement.attempts"], acquires),
        "refinement.rejected": per_job("refinement.rejected"),
        "refinement.exhausted": per_job("refinement.exhausted"),
        "refinement.integrate.calls": calls("refinement.integrate"),
        "refinement.integrate.accept_ratio": ratio(c["refinement.integrate.accepted"],
                                                   integrates),
        "netsim.scenario_from_dict.s": secs("netsim.scenario_from_dict"),
        "netsim.run_scenario.s": secs("netsim.run_scenario"),
        "netsim.loop.self_s": secs("netsim.run_scenario", "self_s"),
        "netsim.full_events": per_job("netsim.full_events"),
        "netsim.undelivered": per_job("netsim.undelivered"),
        "netsim.dropped": per_job("netsim.dropped"),
        "history.init.calls": calls("history.init"),
        "history.init.self_s": secs("history.init", "self_s"),
        "history.restricted.s": secs("history.restricted"),
        "history.reads.calls": calls("history.reads"),
        "history.reads.self_s": secs("history.reads", "self_s"),
        "history.po.calls": calls("history.po"),
        "history.po.self_s": secs("history.po", "self_s"),
        "history.to_jsonl.s": secs("history.to_jsonl"),
        "history.from_jsonl.s": secs("history.from_jsonl"),
        "history.trace_bytes": per_job("history.trace_bytes", "B"),
    }
    for crit in CRITERIA:
        m[f"checkers.{crit}.s"] = secs(f"checkers.{crit}")
    m["checkers.pair_compares"] = calls("checkers.pair_compares")
    m["checkers.repeated_subcheck_s"] = (repeated_subcheck_seconds(tracer.spans) / n, "s")
    return m
