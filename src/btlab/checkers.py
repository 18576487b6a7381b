"""Consistency criteria over histories, with three-valued verdicts.

Safety criteria (block validity, local monotonic read, strong prefix, the
prior-receive clause of update agreement) FAIL with a witness the moment a
finite history refutes them. Eventual criteria can never be refuted by a
finite prefix alone, so they report PASS when the trailing window is clean,
INCONCLUSIVE when a violation persists into the window, and FAIL only when
the history is declared complete (nothing more will ever come, i.e. the
depicted tail is forever).

A read's score is the length of its chain, genesis included. The trailing
window holds the last `window` completed reads of each process (a scenario's
`stabilization_suffix`). Window reads are evidence, not references: an
eventuality is judged for reads that still have a future inside the trace.

A History is immutable, so each criterion is judged at most once per history
and window it reads: every `check_*` takes `(h, window=DEFAULT_WINDOW)`, keeps
its verdict in `History.verdict_cache` under `(criterion, window)` if its
verdict depends on the window and under the bare criterion if not, and
`sc`/`ec` compose the verdicts of the standalone criteria they contain.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Dict, Iterable, List, Mapping, Set, Tuple

from .blocktree import GENESIS_ID, mcps, prefix_comparable
from .history import History, Message, Operation, canonical_order, fresh_ids, returned_chain


class Status:
    PASS = "PASS"
    FAIL = "FAIL"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class Verdict:
    criterion: str
    status: str
    witness: Tuple[int, ...] = ()          # event ids pinning a violation
    detail: str = ""
    parts: Mapping[str, "Verdict"] = field(default_factory=lambda: MappingProxyType({}))

    def __str__(self):
        tail = f" witness={list(self.witness)}" if self.witness else ""
        note = f" ({self.detail})" if self.detail else ""
        return f"{self.criterion}: {self.status}{tail}{note}"


# How many trailing reads per process must already agree.
DEFAULT_WINDOW = 3

Check = Callable[[History, int], Verdict]

# criterion name -> its check, in the order the criteria are defined below
CHECKERS: Dict[str, Check] = {}


def _criterion(windowed: bool = False) -> Callable[[Check], Check]:
    """Register a check in CHECKERS and memoise it in the history's
    `verdict_cache`: under `(criterion, window)` if the verdict depends on the
    window, else under the bare criterion, so a check that ignores the window
    is judged once whatever window is passed. The wrapper declares the
    default, so every way of passing the same window shares one key. A
    refused window is refused before any work; a raised error is not kept.
    """
    def register(check: Check) -> Check:
        criterion = check.__name__[len("check_"):].replace("_", "-")

        @functools.wraps(check)
        def judged(h: History, window: int = DEFAULT_WINDOW) -> Verdict:
            if windowed and window < 1:
                raise ValueError(f"window must be at least 1, got {window}")
            key = (criterion, window) if windowed else criterion
            verdict = h.verdict_cache.get(key)
            if verdict is None:
                verdict = h.verdict_cache[key] = check(h, window)
            return verdict
        CHECKERS[criterion] = judged
        return judged
    return register


def _unmet(h: History, criterion: str, witness: Tuple[int, ...], detail: str) -> Verdict:
    """An eventuality not yet met: FAIL on a complete history, else INCONCLUSIVE."""
    return Verdict(criterion, Status.FAIL if h.complete else Status.INCONCLUSIVE,
                   witness, detail)


def _split_window(h: History, window: int):
    """(reference reads, window reads), both in response order.

    The window holds each process's trailing `window` reads.
    """
    in_window: Set[int] = set()
    for p in h.processes:
        for op in h.reads_of(p)[-window:]:
            in_window.add(op.response.event_id)
    refs: List[Operation] = []
    last: List[Operation] = []
    for r in h.reads():
        (last if r.response.event_id in in_window else refs).append(r)
    return refs, last


# -- block validity -------------------------------------------------------


@_criterion()
def check_block_validity(h: History, window: int) -> Verdict:
    """Every block a read returns must have been appended beforehand: at an
    earlier tick, or earlier on the reading process."""
    first_time: Dict[str, int] = {}                 # block -> earliest append
    first_key: Dict[Tuple[str, str], Tuple[int, int]] = {}   # (block, process) -> earliest
    for _, op, e, _ in h.operations:                # invocation order: first is least
        if op == "append" and e.args:
            block_id = str(e.args[0])
            first_time.setdefault(block_id, e.logical_time)
            first_key.setdefault((block_id, e.process), canonical_order(e))
    # a block valid for a read stays valid for its process's later reads, so
    # only the ids a read adds to its process's previous one are looked at
    chains: Dict[str, Tuple[str, ...]] = {}         # process -> its previous chain
    for read in h.reads():
        rsp = read.response
        chain = returned_chain(read)
        fresh = fresh_ids(chain, chains.get(rsp.process, ()))
        chains[rsp.process] = chain
        for block_id in fresh:
            if block_id == GENESIS_ID:
                continue
            if not (first_time.get(block_id, math.inf) < rsp.logical_time
                    or first_key.get((block_id, rsp.process), (math.inf,))
                    < canonical_order(rsp)):
                return Verdict(
                    "block-validity", Status.FAIL, (rsp.event_id,),
                    f"read returned {block_id!r} with no prior append")
    return Verdict("block-validity", Status.PASS)


# -- local monotonic read -----------------------------------------------------


@_criterion()
def check_local_monotonic_read(h: History, window: int) -> Verdict:
    """Per process, read scores never decrease."""
    for p in h.processes:
        per = h.reads_of(p)
        for earlier, later in zip(per, per[1:]):
            before, after = len(returned_chain(earlier)), len(returned_chain(later))
            if after < before:
                return Verdict(
                    "local-monotonic-read", Status.FAIL,
                    (earlier.response.event_id, later.response.event_id),
                    f"score fell at {p}: {before} -> {after}")
    return Verdict("local-monotonic-read", Status.PASS)


# -- strong prefix ---------------------------------------------------------------


@_criterion()
def check_strong_prefix(h: History, window: int) -> Verdict:
    """Any two returned chains, whoever read them, must be prefix-comparable.

    When every non-empty chain is a prefix of the longest one, all pairs are
    comparable and one pass decides. Otherwise the witness is the earliest
    offending pair, found from the distinct chains instead of the pairs of
    reads: on its first read, a chain is compared with every chain not read
    yet, so D distinct chains cost at most D(D-1)/2 compares. Each pair of
    chains is compared when the earlier of the two is first read, so the
    first read whose chain meets an incomparable one there is the first read
    with an offender after it: the witness's first read. Its second is the
    first later read of an incomparable chain.
    """
    reads = h.reads()
    chains = [returned_chain(r) for r in reads]
    longest = max(chains, key=len, default=())
    if all([c == longest[:len(c)] for c in chains]):
        return Verdict("strong-prefix", Status.PASS)
    unread = dict.fromkeys(filter(None, chains))    # distinct chains not yet read
    for i, ca in enumerate(chains):
        if ca not in unread:        # empty, or compared with every chain read after it
            continue
        del unread[ca]
        others = {cb for cb in unread if not prefix_comparable(ca, cb)}
        if others:
            j = next(j for j in range(i + 1, len(chains)) if chains[j] in others)
            return Verdict(
                "strong-prefix", Status.FAIL,
                (reads[i].response.event_id, reads[j].response.event_id),
                f"{'/'.join(ca)} vs {'/'.join(chains[j])}")
    return Verdict("strong-prefix", Status.PASS)


# -- ever growing tree -------------------------------------------------------------


@_criterion(windowed=True)
def check_ever_growing_tree(h: History, window: int) -> Verdict:
    """Only finitely many later reads may score <= a read's score.

    A finite history can never refute this, so the verdict is PASS or
    INCONCLUSIVE: inconclusive iff a low read persists into the window. A
    reference scoring below every window read is met, with no order looked up.
    """
    refs, last = _split_window(h, window)
    scored = [(later, len(returned_chain(later))) for later in last]
    lowest = min([score for _, score in scored], default=math.inf)
    for r in refs:
        s = len(returned_chain(r))
        if s < lowest:
            continue
        for later, later_score in scored:
            if later_score <= s and h.po(r.response, later.invocation):
                return Verdict(
                    "ever-growing-tree", Status.INCONCLUSIVE,
                    (r.response.event_id, later.response.event_id),
                    f"window read score {later_score} <= {s}")
    return Verdict("ever-growing-tree", Status.PASS)


# -- eventual prefix ----------------------------------------------------------------


@_criterion(windowed=True)
def check_eventual_prefix(h: History, window: int) -> Verdict:
    """For each reference read, later reads eventually agree up to its score.

    A violating pair inside the trailing window means the divergence has not
    healed by the end of the trace: INCONCLUSIVE, or FAIL when the history is
    declared complete (the tail persists forever).

    A reference's after set is the window reads with a non-empty chain that
    follow it in program order. The least `mcps` over the pairs of a set is
    the length of the common prefix of all its chains, found with an `mcps`
    per member against the first. A reference with score s violates iff that
    length is below s; only then are its pairs scanned, earlier read first,
    for the first one below s, the witness.

    Program order is transitive and orders a process's reads, so a window
    read that follows a reference follows its process's first reference:
    every after set lies among the window reads that some first reference
    precedes, and none agrees on less than their common prefix. A reference
    scoring no more than that floor is met and skipped.
    """
    refs, last = _split_window(h, window)
    last = [o for o in last if returned_chain(o)]   # an empty chain is in no pair
    chains = [returned_chain(o) for o in last]

    def agreement(group: List[int]) -> float:
        return min((mcps(chains[group[0]], chains[j]) for j in group[1:]), default=math.inf)

    first: Dict[str, Operation] = {}                # process -> its first reference
    for r in refs:
        first.setdefault(r.process, r)
    floor = agreement([i for i, o in enumerate(last)
                       if any(h.po(f.response, o.response) for f in first.values())])
    for r in refs:
        s = len(returned_chain(r))
        if s <= floor:
            continue
        after = [i for i, o in enumerate(last) if h.po(r.response, o.response)]
        if agreement(after) < s:
            i, j = next((i, j) for n, i in enumerate(after) for j in after[n + 1:]
                        if mcps(chains[i], chains[j]) < s)
            return _unmet(h, "eventual-prefix",
                          (r.response.event_id, last[i].response.event_id,
                           last[j].response.event_id),
                          f"window reads agree only below score {s}")
    return Verdict("eventual-prefix", Status.PASS)


# -- update agreement ----------------------------------------------------------------


def _received_everywhere(h: History, name: str, messages: Iterable[Message],
                         detail: str) -> Verdict:
    """PASS if each of `messages` names a (parent, block) that every correct
    process received, else unmet at the first that does not, with `detail`
    formatted by its `process`, its `block` and the `missing` processes: R3
    and LRC agreement. Each distinct (parent, block) is looked up once."""
    first_receive = h.messages.first_receive
    correct = sorted(h.correct)
    judged: Set[Tuple[str, str]] = set()
    for e, (_, parent, block) in messages:
        if (parent, block) in judged:
            continue
        judged.add((parent, block))
        missing = [p for p in correct if (p, parent, block) not in first_receive]
        if missing:
            return _unmet(h, name, (e.event_id,), detail.format(
                process=e.process, block=block, missing=", ".join(missing)))
    return Verdict(name, Status.PASS)


@_criterion()
def check_update_agreement(h: History, window: int) -> Verdict:
    """R1: own updates are broadcast. R2: foreign updates follow a local
    receive. R3: an updated block is eventually received everywhere."""
    m = h.messages
    unsent = None                  # R1's witness: the first own update never sent
    for u, key in m.updates:
        first = m.first_receive.get(key)           # on the key's process, u's own
        if m.origin[key[2]] == u.process:
            if unsent is None and key not in m.sent:
                unsent = u, key
        elif first is None or canonical_order(first) > canonical_order(u):   # R2 (safety)
            return Verdict("update-agreement", Status.FAIL, (u.event_id,),
                           f"R2: {u.process} updated {key[2]!r} without a "
                           "prior local receive")
    if unsent is not None:                                         # R1 (eventual)
        u, key = unsent
        return _unmet(h, "update-agreement", (u.event_id,),
                      f"R1: {u.process} updated own block {key[2]!r} "
                      "without ever broadcasting it")
    return _received_everywhere(h, "update-agreement", m.updates,  # R3 (eventual)
                                "R3: {block!r} was updated but never received at {missing}")


# -- reliable broadcast (validity + agreement) ------------------------------------------


@_criterion()
def check_lrc(h: History, window: int) -> Verdict:
    """Broadcast contract: a sender delivers to itself, and a message
    received anywhere correct is received everywhere correct."""
    correct, m = h.correct, h.messages
    for e, key in m.sends:
        if e.process in correct and key not in m.first_receive:
            return _unmet(h, "lrc", (e.event_id,),
                          f"validity: {e.process} never delivered its own "
                          f"broadcast of {e.args[1]!r}")
    return _received_everywhere(h, "lrc", (r for r in m.receives if r[0].process in correct),
                                "agreement: {block!r} reached {process} but not {missing}")


# -- composite criteria --------------------------------------------------------------------


def _conjunction(name: str, parts: List[Verdict]) -> Verdict:
    by_name = MappingProxyType({v.criterion: v for v in parts})
    for v in parts:
        if v.status == Status.FAIL:
            return Verdict(name, Status.FAIL, v.witness,
                           f"{v.criterion} failed: {v.detail}", by_name)
    for v in parts:
        if v.status == Status.INCONCLUSIVE:
            return Verdict(name, Status.INCONCLUSIVE, v.witness,
                           f"{v.criterion} inconclusive: {v.detail}", by_name)
    return Verdict(name, Status.PASS, (), "", by_name)


@_criterion(windowed=True)
def check_sc(h: History, window: int) -> Verdict:
    """Strong consistency: validity + monotonic reads + strong prefix +
    ever growing tree."""
    return _conjunction("sc", [
        check_block_validity(h),
        check_local_monotonic_read(h),
        check_strong_prefix(h),
        check_ever_growing_tree(h, window),
    ])


@_criterion(windowed=True)
def check_ec(h: History, window: int) -> Verdict:
    """Eventual consistency: validity + monotonic reads + ever growing tree +
    eventual prefix."""
    return _conjunction("ec", [
        check_block_validity(h),
        check_local_monotonic_read(h),
        check_ever_growing_tree(h, window),
        check_eventual_prefix(h, window),
    ])


def run_checker(name: str, h: History, window: int = DEFAULT_WINDOW) -> Verdict:
    try:
        fn = CHECKERS[name]
    except KeyError:
        raise KeyError(f"unknown criterion {name!r}; choose from "
                       f"{', '.join(sorted(CHECKERS))}")
    return fn(h, window)
