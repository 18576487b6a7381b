"""Deterministic message-passing simulator.

Processes replicate a block tree. An append is oracle-side (the oracle is a
trusted zero-latency shared service): grant loop against the local selected
leaf, then consume. A winning block is disseminated with a reliable
broadcast with echo forwarding: the origin sends to everybody including
itself, and every correct process re-forwards a message once on first
receive. Replicas apply blocks on receive (an update event), so a process's
own update can land after a cross receive when the channel is slower to
self-deliver. Blocks arriving before their parent wait in an orphan buffer.

Everything runs on a single-threaded event loop keyed by
(tick, action class, schedule order), so equal seeds give byte-identical
traces. Scenarios come from JSON config files, the presets among them
(shipped in btlab/presets); a scenario may instead carry a fixed event
script, in which case running it just replays the script into a history.
"""

from __future__ import annotations

import enum
import heapq
import json
import random
from dataclasses import dataclass, field, asdict
from functools import cached_property
from pathlib import Path
from typing import Any, Container, Dict, List, Optional, Set, Tuple

from .blocktree import Block, BlockTree
from .checkers import CHECKERS, EventualityWindow, Verdict, run_checker
from .history import Event, EventKind, History, Recorder, restrict
from .oracle import Merit, OracleState
from .refinement import DEFAULT_MAX_GRANT_ATTEMPTS, AppendStatus, RefinedLedger


class ScenarioError(ValueError):
    """Scenario config does not match the schema."""


SCENARIO_VERSION = 1

# within-tick ordering: deliveries land before appends, reads observe both
_DELIVER, _APPEND, _READ = 0, 1, 2


class ChannelKind(enum.Enum):
    ASYNCHRONOUS = "asynchronous"
    SYNCHRONOUS = "synchronous"
    WEAKLY_SYNCHRONOUS = "weakly-synchronous"


@dataclass
class ChannelModel:
    kind: ChannelKind = ChannelKind.SYNCHRONOUS
    delta: int = 3                    # synchronous delivery bound
    tau: int = 0                      # weakly synchronous: when delta kicks in
    async_max_delay: int = 30
    delays: List[Dict[str, Any]] = field(default_factory=list)   # {from,to,delay}
    drops: List[Dict[str, Any]] = field(default_factory=list)    # {block?,from?,to?}
    duplication: bool = False

    def delay(self, sender: str, to: str, tick: int, rng: random.Random) -> int:
        for rule in self.delays:
            if rule.get("from", sender) == sender and rule.get("to", to) == to:
                return max(1, int(rule["delay"]))
        if self.kind is ChannelKind.SYNCHRONOUS:
            return rng.randint(1, max(1, self.delta))
        if self.kind is ChannelKind.ASYNCHRONOUS:
            return rng.randint(1, max(1, self.async_max_delay))
        # weakly synchronous: unbounded before tau, bounded after
        if tick >= self.tau:
            return rng.randint(1, max(1, self.delta))
        free = rng.randint(1, max(1, self.async_max_delay))
        capped = (self.tau - tick) + rng.randint(1, max(1, self.delta))
        return min(free, capped)

    def dropped(self, block_id: str, sender: str, to: str) -> bool:
        for rule in self.drops:
            if ("block" not in rule or rule["block"] == block_id) and \
               ("from" not in rule or rule["from"] == sender) and \
               ("to" not in rule or rule["to"] == to):
                return True
        return False


@dataclass
class ProcessSpec:
    id: str
    merit: float = 1.0
    behavior: str = "correct"                      # correct | byzantine
    script: Dict[str, Any] = field(default_factory=dict)
    block_interval: Optional[int] = None           # None: never appends
    append_offset: Optional[int] = None            # default: block_interval
    read_interval: Optional[int] = None            # None: never reads
    read_offset: int = 0

    @property
    def correct(self) -> bool:
        return self.behavior == "correct"


@dataclass
class OracleSpec:
    capacity: Optional[int] = None                 # None: prodigal (unbounded)
    seed: int = 0


@dataclass
class Scenario:
    name: str
    processes: List[ProcessSpec]
    channel: ChannelModel = field(default_factory=ChannelModel)
    oracle: OracleSpec = field(default_factory=OracleSpec)
    seed: int = 0
    duration: int = 50
    declared_complete: bool = True
    stabilization_suffix: int = 3
    expected_verdicts: Dict[str, str] = field(default_factory=dict)
    script: List[Dict[str, Any]] = field(default_factory=list)
    description: str = ""
    max_grant_attempts: int = DEFAULT_MAX_GRANT_ATTEMPTS

    def correct_set(self) -> Set[str]:
        return {p.id for p in self.processes if p.correct}

    def window(self) -> EventualityWindow:
        return EventualityWindow(self.stabilization_suffix)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": SCENARIO_VERSION,
            "name": self.name,
            "description": self.description,
            "processes": [asdict(p) for p in self.processes],
            "channel": {**asdict(self.channel), "kind": self.channel.kind.value},
            "oracle": asdict(self.oracle),
            "seed": self.seed,
            "duration": self.duration,
            "declared_complete": self.declared_complete,
            "stabilization_suffix": self.stabilization_suffix,
            "expected_verdicts": dict(self.expected_verdicts),
            "script": list(self.script),
            "max_grant_attempts": self.max_grant_attempts,
        }


def _require(cond: bool, msg: str):
    if not cond:
        raise ScenarioError(msg)


def _number(cast, value: Any, what: str):
    """cast(value), with a malformed value reported as a ScenarioError."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError(f"{what} must be a number, got {value!r}") from None


def scenario_from_dict(doc: Dict[str, Any]) -> Scenario:
    _require(isinstance(doc, dict), "scenario must be a JSON object")
    _require(doc.get("version") == SCENARIO_VERSION,
             f"unsupported scenario version {doc.get('version')!r}")
    _require(isinstance(doc.get("name"), str) and doc["name"], "name must be a string")
    procs_doc = doc.get("processes")
    _require(isinstance(procs_doc, list) and procs_doc, "processes must be a non-empty list")
    processes = []
    seen_ids = set()
    for p in procs_doc:
        _require(isinstance(p, dict) and isinstance(p.get("id"), str) and p["id"],
                 "each process needs a string id")
        _require(p["id"] not in seen_ids, f"duplicate process id {p['id']!r}")
        seen_ids.add(p["id"])
        behavior = p.get("behavior", "correct")
        _require(behavior in ("correct", "byzantine"),
                 f"behavior must be correct|byzantine, got {behavior!r}")
        merit = _number(float, p.get("merit", 1.0), "merit")
        _require(0.0 < merit <= 1.0, "merit must be in (0, 1]")
        _require(p.get("append_offset") is None or isinstance(p["append_offset"], int),
                 "append_offset must be an integer or null")
        for key in ("block_interval", "read_interval"):
            _require(p.get(key) is None or (isinstance(p[key], int) and p[key] >= 1),
                     f"{key} must be a positive integer or null")
        script = p.get("script") or {}
        _require(isinstance(script, dict), "a process script must be an object")
        withhold = script.get("withhold_from", [])
        _require(isinstance(withhold, list) and all(isinstance(q, str) for q in withhold),
                 "withhold_from must be a list of process ids")
        delay = script.get("send_delay", 0)
        _require(isinstance(delay, int) and delay >= 0,
                 "send_delay must be a non-negative integer")
        processes.append(ProcessSpec(
            id=p["id"], merit=merit, behavior=behavior, script=dict(script),
            block_interval=p.get("block_interval"),
            append_offset=p.get("append_offset"),
            read_interval=p.get("read_interval"),
            read_offset=_number(int, p.get("read_offset", 0), "read_offset"),
        ))
    ch = doc.get("channel", {})
    _require(isinstance(ch, dict), "channel must be an object")
    try:
        kind = ChannelKind(ch.get("kind", "synchronous"))
    except ValueError:
        raise ScenarioError(f"unknown channel kind {ch.get('kind')!r}")
    delays, drops = ch.get("delays", []), ch.get("drops", [])
    _require(isinstance(delays, list)
             and all(isinstance(r, dict) and isinstance(r.get("delay"), int) for r in delays),
             "channel delays must be a list of rules, each with an integer delay")
    _require(isinstance(drops, list) and all(isinstance(r, dict) for r in drops),
             "channel drops must be a list of objects")
    channel = ChannelModel(
        kind=kind, delta=_number(int, ch.get("delta", 3), "channel delta"),
        tau=_number(int, ch.get("tau", 0), "channel tau"),
        async_max_delay=_number(int, ch.get("async_max_delay", 30), "async_max_delay"),
        delays=list(delays), drops=list(drops),
        duplication=bool(ch.get("duplication", False)))
    _require(channel.delta >= 1, "channel delta must be >= 1")
    orc = doc.get("oracle", {})
    _require(isinstance(orc, dict), "oracle must be an object")
    capacity = orc.get("capacity")
    _require(capacity is None or (isinstance(capacity, int) and capacity >= 1),
             "oracle capacity must be a positive integer or null")
    suffix = _number(int, doc.get("stabilization_suffix", 3), "stabilization_suffix")
    _require(suffix >= 1, "stabilization_suffix must be >= 1")
    expected = doc.get("expected_verdicts", {})
    _require(isinstance(expected, dict), "expected_verdicts must be an object")
    for crit, status in expected.items():
        _require(crit in CHECKERS, f"unknown criterion {crit!r} in expected_verdicts; "
                                   f"choose from {', '.join(CHECKERS)}")
        _require(status in ("PASS", "FAIL", "INCONCLUSIVE"),
                 f"expected verdict for {crit} must be PASS|FAIL|INCONCLUSIVE")
    script = doc.get("script", [])
    _require(isinstance(script, list), "script must be a list of events")
    for n, ev in enumerate(script):
        _check_script_event(n, ev)
    duration = _number(int, doc.get("duration", 50), "duration")
    _require(duration >= 0, "duration must be >= 0")
    return Scenario(
        name=doc["name"], processes=processes, channel=channel,
        oracle=OracleSpec(capacity=capacity,
                          seed=_number(int, orc.get("seed", 0), "oracle seed")),
        seed=_number(int, doc.get("seed", 0), "seed"), duration=duration,
        declared_complete=bool(doc.get("declared_complete", True)),
        stabilization_suffix=suffix, expected_verdicts=dict(expected),
        script=list(script), description=str(doc.get("description", "")),
        max_grant_attempts=_number(int, doc.get("max_grant_attempts",
                                                DEFAULT_MAX_GRANT_ATTEMPTS),
                                   "max_grant_attempts"),
    )


_KIND_NAMES = tuple(k.value for k in EventKind)


def _check_script_event(n: int, ev: Any) -> None:
    """Reject a script event that `_replay_script` or a checker could not take."""
    what = f"script event {n}"
    _require(isinstance(ev, dict), f"{what} must be an object")
    _require(ev.get("kind") in _KIND_NAMES,
             f"{what}: kind must be one of {'|'.join(_KIND_NAMES)}, got {ev.get('kind')!r}")
    for key in ("op", "process"):
        _require(isinstance(ev.get(key), str), f"{what}: {key} must be a string")
    _number(int, ev.get("logical_time"), f"{what}: logical_time")
    _require(isinstance(ev.get("args", []), list), f"{what}: args must be a list")
    returned = ev.get("returned")
    _require(ev["kind"] != "response" or ev["op"] != "read" or returned is None
             or (isinstance(returned, list) and all(isinstance(b, str) for b in returned)),
             f"{what}: a read's returned must be null or a list of block ids")


# -- the simulator ------------------------------------------------------------


@dataclass
class SimRun:
    scenario: Scenario
    history: History                  # checker-visible (restricted)
    events: List[Event]               # everything, oracle chatter included
    oracle: Optional[OracleState]
    ledgers: Dict[str, RefinedLedger]
    undelivered: int = 0
    dropped: int = 0

    @cached_property
    def full_history(self) -> History:
        """All recorded events as a History, built on first access."""
        return History(self.events, correct=self.scenario.correct_set(),
                       complete=self.scenario.declared_complete)


class _Replica:
    def __init__(self, spec: ProcessSpec, oracle: OracleState,
                 max_grant_attempts: int):
        self.spec = spec
        self.ledger = RefinedLedger(oracle=oracle, tree=BlockTree(),
                                    max_grant_attempts=max_grant_attempts)
        self.seen: Set[str] = set()
        self.orphans: Dict[str, List[Block]] = {}
        self.blocks_made = 0

    def integrate(self, block: Block, tick: int, rec: Recorder) -> None:
        """Apply on receive; orphans wait for their parent, and a block's
        waiting children are applied right after it, depth first."""
        todo = [block]
        while todo:
            block = todo.pop()
            if self.ledger.integrate(block):
                rec.emit(EventKind.UPDATE, "update", self.spec.id, tick,
                         args=(block.parent_id, block.id))
                children = self.orphans.pop(block.id, None)
                if children:
                    todo.extend(reversed(children))
            elif block.parent_id not in self.ledger.tree and block.id not in self.ledger.tree:
                self.orphans.setdefault(block.parent_id, []).append(block)


def run_scenario(scenario: Scenario, seed: Optional[int] = None) -> SimRun:
    if scenario.script:
        return _replay_script(scenario)
    sched_seed = scenario.seed if seed is None else seed
    rng = random.Random(sched_seed)
    rec = Recorder()
    oracle = OracleState(
        {p.id: Merit(p.merit) for p in scenario.processes},
        capacity=scenario.oracle.capacity, seed=scenario.oracle.seed)
    replicas = {p.id: _Replica(p, oracle, scenario.max_grant_attempts)
                for p in scenario.processes}
    order = [p.id for p in scenario.processes]

    heap: List[Tuple[int, int, int, Any]] = []      # (tick, action class, order, payload)
    counter = 0

    def push(tick: int, klass: int, payload: Any):
        nonlocal counter
        heapq.heappush(heap, (tick, klass, counter, payload))
        counter += 1

    undelivered = 0
    dropped = 0

    def send(sender: str, block: Block, tick: int, skip: Container[str], extra: int):
        """Deliver block to every process not in skip, after channel delays
        plus extra ticks."""
        nonlocal dropped, undelivered
        for dest in order:
            if dest in skip:
                continue
            if scenario.channel.dropped(block.id, sender, dest):
                dropped += 1
                continue
            at = tick + extra + scenario.channel.delay(sender, dest, tick, rng)
            if at > scenario.duration:
                undelivered += 1
                continue
            push(at, _DELIVER, (dest, block))

    # schedule the static actions
    for p in scenario.processes:
        if p.block_interval:
            start = p.append_offset if p.append_offset is not None else p.block_interval
            for t in range(start, scenario.duration + 1, p.block_interval):
                push(t, _APPEND, p.id)
        if p.read_interval and p.correct:
            for t in range(p.read_offset, scenario.duration + 1, p.read_interval):
                push(t, _READ, p.id)

    while heap:
        tick, klass, _seq, payload = heapq.heappop(heap)
        if klass == _APPEND:
            rep = replicas[payload]
            rep.blocks_made += 1
            candidate = Block(id=f"{payload}-{rep.blocks_made}")
            rec.emit(EventKind.INVOCATION, "get_token", payload, tick,
                     args=(candidate.id,))
            res = rep.ledger.acquire(candidate, payload)
            granted = res.status is not AppendStatus.EXHAUSTED
            rec.emit(EventKind.RESPONSE, "get_token", payload, tick,
                     args=(candidate.id,), returned=res.attempts)
            rec.emit(EventKind.INVOCATION, "append", payload, tick,
                     args=(candidate.id, res.block.parent_id or "", granted))
            if granted:
                rec.emit(EventKind.INVOCATION, "consume_token", payload, tick,
                         args=(res.block.id, res.block.parent_id))
                rec.emit(EventKind.RESPONSE, "consume_token", payload, tick,
                         args=(res.block.id, res.block.parent_id),
                         returned=tuple(sorted(b.id for b in res.consumed)))
            rec.emit(EventKind.RESPONSE, "append", payload, tick,
                     returned=bool(res))
            if res:
                rec.emit(EventKind.SEND, "send", payload, tick,
                         args=(res.block.parent_id, res.block.id))
                script = rep.spec.script      # Byzantine withholding and lag
                send(payload, res.block, tick, set(script.get("withhold_from", [])),
                     int(script.get("send_delay", 0)))
        elif klass == _DELIVER:
            dest, block = payload
            rep = replicas[dest]
            first = block.id not in rep.seen
            if not first and not scenario.channel.duplication:
                continue
            if rep.spec.correct and (first or scenario.channel.duplication):
                rec.emit(EventKind.RECEIVE, "receive", dest, tick,
                         args=(block.parent_id, block.id))
            if first:
                rep.seen.add(block.id)
                if rep.spec.correct:
                    rep.integrate(block, tick, rec)
                    send(dest, block, tick, (dest,), 0)    # echo to every other process
        else:                                       # _READ
            rep = replicas[payload]
            chain = tuple([b.id for b in rep.ledger.read()])
            rec.emit(EventKind.INVOCATION, "read", payload, tick)
            rec.emit(EventKind.RESPONSE, "read", payload, tick, returned=chain)

    correct = scenario.correct_set()
    history = History(restrict(rec.events, correct), correct=correct,
                      complete=scenario.declared_complete)
    return SimRun(scenario=scenario, history=history, events=rec.events,
                  oracle=oracle, ledgers={k: r.ledger for k, r in replicas.items()},
                  undelivered=undelivered, dropped=dropped)


def _replay_script(scenario: Scenario) -> SimRun:
    rec = Recorder()
    for ev in scenario.script:        # checked by scenario_from_dict
        rec.emit(EventKind(ev["kind"]), ev["op"], ev["process"], int(ev["logical_time"]),
                 args=ev.get("args", ()), returned=ev.get("returned"))
    # a script comes from outside: building its full history now rejects a
    # malformed one (a response without invocation, say) at run time
    full = rec.history(correct=scenario.correct_set(),
                       complete=scenario.declared_complete)
    run = SimRun(scenario=scenario, history=full.restricted(), events=full.events,
                 oracle=None, ledgers={})
    run.full_history = full
    return run


# -- verdict report -----------------------------------------------------------


def evaluate_run(run: SimRun) -> Dict[str, Any]:
    """Check the scenario's expected verdicts against the recorded history."""
    window = run.scenario.window()
    verdicts: Dict[str, Any] = {}
    ok = True
    for criterion, expected in sorted(run.scenario.expected_verdicts.items()):
        v: Verdict = run_checker(criterion, run.history, window)
        match = v.status == expected
        ok = ok and match
        verdicts[criterion] = {
            "expected": expected, "actual": v.status,
            "witness": list(v.witness), "detail": v.detail, "ok": match,
        }
    return {
        "scenario": run.scenario.name,
        "seed": run.scenario.seed,
        "undelivered": run.undelivered,
        "dropped": run.dropped,
        "verdicts": verdicts,
        "ok": ok,
    }


# -- presets ---------------------------------------------------------------------

_PRESETS_DIR = Path(__file__).resolve().parent / "presets"


def preset_names() -> List[str]:
    return sorted(path.stem for path in _PRESETS_DIR.glob("*.json"))


def preset(name: str) -> Scenario:
    names = preset_names()
    if name not in names:
        raise ScenarioError(f"unknown preset {name!r}; available: {', '.join(names)}")
    return scenario_from_dict(json.loads((_PRESETS_DIR / f"{name}.json").read_text()))
