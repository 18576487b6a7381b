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
traces. Scenarios come from JSON config files or the built-in presets; a
scenario may instead carry a fixed event script, in which case running it
just replays the script into a history.
"""

from __future__ import annotations

import enum
import heapq
import random
from dataclasses import dataclass, field, asdict
from typing import Any, Dict, List, Optional, Set, Tuple

from .blocktree import Block, BlockTree
from .checkers import EventualityWindow, Verdict, run_checker
from .history import EventKind, History, Recorder
from .oracle import Merit, OracleState
from .refinement import AppendStatus, RefinedLedger


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
    max_grant_attempts: int = 10**6

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

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "Scenario":
        return scenario_from_dict(doc)


def _require(cond: bool, msg: str):
    if not cond:
        raise ScenarioError(msg)


def _number(cast, value: Any, what: str):
    """cast(value), with a malformed value reported as a ScenarioError."""
    try:
        return cast(value)
    except (TypeError, ValueError):
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
        processes.append(ProcessSpec(
            id=p["id"], merit=merit, behavior=behavior,
            script=dict(p.get("script") or {}),
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
    channel = ChannelModel(
        kind=kind, delta=_number(int, ch.get("delta", 3), "channel delta"),
        tau=_number(int, ch.get("tau", 0), "channel tau"),
        async_max_delay=_number(int, ch.get("async_max_delay", 30), "async_max_delay"),
        delays=list(ch.get("delays", [])), drops=list(ch.get("drops", [])),
        duplication=bool(ch.get("duplication", False)))
    _require(channel.delta >= 1, "channel delta must be >= 1")
    _require(all(isinstance(r, dict) and isinstance(r.get("delay"), int)
                 for r in channel.delays),
             "each channel delay rule needs an integer delay")
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
        _require(status in ("PASS", "FAIL", "INCONCLUSIVE"),
                 f"expected verdict for {crit} must be PASS|FAIL|INCONCLUSIVE")
    script = doc.get("script", [])
    _require(isinstance(script, list), "script must be a list of events")
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
        max_grant_attempts=_number(int, doc.get("max_grant_attempts", 10**6),
                                   "max_grant_attempts"),
    )


# -- the simulator ------------------------------------------------------------


@dataclass
class SimRun:
    scenario: Scenario
    history: History                  # checker-visible (restricted)
    full_history: History             # everything, oracle chatter included
    oracle: Optional[OracleState]
    ledgers: Dict[str, RefinedLedger]
    undelivered: int = 0
    dropped: int = 0


class _Replica:
    def __init__(self, spec: ProcessSpec, oracle: OracleState,
                 max_grant_attempts: int):
        self.spec = spec
        self.ledger = RefinedLedger(oracle=oracle, tree=BlockTree(),
                                    max_grant_attempts=max_grant_attempts)
        self.seen: Set[str] = set()
        self.orphans: Dict[str, List[Block]] = {}
        self.blocks_made = 0


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

    heap: List[Tuple[int, int, int, str, Any]] = []
    counter = 0

    def push(tick: int, klass: int, action: str, payload: Any):
        nonlocal counter
        heapq.heappush(heap, (tick, klass, counter, action, payload))
        counter += 1

    undelivered = 0
    dropped = 0

    def broadcast(sender: str, block: Block, tick: int):
        """One send event; per-destination deliveries follow channel delays."""
        nonlocal dropped, undelivered
        spec = replicas[sender].spec
        withheld = set(spec.script.get("withhold_from", []))
        extra = int(spec.script.get("send_delay", 0))
        for dest in order:
            if dest in withheld:
                continue
            if scenario.channel.dropped(block.id, sender, dest):
                dropped += 1
                continue
            at = tick + extra + scenario.channel.delay(sender, dest, tick, rng)
            if at > scenario.duration:
                undelivered += 1
                continue
            push(at, _DELIVER, "deliver", (dest, block))

    def forward(sender: str, block: Block, tick: int):
        """Echo: a first receive re-forwards once to every other process."""
        nonlocal dropped, undelivered
        for dest in order:
            if dest == sender:
                continue
            if scenario.channel.dropped(block.id, sender, dest):
                dropped += 1
                continue
            at = tick + scenario.channel.delay(sender, dest, tick, rng)
            if at > scenario.duration:
                undelivered += 1
                continue
            push(at, _DELIVER, "deliver", (dest, block))

    def integrate(rep: _Replica, block: Block, tick: int):
        """Apply on receive; orphans wait for their parent."""
        if rep.ledger.integrate(block):
            rec.emit(EventKind.UPDATE, "update", rep.spec.id, tick,
                     args=(block.parent_id, block.id))
            for child in rep.orphans.pop(block.id, []):
                integrate(rep, child, tick)
        elif block.parent_id not in rep.ledger.tree and block.id not in rep.ledger.tree:
            rep.orphans.setdefault(block.parent_id, []).append(block)

    # schedule the static actions
    for p in scenario.processes:
        if p.block_interval:
            start = p.append_offset if p.append_offset is not None else p.block_interval
            for t in range(start, scenario.duration + 1, p.block_interval):
                push(t, _APPEND, "append", p.id)
        if p.read_interval and p.correct:
            for t in range(p.read_offset, scenario.duration + 1, p.read_interval):
                push(t, _READ, "read", p.id)

    while heap:
        tick, _klass, _seq, action, payload = heapq.heappop(heap)
        if action == "append":
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
                         returned=sorted(b.id for b in res.consumed))
            rec.emit(EventKind.RESPONSE, "append", payload, tick,
                     returned=bool(res))
            if res:
                rec.emit(EventKind.SEND, "send", payload, tick,
                         args=(res.block.parent_id, res.block.id))
                broadcast(payload, res.block, tick)
        elif action == "deliver":
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
                    integrate(rep, block, tick)
                    forward(dest, block, tick)
        elif action == "read":
            rep = replicas[payload]
            chain = [b.id for b in rep.ledger.read()]
            rec.emit(EventKind.INVOCATION, "read", payload, tick)
            rec.emit(EventKind.RESPONSE, "read", payload, tick, returned=chain)

    full = rec.history(correct=scenario.correct_set(),
                       complete=scenario.declared_complete)
    return SimRun(scenario=scenario, history=full.restricted(), full_history=full,
                  oracle=oracle, ledgers={k: r.ledger for k, r in replicas.items()},
                  undelivered=undelivered, dropped=dropped)


def _replay_script(scenario: Scenario) -> SimRun:
    rec = Recorder()
    for ev in scenario.script:
        try:
            kind = EventKind(ev["kind"])
            rec.emit(kind, ev["op"], ev["process"], int(ev["logical_time"]),
                     args=tuple(ev.get("args", ())), returned=_tup(ev.get("returned")))
        except (KeyError, ValueError) as exc:
            raise ScenarioError(f"bad script event {ev!r}: {exc}") from exc
    full = rec.history(correct=scenario.correct_set(),
                       complete=scenario.declared_complete)
    return SimRun(scenario=scenario, history=full.restricted(), full_history=full,
                  oracle=None, ledgers={})


def _tup(v):
    return tuple(v) if isinstance(v, list) else v


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


def _script_event(kind: str, op: str, args, process: str, t: int, returned=None):
    return {"kind": kind, "op": op, "args": list(args), "process": process,
            "logical_time": t, "returned": returned}


def _reads(proc: str, spans):
    out = []
    for inv_t, rsp_t, chain in spans:
        out.append(_script_event("invocation", "read", (), proc, inv_t))
        out.append(_script_event("response", "read", (), proc, rsp_t, list(chain)))
    return out


def _appends(proc: str, blocks):
    return [_script_event("invocation", "append", (blk, parent), proc, t)
            for blk, parent, t in blocks]


def _preset_figure_3() -> Scenario:
    script = (
        _appends("i", [("1", "b0", 0), ("2", "1", 0), ("3", "2", 5), ("4", "3", 10)])
        + _reads("i", [(1, 2, ["b0", "1", "2"]),
                       (6, 7, ["b0", "1", "2", "3"]),
                       (11, 12, ["b0", "1", "2", "3", "4"])])
        + _reads("j", [(3, 4, ["b0", "1"]),
                       (8, 9, ["b0", "1", "2"]),
                       (13, 14, ["b0", "1", "2", "3", "4"])])
    )
    return Scenario(
        name="figure-3",
        description="Scripted two-process history whose reads always observe "
                    "nested chains: the strong criterion holds.",
        processes=[ProcessSpec("i"), ProcessSpec("j")],
        script=script, stabilization_suffix=1, declared_complete=True,
        expected_verdicts={"sc": "PASS", "ec": "PASS"})


def _preset_figure_4() -> Scenario:
    script = (
        _appends("i", [("1", "b0", 0), ("2", "b0", 0), ("4", "2", 1)])
        + _appends("j", [("3", "1", 7), ("5", "3", 11)])
        + _reads("i", [(2, 4, ["b0", "2", "4"]),
                       (6, 9, ["b0", "2", "4"]),
                       (12, 16, ["b0", "1", "3", "5"])])
        + _reads("j", [(5, 6, ["b0", "1"]),
                       (8, 10, ["b0", "1", "3"]),
                       (14, 18, ["b0", "1", "3", "5"])])
    )
    return Scenario(
        name="figure-4",
        description="Scripted fork that heals: early reads disagree (strong "
                    "prefix fails) but the tails converge, so the eventual "
                    "criterion holds.",
        processes=[ProcessSpec("i"), ProcessSpec("j")],
        script=script, stabilization_suffix=1, declared_complete=True,
        expected_verdicts={"sc": "FAIL", "ec": "PASS", "strong-prefix": "FAIL"})


def _preset_figure_5() -> Scenario:
    script = (
        _appends("i", [("1", "b0", 0), ("2", "b0", 0), ("4", "2", 1), ("6", "4", 11)])
        + _appends("j", [("3", "1", 7), ("5", "3", 11)])
        + _reads("i", [(2, 4, ["b0", "2", "4"]),
                       (6, 9, ["b0", "2", "4"]),
                       (12, 16, ["b0", "2", "4", "6"])])
        + _reads("j", [(5, 6, ["b0", "1"]),
                       (8, 10, ["b0", "1", "3"]),
                       (14, 18, ["b0", "1", "3", "5"])])
    )
    return Scenario(
        name="figure-5",
        description="Scripted permanent fork: the two processes keep growing "
                    "disjoint branches, so even the eventual criterion fails.",
        processes=[ProcessSpec("i"), ProcessSpec("j")],
        script=script, stabilization_suffix=1, declared_complete=True,
        expected_verdicts={"sc": "FAIL", "ec": "FAIL", "eventual-prefix": "FAIL"})


def _preset_figure_6() -> Scenario:
    script = [
        _script_event("send", "send", ("b0", "1"), "i", 1),
        _script_event("update", "update", ("b0", "1"), "i", 2),
        _script_event("receive", "receive", ("b0", "1"), "i", 6),
        _script_event("receive", "receive", ("b0", "1"), "j", 7),
        _script_event("receive", "receive", ("b0", "1"), "k", 8),
        _script_event("update", "update", ("b0", "1"), "j", 9),
        _script_event("update", "update", ("b0", "1"), "k", 10),
    ]
    return Scenario(
        name="figure-6",
        description="Scripted broadcast round: the originator updates before "
                    "its own delivery, everyone else receives then updates.",
        processes=[ProcessSpec("i"), ProcessSpec("j"), ProcessSpec("k")],
        script=script, stabilization_suffix=1, declared_complete=True,
        expected_verdicts={"update-agreement": "PASS", "lrc": "PASS"})


def _mesh_delays(procs: List[str], self_delay: int, cross_delay: int):
    out = [{"from": p, "to": p, "delay": self_delay} for p in procs]
    out += [{"from": a, "to": b, "delay": cross_delay}
            for a in procs for b in procs if a != b]
    return out


def _preset_fork_strong_violation() -> Scenario:
    procs = ["p0", "p1"]
    return Scenario(
        name="fork-strong-violation",
        description="Two processes win tokens for the same parent (unbounded "
                    "capacity) and each applies the other's block before its "
                    "own; the concurrent reads are not prefix-comparable. "
                    "Capacity 1 removes the fork and the violation.",
        processes=[ProcessSpec(p, merit=1.0, block_interval=100, append_offset=10,
                               read_interval=11, read_offset=0) for p in procs],
        channel=ChannelModel(kind=ChannelKind.SYNCHRONOUS, delta=4,
                             delays=_mesh_delays(procs, self_delay=3, cross_delay=1)),
        oracle=OracleSpec(capacity=None, seed=7),
        seed=7, duration=13, declared_complete=True, stabilization_suffix=1,
        expected_verdicts={"strong-prefix": "FAIL", "sc": "FAIL", "ec": "PASS"})


def _preset_update_drop() -> Scenario:
    procs = ["p0", "p1", "p2"]
    return Scenario(
        name="update-drop",
        description="One appender, three replicas; every copy of the first "
                    "block toward p2 is lost, so p2 never updates and the "
                    "replicas diverge forever. Removing the drop heals "
                    "everything.",
        processes=[
            ProcessSpec("p0", merit=1.0, block_interval=10, append_offset=10,
                        read_interval=7, read_offset=0),
            ProcessSpec("p1", merit=1.0, read_interval=7, read_offset=0),
            ProcessSpec("p2", merit=1.0, read_interval=7, read_offset=0),
        ],
        channel=ChannelModel(kind=ChannelKind.SYNCHRONOUS, delta=1,
                             drops=[{"block": "p0-1", "to": "p2"}]),
        oracle=OracleSpec(capacity=None, seed=11),
        seed=11, duration=45, declared_complete=True, stabilization_suffix=1,
        expected_verdicts={"update-agreement": "FAIL", "lrc": "FAIL", "ec": "FAIL"})


def _preset_bitcoin_like() -> Scenario:
    procs = [f"p{i}" for i in range(4)]
    return Scenario(
        name="bitcoin-like",
        description="Unbounded-capacity oracle, longest chain, competing "
                    "appenders every interval with delivery well under it: "
                    "reads taken right after an append diverge at the tip "
                    "(no strong prefix) but the chains heal every round.",
        processes=[ProcessSpec(p, merit=0.5, block_interval=10, append_offset=10,
                               read_interval=10, read_offset=1) for p in procs],
        channel=ChannelModel(kind=ChannelKind.SYNCHRONOUS, delta=3,
                             delays=_mesh_delays(procs, self_delay=1, cross_delay=2)),
        oracle=OracleSpec(capacity=None, seed=3),
        seed=3, duration=55, declared_complete=True, stabilization_suffix=1,
        expected_verdicts={"sc": "FAIL", "ec": "PASS"})


def _preset_consortium_like() -> Scenario:
    procs = [f"p{i}" for i in range(4)]
    return Scenario(
        name="consortium-like",
        description="Capacity-1 oracle: one token per parent ever, so the "
                    "replicated tree is a single path and every read is a "
                    "prefix of every later one.",
        processes=[ProcessSpec(p, merit=1.0, block_interval=10, append_offset=10,
                               read_interval=10, read_offset=3) for p in procs],
        channel=ChannelModel(kind=ChannelKind.SYNCHRONOUS, delta=3,
                             delays=_mesh_delays(procs, self_delay=1, cross_delay=2)),
        oracle=OracleSpec(capacity=1, seed=5),
        seed=5, duration=56, declared_complete=True, stabilization_suffix=1,
        expected_verdicts={"sc": "PASS", "ec": "PASS"})


PRESETS = {
    "bitcoin-like": _preset_bitcoin_like,
    "consortium-like": _preset_consortium_like,
    "fork-strong-violation": _preset_fork_strong_violation,
    "update-drop": _preset_update_drop,
    "figure-3": _preset_figure_3,
    "figure-4": _preset_figure_4,
    "figure-5": _preset_figure_5,
    "figure-6": _preset_figure_6,
}


def preset_names() -> List[str]:
    return sorted(PRESETS)


def preset(name: str) -> Scenario:
    try:
        return PRESETS[name]()
    except KeyError:
        raise ScenarioError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}")
