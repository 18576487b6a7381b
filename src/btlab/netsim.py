"""Deterministic message-passing simulator.

Processes replicate a block tree. An append is oracle-side (the oracle is a
trusted zero-latency shared service): grant loop against the local selected
leaf, then consume. A winning block is disseminated with a reliable
broadcast with echo forwarding: the origin sends to everybody including
itself, and every correct process re-forwards a message once on first
receive; a later copy of a block is ignored, and a copy that one scheduled
earlier beats to its process is never scheduled. Replicas apply blocks on
receive (an update event), so a process's own update can land after a cross
receive when the channel is slower to self-deliver. A block received before
its parent waits in the run's buffer, keyed by process and parent.

The channel rules are resolved once per run into a route per (sender, dest)
link. A send matching a `drops` rule is lost; any other send's delay is that
of the first matching `delays` rule, else a seeded draw in [1, delta]
(synchronous) or [1, async_max_delay] (asynchronous). A byzantine process
never reads or echoes, and only its append invocations reach the checked
history; a block it withholds is a `drops` rule with its id as `from`.

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
import re
from dataclasses import MISSING, asdict, dataclass, field
from itertools import count, product
from pathlib import Path
from typing import (AbstractSet, Any, Callable, Dict, FrozenSet, Iterator, List, NamedTuple,
                    Optional, Sequence, Set, Tuple)

from .blocktree import Block
from .checkers import CHECKERS, DEFAULT_WINDOW, Verdict, run_checker
from .history import (_INVOCATION, _RECEIVE, _RESPONSE, _SEND, _UPDATE, Event, EventKind,
                      History, Operation, TraceError, _new_event, _new_operation,
                      decode_events)
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


def _require(cond: bool, msg: str):
    if not cond:
        raise ScenarioError(msg)


def _integer(value: Any, what: str, low: Optional[int] = None, high: Optional[int] = None,
             null: bool = False) -> None:
    """Reject `value` unless it is a JSON integer in [low, high], or null when allowed."""
    if (value is None and null) or (type(value) is int and (low is None or value >= low)
                                    and (high is None or value <= high)):
        return
    bounds = ("" if low is None else f" >= {low}" if high is None
              else f" in [{low}, {high}]")
    raise ScenarioError(f"{what} must be a number, an integer{bounds}"
                        f"{' or null' if null else ''}, got {value!r}")


def _known_keys(doc: Dict[str, Any], known: AbstractSet[str], what: str) -> None:
    """Reject `doc` if it has a key `known` lacks, naming the first such key."""
    if not doc.keys() <= known:
        key = next(k for k in doc if k not in known)
        raise ScenarioError(f"unknown key {key!r} in {what}; "
                            f"known keys: {', '.join(sorted(known))}")


# run_scenario schedules one heap entry per append or read tick
MAX_DURATION = 10**6

# the keys a channel rule may hold
_DELAY_KEYS = frozenset(("from", "to", "delay"))
_DROP_KEYS = frozenset(("block", "from", "to"))


class Route(NamedTuple):
    """How a send from one process reaches one destination."""

    dest: str
    delay: Optional[int]          # None: drawn from the run's rng
    drops_all: bool
    drops: FrozenSet[str]         # block ids lost on this link


def _links(rule: Dict[str, Any], order: Sequence[str]) -> Iterator[Tuple[str, str]]:
    """The (sender, dest) links a channel rule matches: from its `from` to its
    `to`, where an end it does not give is every process of `order`."""
    return product((rule["from"],) if "from" in rule else order,
                   (rule["to"],) if "to" in rule else order)


@dataclass
class ChannelModel:
    kind: ChannelKind = ChannelKind.SYNCHRONOUS
    delta: int = 3                    # synchronous delivery bound
    async_max_delay: int = 30
    delays: List[Dict[str, Any]] = field(default_factory=list)   # {from,to,delay}
    drops: List[Dict[str, Any]] = field(default_factory=list)    # {block?,from?,to?}

    def __post_init__(self):
        try:
            self.kind = ChannelKind(self.kind)
        except ValueError:
            raise ScenarioError(f"unknown channel kind {self.kind!r}") from None
        _integer(self.delta, "channel delta", 1)
        _integer(self.async_max_delay, "async_max_delay", 1)
        _require(type(self.delays) is list and all(
            type(r) is dict and type(r.get("delay")) is int for r in self.delays),
            "channel delays must be a list of rules, each with an integer delay")
        _require(type(self.drops) is list and all(type(r) is dict for r in self.drops),
                 "channel drops must be a list of objects")
        for rule in self.delays:
            _known_keys(rule, _DELAY_KEYS, "a channel delays rule")
            _integer(rule["delay"], "a channel delays rule's delay", 1)
        for rule in self.drops:
            _known_keys(rule, _DROP_KEYS, "a channel drops rule")
        _require(all(type(v) is str for rules in (self.delays, self.drops) for rule in rules
                     for k, v in rule.items() if k != "delay"),
                 "a channel rule's from, to and block must be strings")

    @property
    def max_delay(self) -> int:
        """The largest delay a draw can give."""
        return self.delta if self.kind is ChannelKind.SYNCHRONOUS else self.async_max_delay

    def routes(self, order: Sequence[str]) -> Dict[str, List[Route]]:
        """Each sender's route to every process of `order`, in that order.

        A link's delay is that of the first `delays` rule matching it, or None
        when none does and the delay is drawn. A link drops every block when a
        `drops` rule without a `block` matches it, else the blocks that its
        matching `drops` rules name.
        """
        delay: Dict[Tuple[str, str], int] = {}
        for rule in self.delays:
            for link in _links(rule, order):
                delay.setdefault(link, rule["delay"])
        drops_all: Set[Tuple[str, str]] = set()
        drops: Dict[Tuple[str, str], Set[str]] = {}
        for rule in self.drops:
            for link in _links(rule, order):
                if "block" in rule:
                    drops.setdefault(link, set()).add(rule["block"])
                else:
                    drops_all.add(link)
        return {sender: [Route(dest, delay.get((sender, dest)), (sender, dest) in drops_all,
                               frozenset(drops.get((sender, dest), ())))
                         for dest in order]
                for sender in order}


@dataclass
class ProcessSpec:
    id: str
    merit: float = 1.0
    behavior: str = "correct"                      # correct | byzantine
    block_interval: Optional[int] = None           # None: never appends
    append_offset: Optional[int] = None            # default: block_interval
    read_interval: Optional[int] = None            # None: never reads
    read_offset: int = 0

    def __post_init__(self):
        _require(type(self.id) is str and self.id, "each process needs a string id")
        if self.behavior not in ("correct", "byzantine"):
            raise ScenarioError(f"behavior must be correct|byzantine, got {self.behavior!r}")
        if type(self.merit) not in (int, float) or not 0.0 < self.merit <= 1.0:
            raise ScenarioError(f"merit must be a number in (0, 1], got {self.merit!r}")
        _integer(self.block_interval, "block_interval", 1, null=True)
        _integer(self.append_offset, "append_offset", 0, null=True)
        _integer(self.read_interval, "read_interval", 1, null=True)
        _integer(self.read_offset, "read_offset", 0)

    @property
    def correct(self) -> bool:
        return self.behavior == "correct"


@dataclass
class OracleSpec:
    capacity: Optional[int] = None                 # None: prodigal (unbounded)
    seed: int = 0

    def __post_init__(self):
        _integer(self.capacity, "oracle capacity", 1, null=True)
        _integer(self.seed, "oracle seed")


@dataclass
class Scenario:
    name: str
    processes: List[ProcessSpec]
    channel: ChannelModel = field(default_factory=ChannelModel)
    oracle: OracleSpec = field(default_factory=OracleSpec)
    seed: int = 0
    duration: int = 50
    declared_complete: bool = True
    stabilization_suffix: int = DEFAULT_WINDOW
    expected_verdicts: Dict[str, str] = field(default_factory=dict)
    script: List[Dict[str, Any]] = field(default_factory=list)
    description: str = ""

    def __post_init__(self):
        _require(type(self.name) is str and self.name, "name must be a string")
        # `btlab run --out DIR` writes DIR/<name>.trace.jsonl and its siblings
        _require(not any(part in self.name for part in ("/", "\\", "..", "\x00")),
                 f"name must not hold '/', '\\', '..' or NUL, got {self.name!r}")
        _require(type(self.processes) is list and self.processes,
                 "processes must be a non-empty list")
        ids = [p.id for p in self.processes]
        if len(set(ids)) != len(ids):
            raise ScenarioError(f"duplicate process id {max(ids, key=ids.count)!r}")
        # a rule naming no process of the scenario, or a block the simulator
        # never names (the k-th block of process p is "p-k"), would match nothing
        for what, rules in (("delays", self.channel.delays), ("drops", self.channel.drops)):
            for rule in rules:
                for end in ("from", "to"):
                    if end in rule and rule[end] not in ids:
                        raise ScenarioError(f"a channel {what} rule's {end} names unknown "
                                            f"process {rule[end]!r}; processes: {', '.join(ids)}")
                owner, _, k = rule.get("block", "").rpartition("-")
                if "block" in rule and (owner not in ids or not re.fullmatch("[1-9][0-9]*", k)):
                    raise ScenarioError(f"a channel drops rule's block must be '<process>-<k>' "
                                        f"with k >= 1, got {rule['block']!r}; processes: "
                                        f"{', '.join(ids)}")
        _integer(self.seed, "seed")
        _integer(self.duration, "duration", 0, MAX_DURATION)
        _require(type(self.declared_complete) is bool, "declared_complete must be a boolean")
        _integer(self.stabilization_suffix, "stabilization_suffix", 1)
        _require(type(self.expected_verdicts) is dict, "expected_verdicts must be an object")
        for crit, status in self.expected_verdicts.items():
            if crit not in CHECKERS:
                raise ScenarioError(f"unknown criterion {crit!r} in expected_verdicts; "
                                    f"choose from {', '.join(CHECKERS)}")
            if status not in ("PASS", "FAIL", "INCONCLUSIVE"):
                raise ScenarioError(
                    f"expected verdict for {crit} must be PASS|FAIL|INCONCLUSIVE")
        _require(type(self.script) is list, "script must be a list of events")
        for n, ev in enumerate(self.script):
            if type(ev) is dict and "event_id" in ev:
                raise TraceError(f"script event {n}: its id is its position, not an event_id")
        for e in _script_events(self.script):
            if e.process not in ids:
                raise ScenarioError(f"script event {e.event_id} names unknown process "
                                    f"{e.process!r}; processes: {', '.join(ids)}")
        _require(type(self.description) is str, "description must be a string")

    def correct_set(self) -> Set[str]:
        return {p.id for p in self.processes if p.correct}

    def window(self) -> int:
        return self.stabilization_suffix

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        doc = asdict(self)
        doc["channel"]["kind"] = self.channel.kind.value
        return {"version": SCENARIO_VERSION, **doc}


def _script_events(script: List[Any]) -> List[Event]:
    """A script event is a trace line without its event_id, which is its
    position; a malformed one is a TraceError, as in a trace."""
    return decode_events(((n, {"event_id": n, **ev} if type(ev) is dict else ev)
                          for n, ev in enumerate(script)), "script event")


def _from(cls, doc: Any, what: str, known: Optional[AbstractSet[str]] = None, **parts: Any):
    """A `cls` built from the fields `doc` gives (a missing required one as
    null) and `parts`; every other field keeps its class default. A key that
    is not in `known` (default: the fields of `cls`) is rejected."""
    if type(doc) is not dict:
        raise ScenarioError(f"{what} must be an object")
    fields = cls.__dataclass_fields__
    _known_keys(doc, fields.keys() if known is None else known, what)
    given = {name: doc.get(name) for name, f in fields.items()
             if name in doc or f.default is MISSING and f.default_factory is MISSING}
    return cls(**{**given, **parts})


_SCENARIO_KEYS = frozenset(("version", *Scenario.__dataclass_fields__))


def scenario_from_dict(doc: Dict[str, Any]) -> Scenario:
    _require(type(doc) is dict, "scenario must be a JSON object")
    if type(doc.get("version")) is not int or doc["version"] != SCENARIO_VERSION:
        raise ScenarioError(f"unsupported scenario version {doc.get('version')!r}")
    processes = doc.get("processes")
    if type(processes) is list:
        processes = [_from(ProcessSpec, p, "a process") for p in processes]
    return _from(Scenario, doc, "scenario", _SCENARIO_KEYS, processes=processes,
                 channel=_from(ChannelModel, doc.get("channel", {}), "channel"),
                 oracle=_from(OracleSpec, doc.get("oracle", {}), "oracle"))


# -- the simulator ------------------------------------------------------------


@dataclass
class SimRun:
    scenario: Scenario
    history: History                  # full_history.restricted(): one line memo for both
    full_history: History             # everything, oracle chatter included
    oracle: Optional[OracleState]
    ledgers: Dict[str, RefinedLedger]
    undelivered: int = 0
    dropped: int = 0
    waiting: int = 0        # blocks received whose parent never came: never applied


def _record(events: List[Event], kind: EventKind, op: str, args: Tuple, process: str, tick: int,
            returned: Any = None) -> Event:
    """Append to a run's `events` its next event, with its position as its id,
    and return it: the one place the simulator builds an event."""
    event = _new_event((len(events), kind, op, args, process, tick, returned))
    events.append(event)
    return event


def _delay_drawer(rng: random.Random, max_delay: int) -> Callable[[], int]:
    """A function drawing one delay in [1, `max_delay`] from `rng` per call.

    It draws what `rng.randint(1, max_delay)` draws, from the same stream:
    `randint` runs this very rejection loop over `getrandbits`
    (`randrange` -> `_randbelow_with_getrandbits`), here without the
    argument checks that it pays on each call.
    """
    getrandbits, k = rng.getrandbits, max_delay.bit_length()

    def draw() -> int:
        r = getrandbits(k)
        while r >= max_delay:
            r = getrandbits(k)
        return 1 + r

    return draw


def run_scenario(scenario: Scenario) -> SimRun:
    if scenario.script:
        return _replay_script(scenario)
    # each event recorded by `_record`, and each operation at its response, in
    # invocation order: what `History` would sort and match
    events: List[Event] = []
    operations: List[Optional[Operation]] = []
    pair = operations.append
    oracle = OracleState(
        {p.id: Merit(p.merit) for p in scenario.processes},
        capacity=scenario.oracle.capacity, seed=scenario.oracle.seed)
    ledgers = {p.id: RefinedLedger(oracle) for p in scenario.processes}
    made = {p.id: count(1) for p in scenario.processes}        # each process's block numbers
    # (process, parent id) -> the blocks received there before that parent, in arrival order
    orphans: Dict[Tuple[str, str], List[Block]] = {}
    order = [p.id for p in scenario.processes]

    correct = scenario.correct_set()
    heap: List[Tuple[int, int, int, Any]] = []      # (tick, action class, order, payload)
    schedule_order = count()

    def push(tick: int, klass: int, payload: Any):
        heapq.heappush(heap, (tick, klass, next(schedule_order), payload))

    undelivered = 0
    dropped = 0
    routes = scenario.channel.routes(order)
    # the run's rng draws these delays and nothing else
    draw_delay = _delay_drawer(random.Random(scenario.seed), scenario.channel.max_delay)
    # (dest, block id) -> the earliest tick a copy is scheduled for. A copy due
    # no earlier is beaten and not pushed (on a tie, the earlier push pops
    # first), so a block reaches a process once: in the copy due at that tick.
    due: Dict[Tuple[str, str], int] = {}

    def operation(op: str, process: str, tick: int, args: Tuple, returned: Any):
        """Record an invocation and its response, both of `args`, and pair them."""
        invocation = _record(events, _INVOCATION, op, args, process, tick)
        response = _record(events, _RESPONSE, op, args, process, tick, returned)
        pair(_new_operation((process, op, invocation, response)))

    def apply(dest: str, block: Block, tick: int):
        """Apply a block `dest` received, or let it wait for its parent; each block
        the ledger admits is an update, then its waiting children apply, depth first."""
        ledger = ledgers[dest]
        if block.parent_id not in ledger.tree:
            orphans.setdefault((dest, block.parent_id), []).append(block)
            return
        todo = [block]
        while todo:
            block = todo.pop()
            if ledger.integrate(block):
                _record(events, _UPDATE, "update", (block.parent_id, block.id), dest, tick)
                todo.extend(reversed(orphans.pop((dest, block.id), ())))

    def send(sender: str, block: Block, tick: int, skip: Optional[str]):
        """Deliver block to every process but skip, after channel delays."""
        nonlocal dropped, undelivered
        block_id = block.id
        for dest, delay, drops_all, drops in routes[sender]:
            if dest == skip:
                continue
            if drops_all or block_id in drops:
                dropped += 1
                continue
            at = tick + (draw_delay() if delay is None else delay)
            if at > scenario.duration:
                undelivered += 1
                continue
            key = (dest, block_id)
            if due.get(key, at + 1) <= at:
                continue
            due[key] = at
            push(at, _DELIVER, (dest, block))

    # schedule the static actions
    for p in scenario.processes:
        if p.block_interval:
            start = p.append_offset if p.append_offset is not None else p.block_interval
            for t in range(start, scenario.duration + 1, p.block_interval):
                push(t, _APPEND, p.id)
        if p.read_interval and p.id in correct:
            for t in range(p.read_offset, scenario.duration + 1, p.read_interval):
                push(t, _READ, p.id)

    while heap:
        tick, klass, _, payload = heapq.heappop(heap)
        if klass == _APPEND:
            candidate = Block(id=f"{payload}-{next(made[payload])}")
            res = ledgers[payload].acquire(candidate, payload)
            block = res.block
            granted = res.status is not AppendStatus.EXHAUSTED
            operation("get_token", payload, tick, (candidate.id,), res.attempts)
            append = _record(events, _INVOCATION, "append",
                             (candidate.id, block.parent_id or "", granted), payload, tick)
            slot = len(operations)
            pair(None)                              # the append's, filled at its response
            if granted:
                operation("consume_token", payload, tick, (block.id, block.parent_id),
                          tuple(sorted(b.id for b in res.consumed)))
            response = _record(events, _RESPONSE, "append", (), payload, tick, bool(res))
            operations[slot] = _new_operation((payload, "append", append, response))
            if res:
                _record(events, _SEND, "send", (block.parent_id, block.id), payload, tick)
                send(payload, block, tick, None)
        elif klass == _DELIVER:
            dest, block = payload
            if due[dest, block.id] < tick:          # beaten by a later push due earlier
                continue
            if dest in correct:
                _record(events, _RECEIVE, "receive", (block.parent_id, block.id), dest, tick)
                apply(dest, block, tick)
                send(dest, block, tick, dest)          # echo to every other process
        else:                                       # _READ
            operation("read", payload, tick, (), ledgers[payload].read())

    full = History._trusted(tuple(events), correct, scenario.declared_complete,
                            tuple(operations))
    return SimRun(scenario=scenario, history=full.restricted(), full_history=full,
                  oracle=oracle, ledgers=ledgers, undelivered=undelivered, dropped=dropped,
                  waiting=sum(map(len, orphans.values())))


def _replay_script(scenario: Scenario) -> SimRun:
    # a script comes from outside: building its full history now rejects a
    # malformed one (a response without invocation, say) at run time
    full = History(_script_events(scenario.script), correct=scenario.correct_set(),
                   complete=scenario.declared_complete)
    return SimRun(scenario=scenario, history=full.restricted(), full_history=full,
                  oracle=None, ledgers={})


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
        **({} if run.scenario.script else {"seed": run.scenario.seed}),   # a script reads none
        "undelivered": run.undelivered,
        "dropped": run.dropped,
        "waiting": run.waiting,
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
