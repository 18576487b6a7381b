"""Seeded inputs, jobs and the reference check for the three workloads.

Every workload draws its inputs from a finite universe of generated
scenarios. The outcome of every universe member (verdict status and witness
of each judged criterion, SHA-256 of each serialised trace) is recorded in
reference.json, so a timed job is checked against what the program answered
when the benchmark was defined. --seed chooses which members a run uses and
in what order; the program only ever sees the generated scenario dicts or
trace text.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Set, Tuple

from btlab import checkers, netsim
from btlab.history import History

REFERENCE_PATH = Path(__file__).with_name("reference.json")

WORKLOADS = ("run-forks", "check-traces", "hierarchy-sweep")

BASE_CRITERIA = ("block-validity", "local-monotonic-read", "strong-prefix",
                 "ever-growing-tree", "eventual-prefix", "update-agreement", "lrc")
CRITERIA = BASE_CRITERIA + ("sc", "ec")
_WINDOWED = {"ever-growing-tree", "eventual-prefix", "sc", "ec"}

FORKS_UNIVERSE = 64

# kind -> (processes, oracle capacity, duration); sized so that one check of
# each kind costs about the same.
TRACE_KINDS: Dict[str, Tuple[int, Any, int]] = {
    "cap1-4p": (4, 1, 250),
    "prodigal-4p": (4, None, 200),
    "prodigal-8p": (8, None, 80),
}
TRACES_PER_KIND = 4          # every run checks all of them

# The presets in the order campaigns.hierarchy_corpus visits them.
HIERARCHY_PRESETS = ("figure-3", "figure-4", "figure-5", "figure-6",
                     "bitcoin-like", "consortium-like", "fork-strong-violation",
                     "update-drop")
HIERARCHY_RUNS = 1000        # jobs per campaign pass, presets included
HIERARCHY_PASSES = 4         # generated members cover this many passes
HIERARCHY_UNIVERSE = (HIERARCHY_RUNS - len(HIERARCHY_PRESETS)) * HIERARCHY_PASSES

Outcome = Dict[str, Any]


# -- generators -----------------------------------------------------------


def _replicated(name: str, rng: random.Random, processes: int, capacity, merit: float,
                duration: int) -> Dict[str, Any]:
    return {
        "version": 1,
        "name": name,
        "processes": [{"id": f"p{i}", "merit": merit, "block_interval": 10,
                       "read_interval": 7} for i in range(processes)],
        "channel": {"kind": "synchronous", "delta": 3},
        "oracle": {"capacity": capacity, "seed": rng.randrange(2**31)},
        "seed": rng.randrange(2**31),
        "duration": duration,
        "stabilization_suffix": 3,
    }


def forks_scenario(seed: int) -> Dict[str, Any]:
    """A forked run: 4 processes, prodigal oracle, merit 0.02, ~150 ticks."""
    rng = random.Random(f"run-forks:{seed}")
    return _replicated(f"forks-{seed}", rng, 4, None, 0.02, rng.randint(140, 160))


def trace_scenario(kind: str, seed: int, duration: int = 0) -> Dict[str, Any]:
    """A scenario whose full history becomes a check-traces input."""
    processes, capacity, default_duration = TRACE_KINDS[kind]
    rng = random.Random(f"check-traces:{kind}:{seed}")
    return _replicated(f"{kind}-{seed}", rng, processes, capacity, 1.0,
                       duration or default_duration)


def hierarchy_scenario(seed: int) -> Dict[str, Any]:
    """A small random run from the distribution of campaigns._random_scenario."""
    rng = random.Random(f"hierarchy-sweep:{seed}")
    n = rng.randint(2, 4)
    procs = [f"p{i}" for i in range(n)]
    capacity = rng.choice([None, None, 1, 2])
    interval = rng.choice([8, 10, 12])
    self_d = rng.randint(1, 2)
    cross_d = rng.randint(1, 4)
    appenders = rng.randint(1, n) if capacity is None else 1
    drops = [{"block": "p0-1", "to": procs[-1]}] if rng.random() < 0.2 else []
    processes = [{"id": p, "merit": 1.0,
                  "block_interval": interval if i < appenders else None,
                  "append_offset": interval,
                  "read_interval": rng.choice([5, 7, interval]),
                  "read_offset": rng.randint(0, 4)} for i, p in enumerate(procs)]
    return {
        "version": 1,
        "name": f"random-{seed}",
        "processes": processes,
        "channel": {"kind": "synchronous", "delta": max(self_d, cross_d),
                    "delays": [{"from": a, "to": b,
                                "delay": self_d if a == b else cross_d}
                               for a in procs for b in procs],
                    "drops": drops},
        "oracle": {"capacity": capacity, "seed": seed},
        "seed": seed,
        "duration": rng.choice([40, 50, 60]),
        "declared_complete": rng.random() < 0.5,
        "stabilization_suffix": rng.choice([1, 2, 3]),
    }


# -- jobs: the calls the CLI verbs make -------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _verdict(v) -> List[Any]:
    return [v.status, list(v.witness)]


def judge(name: str, h: History, window) -> List[Any]:
    # Looked up on the module at call time, so the traced run sees its wrappers.
    fn = getattr(checkers, "check_" + name.replace("-", "_"))
    return _verdict(fn(h, window) if name in _WINDOWED else fn(h))


def run_forks_job(doc: Dict[str, Any]) -> Outcome:
    """`btlab run --out`: simulate, judge sc and ec, serialise both histories."""
    sc = netsim.scenario_from_dict(doc)
    run = netsim.run_scenario(sc)
    window = sc.window()
    return {"sc": judge("sc", run.history, window),
            "ec": judge("ec", run.history, window),
            "history": digest(run.history.to_jsonl()),
            "full_history": digest(run.full_history.to_jsonl())}


def check_traces_job(text: str) -> Outcome:
    """`btlab check --complete`: parse, restrict, judge all nine criteria."""
    h = History.from_jsonl(text)
    h = History(h.events, correct=set(h.processes), complete=True).restricted()
    return {name: judge(name, h, checkers.DEFAULT_WINDOW) for name in CRITERIA}


def hierarchy_job(doc: Dict[str, Any]) -> Outcome:
    """One history of `btlab campaign --lab hierarchy`: simulate, judge sc and ec."""
    sc = netsim.scenario_from_dict(doc)
    run = netsim.run_scenario(sc)
    window = sc.window()
    return {"sc": judge("sc", run.history, window),
            "ec": judge("ec", run.history, window)}


def simulate_trace(doc: Dict[str, Any]) -> str:
    return netsim.run_scenario(netsim.scenario_from_dict(doc)).full_history.to_jsonl()


# -- universes and seeded plans --------------------------------------------------


def forks_universe() -> Dict[str, Dict[str, Any]]:
    return {f"forks-{i}": forks_scenario(i) for i in range(FORKS_UNIVERSE)}


def trace_universe() -> Dict[str, Dict[str, Any]]:
    return {f"{kind}-{i}": trace_scenario(kind, i)
            for kind in TRACE_KINDS for i in range(TRACES_PER_KIND)}


def hierarchy_universe() -> Dict[str, Dict[str, Any]]:
    docs = {f"preset:{name}": netsim.preset(name).to_dict() for name in HIERARCHY_PRESETS}
    docs.update({f"random-{i}": hierarchy_scenario(i) for i in range(HIERARCHY_UNIVERSE)})
    return docs


@dataclass
class Workload:
    """A job function and its seeded plan of (key, input), cycled by the run."""

    name: str
    job: Callable[[Any], Outcome]
    plan: List[Tuple[str, Any]]
    expected: Dict[str, Outcome]
    broken: Set[str] = field(default_factory=set)   # inputs that failed their digest

    def passes(self, key: str, outcome: Outcome) -> bool:
        return self.expected.get(key) == outcome


def plan_keys(name: str, seed: int) -> List[str]:
    """The seeded job order of one workload (before cycling)."""
    rng = random.Random(f"{name}:{seed}")
    if name == "run-forks":
        keys = [f"forks-{i}" for i in range(FORKS_UNIVERSE)]
        rng.shuffle(keys)
        return keys
    if name == "check-traces":
        per_kind = [rng.sample([f"{kind}-{i}" for i in range(TRACES_PER_KIND)], TRACES_PER_KIND)
                    for kind in TRACE_KINDS]
        return [key for turn in zip(*per_kind) for key in turn]   # kinds take turns
    if name == "hierarchy-sweep":
        generated = [f"random-{i}" for i in range(HIERARCHY_UNIVERSE)]
        rng.shuffle(generated)
        per_pass = HIERARCHY_RUNS - len(HIERARCHY_PRESETS)
        presets = [f"preset:{p}" for p in HIERARCHY_PRESETS]
        return [key for k in range(HIERARCHY_PASSES)
                for key in presets + generated[k * per_pass:(k + 1) * per_pass]]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def prepare(name: str, seed: int, reference: Dict[str, Any]) -> Workload:
    """Generate a run's inputs; check-traces also simulates and digests its traces."""
    keys = plan_keys(name, seed)
    expected = reference[name]
    if name == "check-traces":
        texts = {key: simulate_trace(doc) for key, doc in trace_universe().items()}
        broken = {key for key, text in texts.items()
                  if digest(text) != reference["trace-digests"][key]}
        return Workload(name, check_traces_job, [(k, texts[k]) for k in keys],
                        expected, broken)
    if name == "run-forks":
        docs, job = forks_universe(), run_forks_job
    else:
        docs, job = hierarchy_universe(), hierarchy_job
    return Workload(name, job, [(k, docs[k]) for k in keys], expected)


# -- the reference -----------------------------------------------------------------


def load_reference(path: Path = REFERENCE_PATH) -> Dict[str, Any]:
    return json.loads(path.read_text())


def record_reference() -> Dict[str, Any]:
    """Outcome of every universe member at the current commit."""
    ref: Dict[str, Any] = {"run-forks": {}, "check-traces": {}, "trace-digests": {},
                           "hierarchy-sweep": {}}
    for key, doc in forks_universe().items():
        ref["run-forks"][key] = run_forks_job(doc)
    for key, doc in trace_universe().items():
        text = simulate_trace(doc)
        ref["trace-digests"][key] = digest(text)
        ref["check-traces"][key] = check_traces_job(text)
    for key, doc in hierarchy_universe().items():
        ref["hierarchy-sweep"][key] = hierarchy_job(doc)
    return ref


def dump_reference(ref: Dict[str, Any]) -> str:
    """One universe member per line, so a re-recording diffs readably."""
    sections = []
    for section in sorted(ref):
        rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                          for k, v in sorted(ref[section].items()))
        sections.append(f" {json.dumps(section)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(sections) + "\n}\n"
