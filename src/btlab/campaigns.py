"""Property campaigns: seeded random schedules and exhaustive enumerations.

Each lab returns a CampaignResult whose `violations` list carries the
offending seed (or interleaving) so a failure is reproducible from the CLI;
`unshown` names each existence property no run exhibited, so it has no seed.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .blocktree import GENESIS_ID, Block
from .checkers import Status, check_ec, check_sc, check_strong_prefix
from .history import EventKind
from .netsim import (ChannelKind, ChannelModel, OracleSpec, ProcessSpec,
                     Scenario, SimRun, preset, run_scenario)
from .oracle import Merit, OracleState, frugal_oracle, prodigal_oracle
from .refinement import DEFAULT_MAX_GRANT_ATTEMPTS
from .shm import (CONSENSUS_PROPOSERS, CrashSchedule, RegisterSpace, Steps,
                  cas_via_consume, consume_via_snapshot, finish, interleavings,
                  run_consensus, run_interleaving)


@dataclass
class CampaignResult:
    name: str
    runs: int
    violations: List[Tuple[Any, str]] = field(default_factory=list)
    unshown: List[str] = field(default_factory=list)
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.unshown


# lab -> (its function, the `btlab campaign` flags it reads). A lab takes
# exactly those flags, as keywords, and holds their defaults itself.
LABS: Dict[str, Tuple[Callable[..., CampaignResult], Tuple[str, ...]]] = {}


def _lab(name: str, *flags: str):
    def register(fn: Callable[..., CampaignResult]) -> Callable[..., CampaignResult]:
        LABS[name] = (fn, flags)
        return fn
    return register


# -- the paper's oracle results, over simulator runs ---------------------------------
# Each run is a `run_scenario` run of `_fork_scenario`: three processes append
# every 4 ticks to their own replica over a slow asynchronous channel, so
# appends from stale views contend for one parent. A run's successes are the
# raw trace's consume_token responses whose block is among the consumed tokens;
# its fork width is the largest number of successes under one parent.


def _fork_scenario(k: int, seed: int) -> Scenario:
    return Scenario(
        name=f"fork-k{k}-{seed}",
        processes=[ProcessSpec(p, merit=1.0, block_interval=4, read_interval=4,
                               read_offset=2) for p in ("p0", "p1", "p2")],
        channel=ChannelModel(kind=ChannelKind.ASYNCHRONOUS, async_max_delay=12),
        oracle=OracleSpec(capacity=k, seed=seed), seed=seed, duration=40)


def _successes(run: SimRun) -> List[Tuple[str, str, str]]:
    """(process, block, parent) of each append whose token was consumed, in order."""
    return [(e.process, e.args[0], e.args[1]) for e in run.full_history.events
            if e.op == "consume_token" and e.kind is EventKind.RESPONSE
            and e.args[0] in e.returned]


@_lab("kfork", "runs", "seed")
def kfork_campaign(runs: int = 200, seed: int = 0) -> CampaignResult:
    """For k in 1..3: the fork width never exceeds the oracle capacity k and
    reaches it, and at k = 1 strong prefix holds."""
    out = CampaignResult(name="kfork", runs=3 * runs)
    for k in (1, 2, 3):
        hit_equality = strong = 0
        for i in range(runs):
            run_seed = seed * 100003 + i
            run = run_scenario(_fork_scenario(k, run_seed))
            parents = Counter(parent for _, _, parent in _successes(run))
            width = max(parents.values(), default=0)
            if width > k:
                out.violations.append((run_seed, f"fork width {width} > k={k}"))
            hit_equality += width == k
            if check_strong_prefix(run.history).status == Status.PASS:
                strong += 1
            elif k == 1:
                out.violations.append((run_seed, "k=1 run fails strong-prefix"))
        out.stats[f"k={k}"] = {"equality_hits": hit_equality, "strong_prefix_pass": strong}
        if hit_equality == 0:
            out.unshown.append(f"no run ever forked exactly {k} ways")
    return out


@_lab("containment", "runs", "seed")
def containment_campaign(runs: int = 100, seed: int = 0) -> CampaignResult:
    """A capacity-k run's successes replay verbatim on any looser oracle.

    The successes (in consume order) are re-driven against capacity k' >= k
    and against the unbounded oracle; every replayed append must be granted
    and consumed under its original parent.
    """
    out = CampaignResult(name="containment", runs=runs)
    replays = 0
    for i in range(runs):
        run_seed = seed * 99991 + i
        k = 1 + (i % 3)
        successes = _successes(run_scenario(_fork_scenario(k, run_seed)))
        for k2 in dict.fromkeys((k, k + 1, 3, None)):    # each capacity once
            why = _replay_successes(successes, k2, run_seed)
            replays += 1
            if why:
                out.violations.append(
                    (run_seed, f"k={k} run not reproduced at k'={k2}: {why}"))
    out.stats = {"replays": replays}
    return out


def _replay_successes(successes: List[Tuple[str, str, str]], capacity: Optional[int],
                      seed: int) -> str:
    """Why the successes do not replay on an oracle of this capacity; "" if they do."""
    callers = sorted({c for c, _, _ in successes}) or ["p0"]
    oracle = OracleState({c: Merit(1.0) for c in callers}, capacity=capacity,
                         seed=seed + 1)
    for caller, block_id, parent_id in successes:
        stamped, _ = oracle.draw_token(parent_id, Block(id=block_id), caller,
                                       DEFAULT_MAX_GRANT_ATTEMPTS)
        if stamped is None:
            return f"no grant for {block_id}"
        if stamped not in oracle.consume_token(stamped):
            return f"append of {block_id} under {parent_id} rejected"
    return ""


# -- hierarchy corpus: strong implies eventual ---------------------------------------


def _random_scenario(seed: int) -> Scenario:
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    procs = [f"p{i}" for i in range(n)]
    capacity = rng.choice([None, None, 1, 2])
    interval = rng.choice([8, 10, 12])
    self_d = rng.randint(1, 2)
    cross_d = rng.randint(1, 4)
    appenders = rng.randint(1, n) if capacity is None else 1
    drops = []
    if rng.random() < 0.2:
        drops = [{"block": "p0-1", "to": procs[-1]}]
    specs = []
    for idx, p in enumerate(procs):
        specs.append(ProcessSpec(
            p, merit=1.0,
            block_interval=interval if idx < appenders else None,
            append_offset=interval,
            read_interval=rng.choice([5, 7, interval]),
            read_offset=rng.randint(0, 4)))
    return Scenario(
        name=f"random-{seed}",
        processes=specs,
        channel=ChannelModel(kind=ChannelKind.SYNCHRONOUS, delta=max(self_d, cross_d),
                             delays=[{"from": a, "to": b,
                                      "delay": self_d if a == b else cross_d}
                                     for a in procs for b in procs],
                             drops=drops),
        oracle=OracleSpec(capacity=capacity, seed=seed),
        seed=seed, duration=rng.choice([40, 50, 60]),
        declared_complete=rng.random() < 0.5,
        stabilization_suffix=rng.choice([1, 2, 3]))


CORPUS_PRESETS = ("figure-3", "figure-4", "figure-5", "figure-6", "bitcoin-like",
                  "consortium-like", "fork-strong-violation", "update-drop")


def hierarchy_corpus(count: int, seed: int = 0):
    """Yield `count` (label, history, window) triples: the eight presets
    first, then random runs."""
    for i in range(count):
        sc = (preset(CORPUS_PRESETS[i]) if i < len(CORPUS_PRESETS)
              else _random_scenario(seed * 7919 + i - len(CORPUS_PRESETS)))
        yield sc.name, run_scenario(sc).history, sc.window()


@_lab("hierarchy", "runs", "seed")
def hierarchy_campaign(runs: int = 1000, seed: int = 0) -> CampaignResult:
    """No history may satisfy the strong criterion yet fail the eventual one,
    and at least one must hold eventually while failing strongly."""
    out = CampaignResult(name="hierarchy", runs=runs)
    counts = {"sc": {}, "ec": {}}
    strict_witness = 0
    for label, history, window in hierarchy_corpus(runs, seed):
        sc = check_sc(history, window)
        ec = check_ec(history, window)
        counts["sc"][sc.status] = counts["sc"].get(sc.status, 0) + 1
        counts["ec"][ec.status] = counts["ec"].get(ec.status, 0) + 1
        if sc.status == Status.PASS and ec.status == Status.FAIL:
            out.violations.append((label, "sc PASS but ec FAIL"))
        if ec.status == Status.PASS and sc.status == Status.FAIL:
            strict_witness += 1
    counts["ec_pass_sc_fail"] = strict_witness
    out.stats = counts
    if strict_witness == 0:
        out.unshown.append("no history separated the two criteria")
    return out


# -- consensus on the capacity-1 oracle ------------------------------------------------

@_lab("shm", "runs", "seed")
def consensus_campaign(runs: int = 200, seed: int = 0) -> CampaignResult:
    """Agreement/termination/integrity/validity across seeded crash schedules."""
    out = CampaignResult(name="consensus", runs=runs)
    crashed_runs = 0
    exhausted_total = 0
    for i in range(runs):
        run_seed = seed * 104729 + i
        rng = random.Random(run_seed)
        crash = CrashSchedule()
        if rng.random() < 0.6:
            victim = f"p{rng.randrange(CONSENSUS_PROPOSERS)}"
            crash = CrashSchedule(victims=((victim, rng.randint(1, 12)),))
            crashed_runs += 1
        outcome = run_consensus(run_seed, crash)
        exhausted_total += len(outcome.exhausted)
        decided = list(outcome.decided.values())
        if len({b.id for b in decided}) > 1:                    # agreement
            out.violations.append((run_seed, f"two decisions: {sorted(b.id for b in decided)}"))
            continue
        expected_deciders = {f"p{j}" for j in range(CONSENSUS_PROPOSERS)} \
            - set(outcome.crashed) - set(outcome.exhausted)
        if set(outcome.decided) != expected_deciders:           # termination
            out.violations.append((run_seed, "a live proposer never decided"))
            continue
        for proposer, block in outcome.decided.items():         # validity
            if not block.id.startswith("v-p"):
                out.violations.append((run_seed, f"decided foreign value {block.id}"))
                break
    out.stats = {"crash_schedules": crashed_runs, "exhausted": exhausted_total}
    return out


# -- exhaustive equivalence labs ---------------------------------------------------------


@_lab("cas")
def cas_equivalence_suite() -> CampaignResult:
    """Token consumption implements compare&swap: every interleaving of up to
    three concurrent swappers returns exactly what atomic cas returns, in
    linearization (consume) order, and exactly one swap from empty wins."""
    out = CampaignResult(name="cas-equivalence", runs=0)
    for n_callers in (1, 2, 3):
        for order in interleavings([2] * n_callers):
            out.runs += 1
            # the contended register: one consume under genesis can win
            oracle = frugal_oracle({f"c{i}": Merit(1.0) for i in range(n_callers)},
                                   k=1, seed=0)
            # every caller holds a granted token for the same parent
            stamped = {i: oracle.get_token(GENESIS_ID, Block(id=f"x{i}"), f"c{i}")
                       for i in range(n_callers)}
            if None in stamped.values():
                out.violations.append((tuple(order), "a caller of merit 1 got no token"))
                continue
            returns = run_interleaving(
                order, [cas_via_consume(oracle, stamped[i]) for i in range(n_callers)])

            # a caller's first step is its consume, the linearization point
            reference = RegisterSpace({"reg": frozenset()})
            expected: List[Any] = [None] * n_callers
            for who in dict.fromkeys(order):
                expected[who] = reference.cas(
                    "reg", frozenset(), frozenset({stamped[who]}))
            if expected != returns:
                out.violations.append((tuple(order), f"{returns} != {expected}"))
            winners = [f"c{i}" for i, v in enumerate(returns) if v == frozenset()]
            if len(winners) != 1:
                out.violations.append((tuple(order), f"winners: {winners}"))
    return out


def _consume_in_lockstep(space: RegisterSpace, oracle: OracleState, writer: str,
                         writers: List[str], stamped: Block) -> Steps:
    """A snapshot consume whose steps the unbounded oracle mirrors: its add
    rides the register update, and its consumed set is read with the scan."""
    steps = consume_via_snapshot(space, GENESIS_ID, writer, writers, stamped)
    next(steps)
    oracle.consume_token(stamped)
    yield
    return finish(steps), oracle.consumed_view(GENESIS_ID)


@_lab("snapshot")
def snapshot_equivalence_suite() -> CampaignResult:
    """Update-then-scan implements unbounded consume: in every interleaving of
    two concurrent calls the scan returns exactly the tokens already
    published, which is what the unbounded oracle's consumed set holds at
    that step; each caller sees at least its own token and the union is both."""
    out = CampaignResult(name="snapshot-equivalence", runs=0)
    writers = ["w0", "w1"]
    for order in interleavings([2, 2]):
        out.runs += 1
        space = RegisterSpace()
        oracle = prodigal_oracle({w: Merit(1.0) for w in writers}, seed=0)
        stamped = {i: oracle.get_token(GENESIS_ID, Block(id=f"y{i}"), w)
                   for i, w in enumerate(writers)}
        returns = run_interleaving(order, [
            _consume_in_lockstep(space, oracle, w, writers, stamped[i])
            for i, w in enumerate(writers)])
        for i, (w, (got, oracle_view)) in enumerate(zip(writers, returns)):
            if got != oracle_view:
                out.violations.append(
                    (tuple(order), f"{w} saw {got}, oracle had {oracle_view}"))
            if stamped[i] not in got:
                out.violations.append((tuple(order), f"{w} missed its own token"))
        union = frozenset().union(*[got for got, _ in returns])
        if union != frozenset(stamped.values()):
            out.violations.append((tuple(order), f"union {union} incomplete"))
    return out


# -- oracle tape statistics ----------------------------------------------------------------

TAPE_POPS, TAPE_MERIT = 10_000, 0.5


@_lab("tape", "seed")
def tape_statistics(seed: int = 2026) -> CampaignResult:
    """A merit-p tape grants within 3 sigma of p * TAPE_POPS in TAPE_POPS pops."""
    out = CampaignResult(name="tape", runs=TAPE_POPS)
    tape = prodigal_oracle({"miner": Merit(TAPE_MERIT)}, seed=seed).tapes["miner"]
    grants = sum(1 for _ in range(TAPE_POPS) if tape.pop())
    mean = TAPE_POPS * TAPE_MERIT
    sigma = (mean * (1 - TAPE_MERIT)) ** 0.5
    out.stats = {"grants": grants, "low": mean - 3 * sigma, "high": mean + 3 * sigma}
    if abs(grants - mean) > 3 * sigma:
        out.violations.append((seed, f"{grants} grants, over 3 sigma from {mean:.0f}"))
    return out
