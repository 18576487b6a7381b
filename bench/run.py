"""btlab benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload run-forks --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --record        # re-record bench/reference.json

Run from the repository root; btlab is imported from ./src. With --trace 0
the last stdout line is a JSON object with every end-to-end metric; with
--trace 1 it holds every per-layer metric instead. Lines before it are the
same numbers for people, plus the failed-job fraction. Spans of a traced run
are written to .bench_out/.
"""

import time

T0 = time.perf_counter()    # set-up time counts from here, imports included

import argparse
import gc
import itertools
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "btlab" / "__init__.py").is_file():
    sys.exit(f"bench: no btlab sources under {ROOT / 'src'}; run from a full checkout")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench import jobs, tracing  # noqa: E402  (needs the path set above)

SETUP_RUNS = 5               # set-ups per run: this process plus four fresh ones
DOUBLING_REPEATS = 3         # best of three, for each size of a doubling ratio

# The highest percentile with at least ten jobs beyond it, at the job counts a
# 30-second run reached when the benchmark was defined: 90-150 run-forks jobs,
# 110-200 check-traces jobs and 5700-10000 hierarchy-sweep jobs, depending on
# the machine's speed at the time.
TAIL_PERCENTILE = {"run-forks": 85, "check-traces": 90, "hierarchy-sweep": 99}


# The CPU speed of a shared machine drifts, by up to 2x within minutes, so raw
# times of identical work do not repeat from run to run. A fixed calibration
# loop that never touches btlab therefore runs between jobs, and every
# reported time is scaled to the speed at which that loop runs REFERENCE_RATE
# times a second. A change to btlab moves the scaled times exactly as much as
# the raw ones; only the machine's speed drops out.
REFERENCE_RATE = 400.0       # calibration loops per second at the reference speed
CALIBRATE_EVERY = 0.05       # seconds of job time between two calibration loops
SETUP_CALIBRATION_LOOPS = 20


def calibration_loop() -> None:
    gc.disable()             # the loop's speed must not depend on btlab's heap
    try:
        d = {}
        for i in range(1500):
            d[(i % 37, str(i))] = (i, i * 2)
        json.dumps(sorted(d.items(), key=lambda kv: (kv[0][0], -kv[1][0]))[:300])
    finally:
        gc.enable()


class Calibration:
    """Calibration loops run so far and the seconds they took."""

    def __init__(self):
        self.loops = 0
        self.seconds = 0.0

    def sample(self, loops: int = 1) -> None:
        t = time.perf_counter()
        for _ in range(loops):
            calibration_loop()
        self.seconds += time.perf_counter() - t
        self.loops += loops

    @property
    def scale(self) -> float:
        """Machine speed relative to the reference: times are multiplied by it."""
        return self.loops / self.seconds / REFERENCE_RATE


class Phase:
    """Per-job latencies of one closed-loop phase and how many jobs failed."""

    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.elapsed = 0.0           # timed-phase seconds, calibration loops excluded
        self.calibration = Calibration()

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_phase(workload: jobs.Workload, seconds: float, max_jobs: int = 0,
              tracer: tracing.Tracer = None) -> Phase:
    """Run the workload's plan, cycled, one job at a time until `seconds` pass."""
    phase = Phase()
    since_calibration = 0.0
    start = time.perf_counter()
    for n, (key, arg) in enumerate(itertools.cycle(workload.plan)):
        t = time.perf_counter()
        try:
            if key in workload.broken:
                raise RuntimeError(f"input {key} does not match its reference digest")
            outcome = tracer.run_job(n, workload.job, arg) if tracer else workload.job(arg)
            end = time.perf_counter()
            ok = workload.passes(key, outcome)
            if not ok:
                print(f"bench: {key}: outcome differs from the reference", file=sys.stderr)
        except Exception:
            end = time.perf_counter()
            ok = False
            print(f"bench: {key} raised:\n{traceback.format_exc()}", file=sys.stderr)
        phase.latencies.append(end - t)
        phase.failed += not ok
        since_calibration += end - t
        if since_calibration >= CALIBRATE_EVERY:
            phase.calibration.sample()
            since_calibration = 0.0
        if time.perf_counter() - start >= seconds or phase.attempted == max_jobs:
            break
    phase.elapsed = time.perf_counter() - start - phase.calibration.seconds
    return phase


def set_up(name: str, seed: int) -> jobs.Workload:
    """Generate inputs, check trace digests and warm up on one job.

    The warm-up input is the same for every seed, so set-up time does not
    depend on which input a seed happens to put first.
    """
    workload = jobs.prepare(name, seed, jobs.load_reference())
    _key, arg = min(workload.plan, key=lambda item: item[0])
    workload.job(arg)
    gc.collect()
    return workload


def scaled_setup_seconds() -> float:
    """Seconds since this process started, scaled by a calibration taken now."""
    raw = time.perf_counter() - T0
    calibration = Calibration()
    calibration.sample(SETUP_CALIBRATION_LOOPS)
    return raw * calibration.scale


def setup_in_fresh_process(args) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def percentile(values, p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def doubling_ratios() -> dict:
    """Time a run-forks simulation and a capacity-1 check_ec at a size and twice it."""
    def best(fn):
        times = []
        for _ in range(DOUBLING_REPEATS):
            t = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t)
        return min(times)

    doc = jobs.forks_scenario(0)
    small, large = dict(doc), dict(doc, duration=2 * doc["duration"])
    sim = [best(lambda d=d: jobs.netsim.run_scenario(jobs.netsim.scenario_from_dict(d)))
           for d in (small, large)]

    def restricted(duration):
        text = jobs.simulate_trace(jobs.trace_scenario("cap1-4p", 0, duration))
        h = jobs.History.from_jsonl(text)
        return jobs.History(h.events, correct=set(h.processes), complete=True).restricted()

    base = jobs.TRACE_KINDS["cap1-4p"][2]
    ec = [best(lambda h=restricted(d): jobs.checkers.check_ec(h)) for d in (base, 2 * base)]
    return {"netsim.doubling_ratio": (sim[1] / sim[0], "ratio"),
            "checkers.ec.doubling_ratio": (ec[1] / ec[0], "ratio")}


def design_checks(rows, layers, metrics) -> list:
    """The facts each workload was designed around, as measured by this traced run."""
    top = max(rows, key=lambda name: rows[name]["self_s"])
    job_s = rows[tracing.JOB]["s"]
    sim_s = rows["netsim.scenario_from_dict"]["s"] + rows["netsim.run_scenario"]["s"]
    check_s = rows["checkers.sc"]["s"] + rows["checkers.ec"]["s"]
    return [
        f"largest self time: layer {max(layers, key=layers.get)}, boundary {top}",
        "simulation calls per job: " + ", ".join(
            f"{m} {metrics[m][0]:g}" for m in ("blocktree.choose.calls",
                                               "oracle.tape_pop.calls",
                                               "refinement.acquire.calls")),
        f"share of job time: simulation {sim_s / job_s:.0%}, sc+ec checking {check_s / job_s:.0%}",
    ]


def report(args, phases, metrics) -> int:
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: {attempted} jobs, closed loop, one client")
    print(f"  failed_frac = {failed / max(1, attempted):.4f} (ratio)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def end_to_end_metrics(setups, phase: Phase, tail: int) -> dict:
    scale = phase.calibration.scale
    lat_ms = [x * 1000 * scale for x in phase.latencies]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (phase.attempted / phase.elapsed / scale, "1/s"),
        "job_p50_ms": (statistics.median(lat_ms), "ms"),
        "job_tail_ms": (percentile(lat_ms, tail), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def end_to_end(args) -> int:
    workload = set_up(args.workload, args.seed)
    setups = [scaled_setup_seconds()]
    setups += [setup_in_fresh_process(args) for _ in range(SETUP_RUNS - 1)]
    gc.collect()
    phase = run_phase(workload, args.seconds)
    tail = TAIL_PERCENTILE[args.workload]
    print(f"  job_tail_ms is p{tail} of {phase.attempted} jobs")
    print(f"  machine speed {phase.calibration.scale:.4f} x reference; unscaled: "
          f"jobs_per_s {phase.attempted / phase.elapsed:.6g}, "
          f"job_p50_ms {statistics.median(phase.latencies) * 1000:.6g}")
    return report(args, [phase], end_to_end_metrics(setups, phase, tail))


def traced(args) -> int:
    """Half the time untraced, then the same jobs traced; then doubling ratios."""
    workload = set_up(args.workload, args.seed)
    plain = run_phase(workload, args.seconds / 2)
    before = tracing.snapshot()
    tracer = tracing.Tracer()
    with tracer.installed():
        traced_phase = run_phase(workload, args.seconds / 2, plain.attempted, tracer)
    if not tracing.unchanged(before):
        print("bench: a traced attribute was not restored", file=sys.stderr)
        traced_phase.failed += 1
    n = traced_phase.attempted
    rows = tracing.totals(tracer)
    metrics = tracing.per_layer_metrics(tracer, rows)
    metrics["trace.overhead_ratio"] = (sum(plain.latencies[:n]) / sum(traced_phase.latencies),
                                       "ratio")
    metrics.update(doubling_ratios())
    layers = tracing.layer_self_seconds(rows)
    print("  self time per job by layer: " + ", ".join(
        f"{k} {v / n * 1000:.2f} ms" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
    for line in design_checks(rows, layers, metrics):
        print("  design: " + line)
    out = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(out)
    print(f"  spans written to {out.relative_to(ROOT)}")
    return report(args, [plain, traced_phase], dict(sorted(metrics.items())))


def record() -> int:
    ref = jobs.record_reference()
    jobs.REFERENCE_PATH.write_text(jobs.dump_reference(ref))
    print(f"recorded {sum(len(v) for v in ref.values())} entries "
          f"to {jobs.REFERENCE_PATH.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and print the set-up time (used internally)")
    parser.add_argument("--record", action="store_true",
                        help="re-record bench/reference.json from the current program")
    args = parser.parse_args(argv)
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": scaled_setup_seconds()}))
        return 0
    return traced(args) if args.trace else end_to_end(args)


if __name__ == "__main__":
    sys.exit(main())
