"""Tests of the benchmark itself: span arithmetic, patching, reference check,
generators, and agreement with BENCHMARK.json."""

import copy
import json

import pytest

from bench import jobs, run, tracing
from bench.tracing import Span


def test_self_time_subtracts_the_union_of_children_and_leaf_calls():
    spans = [
        Span(0, 1, 0, "root", 0.0, 10.0, 0),
        Span(0, 2, 1, "a", 1.0, 4.0, 0),
        Span(0, 3, 1, "b", 3.0, 6.0, 0),      # overlaps a: together they cover 1..6
        Span(0, 4, 2, "a.child", 2.0, 3.0, 0),
        Span(0, 5, 1, "late", 9.5, 11.0, 0),  # only 9.5..10 lies inside root
    ]
    leaves = {(0, 1, "leaf"): [3, 1.0], (0, 3, "leaf"): [1, 0.5]}
    own = tracing.self_times(spans, leaves)
    assert own[1] == pytest.approx(10 - 5 - 0.5 - 1.0)
    assert own[2] == pytest.approx(3 - 1)
    assert own[3] == pytest.approx(3 - 0.5)
    assert own[4] == pytest.approx(1)
    assert own[5] == pytest.approx(1.5)


def test_tracing_restores_every_wrapped_attribute():
    before = tracing.snapshot()
    tracer = tracing.Tracer()
    doc = jobs.netsim.preset("bitcoin-like").to_dict()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert not tracing.unchanged(before)
            tracer.run_job(0, jobs.hierarchy_job, doc)
            raise RuntimeError("a job failed mid-trace")
    assert tracing.unchanged(before)
    names = {s.name for s in tracer.spans} | {k[2] for k in tracer.leaves}
    assert {"netsim.run_scenario", "checkers.sc", "blocktree.choose", "history.po"} <= names
    assert tracer.counts["blocktree.chain_to"] > 0


def test_reference_check_fails_a_job_whose_witness_changed():
    key = "preset:figure-4"
    doc = jobs.netsim.preset("figure-4").to_dict()
    outcome = jobs.hierarchy_job(doc)
    assert outcome["sc"][1], "figure-4 has a strong-consistency witness to alter"
    altered = copy.deepcopy(outcome)
    altered["sc"][1][0] += 1
    for expected, failed in (({key: outcome}, 0), ({key: altered}, 1)):
        workload = jobs.Workload("hierarchy-sweep", jobs.hierarchy_job, [(key, doc)], expected)
        phase = run.run_phase(workload, seconds=0)
        assert (phase.attempted, phase.failed) == (1, failed)


@pytest.mark.parametrize("make", [
    jobs.forks_scenario,
    jobs.hierarchy_scenario,
    lambda seed: jobs.trace_scenario("prodigal-8p", seed),
    lambda seed: jobs.plan_keys("run-forks", seed),
    lambda seed: jobs.plan_keys("check-traces", seed),
    lambda seed: jobs.plan_keys("hierarchy-sweep", seed),
])
def test_generators_are_seeded(make):
    assert make(3) == make(3)
    assert make(3) != make(4)


def test_benchmark_json_names_the_metrics_the_runs_print():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert set(run.TAIL_PERCENTILE) == set(jobs.WORKLOADS)
    empty = tracing.Tracer()
    traced_names = set(tracing.per_layer_metrics(empty, tracing.totals(empty))) | {
        "trace.overhead_ratio", "netsim.doubling_ratio", "checkers.ec.doubling_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == traced_names
    phase = run.Phase()
    phase.latencies, phase.elapsed = [0.25, 0.5], 1.0
    phase.calibration.sample()
    printed = run.end_to_end_metrics([1.0], phase, 85)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_value, unit) in printed.items()]
