"""The paper's results as properties of every generated run.

Each property draws scenarios from the shared `strategies.scenarios()`
(delay and drop rules, byzantine processes, both channel kinds) and states
one result of Anceaume et al. on the simulated run.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402

from btlab.checkers import Status, run_checker  # noqa: E402
from btlab.netsim import run_scenario, scenario_from_dict  # noqa: E402
from strategies import scenarios  # noqa: E402


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=scenarios())
def test_a_capacity_1_oracle_gives_strong_prefix_and_no_fork(doc):
    # Θ_F,1 consumes at most one block per parent, so no two replicas' chains
    # can diverge and every pair of reads is prefix-comparable
    run = run_scenario(scenario_from_dict({**doc, "oracle": {**doc["oracle"], "capacity": 1}}))
    verdict = run_checker("strong-prefix", run.history, 1)
    assert verdict.status == Status.PASS, str(verdict)
    widths = {block.id: len(run.oracle.consumed_view(block.id))
              for ledger in run.ledgers.values() for block in ledger.tree.blocks()}
    assert max(widths.values()) <= 1, widths


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=scenarios())
def test_a_simulated_history_is_valid_monotonic_and_updates_only_what_it_received(doc):
    # a replica appends only oracle-consumed blocks, reads its own growing
    # tree, and applies a foreign block only on receiving it: whatever the
    # channel drops or delays, these hold on every history the simulator gives
    run = run_scenario(scenario_from_dict(doc))
    window = run.scenario.window()
    for h in (run.history, run.full_history):
        for criterion in ("block-validity", "local-monotonic-read"):
            verdict = run_checker(criterion, h, window)
            assert verdict.status == Status.PASS, str(verdict)
        verdict = run_checker("update-agreement", h, window)
        assert not (verdict.status == Status.FAIL and verdict.detail.startswith("R2")), \
            str(verdict)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=scenarios())
def test_strong_consistency_implies_eventual_consistency(doc):
    # SC's strong prefix implies EC's eventual prefix, and the two share every
    # other part: a history that satisfies SC cannot fail EC
    run = run_scenario(scenario_from_dict(doc))
    window = run.scenario.window()
    sc, ec = (run_checker(c, run.history, window) for c in ("sc", "ec"))
    assert not (sc.status == Status.PASS and ec.status == Status.FAIL), (str(sc), str(ec))
