"""The paper's results as properties of every generated run.

Each property draws scenarios from the strategy the checker-equivalence tests
use (delay and drop rules, byzantine processes, both channel kinds) and
states one result of Anceaume et al. on the simulated run.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402

from btlab.checkers import Status, run_checker  # noqa: E402
from btlab.netsim import run_scenario, scenario_from_dict  # noqa: E402
from test_checker_equivalence import scenarios  # noqa: E402


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
