"""The paper's results as properties of every generated run.

Each property draws scenarios from the shared `strategies.scenarios()`
(delay and drop rules, byzantine processes, both channel kinds) and states
one result of Anceaume et al. on the simulated run.
"""

from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from btlab.campaigns import _replay_successes, _successes  # noqa: E402
from btlab.checkers import Status, run_checker  # noqa: E402
from btlab.netsim import run_scenario, scenario_from_dict  # noqa: E402
from strategies import scenarios  # noqa: E402


def _at_capacity(doc, k):
    return scenario_from_dict({**doc, "oracle": {**doc["oracle"], "capacity": k}})


def _widest_consume(run):
    """The most blocks the oracle consumed under one block of any replica's tree."""
    return max(len(run.oracle.consumed_view(block.id))
               for ledger in run.ledgers.values() for block in ledger.tree.blocks())


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=scenarios())
def test_a_capacity_1_oracle_gives_strong_prefix_and_no_fork(doc):
    # Θ_F,1 consumes at most one block per parent, so no two replicas' chains
    # can diverge and every pair of reads is prefix-comparable
    run = run_scenario(_at_capacity(doc, 1))
    verdict = run_checker("strong-prefix", run.history, 1)
    assert verdict.status == Status.PASS, str(verdict)
    widest = _widest_consume(run)
    assert widest <= 1, widest


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=scenarios(), k=st.sampled_from([2, 3]))
def test_a_capacity_k_oracle_forks_no_block_more_than_k_ways(doc, k):
    # Θ_F,k consumes at most k blocks per parent, so no replica's tree holds
    # a block with more than k children
    run = run_scenario(_at_capacity(doc, k))
    widest = _widest_consume(run)
    assert widest <= k, widest
    forks = {p: ledger.tree.max_fork_count() for p, ledger in run.ledgers.items()}
    assert max(forks.values()) <= k, forks


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=scenarios(), k=st.sampled_from([2, 3]))
def test_a_capacity_k_run_replays_on_every_looser_oracle(doc, k):
    # containment, Θ_F,k ⊆ Θ_F,k' ⊆ Θ_P for k <= k': the appends a capacity-k
    # run consumed, replayed in their order, are each granted and consumed
    # under their parent at capacity k, at k + 1 and unbounded; and the
    # replay holds to its capacity: a run that consumed w > 1 blocks under
    # one parent does not replay at capacity w - 1
    successes = _successes(run_scenario(_at_capacity(doc, k)))
    seed = doc["oracle"]["seed"]
    why = {k2: _replay_successes(successes, k2, seed) for k2 in (k, k + 1, None)}
    assert set(why.values()) == {""}, why
    width = max(Counter(parent for _, _, parent in successes).values(), default=0)
    if width > 1:
        assert _replay_successes(successes, width - 1, seed), width


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
