"""Channel routes against a brute-force scan of the channel rules.

`ChannelModel.routes` resolves the `delays` and `drops` rules once per run.
The reference here scans the rules for every single send, as the simulator
once did: the first matching `delays` rule fixes the delay (else it is
drawn from the run's rng), and any matching `drops` rule loses the send.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from btlab.netsim import ChannelKind, ChannelModel, _delay_drawer  # noqa: E402

PROCESSES = ["p0", "p1", "p2"]
BLOCKS = ["p0-1", "p1-1", "p2-2"]


def reference_delay(channel, sender, dest, rng):
    for rule in channel.delays:
        if rule.get("from", sender) == sender and rule.get("to", dest) == dest:
            return rule["delay"]
    return rng.randint(1, channel.delta if channel.kind is ChannelKind.SYNCHRONOUS
                       else channel.async_max_delay)


def reference_dropped(channel, block_id, sender, dest):
    return any(("block" not in rule or rule["block"] == block_id)
               and ("from" not in rule or rule["from"] == sender)
               and ("to" not in rule or rule["to"] == dest)
               for rule in channel.drops)


def route_delay(route, draw):
    """A send's delay on a route, drawn as `run_scenario` draws it: by `draw`,
    a `_delay_drawer` of the run's rng."""
    return draw() if route.delay is None else route.delay


POOLS = {"from": PROCESSES, "to": PROCESSES, "block": BLOCKS}


def rules(keys, **fixed):
    """Lists of rules, each holding `fixed` and any subset of `keys`."""
    return st.lists(st.fixed_dictionaries(
        fixed, optional={k: st.sampled_from(POOLS[k]) for k in keys}), max_size=5)


channels = st.builds(
    ChannelModel,
    kind=st.sampled_from(list(ChannelKind)),
    delta=st.integers(1, 5),
    async_max_delay=st.integers(1, 30),
    delays=rules(("from", "to"), delay=st.integers(1, 9)),
    drops=rules(("from", "to", "block")))


def check_routes(channel, seed):
    """Assert that the routes decide every (sender, dest, block) send as the
    reference does, drawing the same delays from equally seeded rngs; return
    the outcomes met: "drop", "fixed" (a rule's delay) and "draw"."""
    routes = channel.routes(PROCESSES)
    assert list(routes) == PROCESSES
    met = set()
    ours, theirs = random.Random(seed), random.Random(seed)
    draw = _delay_drawer(ours, channel.max_delay)
    for sender in PROCESSES:
        assert [route.dest for route in routes[sender]] == PROCESSES
        for route in routes[sender]:
            for block_id in BLOCKS:
                dropped = route.drops_all or block_id in route.drops
                assert dropped == reference_dropped(channel, block_id, sender, route.dest)
                if dropped:
                    met.add("drop")
                    continue
                delay = route_delay(route, draw)
                assert delay == reference_delay(channel, sender, route.dest, theirs)
                met.add("draw" if route.delay is None else "fixed")
    assert ours.random() == theirs.random()     # both drew equally often
    return met


@settings(max_examples=300, deadline=None)
@given(channel=channels, seed=st.integers(0, 2**16))
def test_a_route_decides_every_send_as_the_first_matching_rule_does(channel, seed):
    check_routes(channel, seed)


@pytest.mark.parametrize("kind", [kind.value for kind in ChannelKind])
def test_the_comparison_meets_a_fixed_delay_a_draw_and_a_drop(kind):
    channel = ChannelModel(kind=kind, delays=[{"from": "p0", "to": "p1", "delay": 4},
                                              {"to": "p1", "delay": 2}],
                           drops=[{"block": "p0-1", "to": "p2"}, {"from": "p2"}])
    assert check_routes(channel, 0) == {"drop", "draw", "fixed"}
