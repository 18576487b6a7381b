"""Hypothesis strategies that more than one test module draws from.

`scenarios()` draws a small scenario document for the simulator: two to four
processes, forks, delay and drop rules, byzantine processes that withhold
and lag their sends, both channel kinds and every oracle capacity.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import strategies as st  # noqa: E402


@st.composite
def scenarios(draw):
    n = draw(st.integers(2, 4))
    ids = [f"p{i}" for i in range(n)]
    processes, delays, withheld = [], [], []
    for i, pid in enumerate(ids):
        byzantine = i > 0 and draw(st.booleans())
        processes.append({
            "id": pid,
            "merit": draw(st.sampled_from([1.0, 0.5, 0.2])),
            "behavior": "byzantine" if byzantine else "correct",
            "block_interval": draw(st.sampled_from([None, 4, 6, 9])),
            "read_interval": draw(st.sampled_from([None, 3, 5, 7])),
            "read_offset": draw(st.integers(0, 4)),
        })
        if byzantine:    # it withholds its sends from some processes and lags the rest
            withheld += [{"from": pid, "to": q}
                         for q in draw(st.lists(st.sampled_from(ids), max_size=2))]
            lag = draw(st.integers(0, 3))
            if lag:
                delays.append({"from": pid, "delay": lag})
    drops = draw(st.lists(st.fixed_dictionaries(
        {"to": st.sampled_from(ids)},
        optional={"block": st.sampled_from(["p0-1", "p0-2", "p1-1"]),
                  "from": st.sampled_from(ids)}), max_size=2)) + withheld
    return {
        "version": 1,
        "name": "equivalence",
        "processes": processes,
        "channel": {"kind": draw(st.sampled_from(["synchronous", "asynchronous"])),
                    "delta": draw(st.integers(1, 4)),
                    "async_max_delay": draw(st.integers(1, 12)),
                    "delays": delays, "drops": drops},
        "oracle": {"capacity": draw(st.sampled_from([None, 1, 2])),
                   "seed": draw(st.integers(0, 2**16))},
        "seed": draw(st.integers(0, 2**16)),
        "duration": draw(st.integers(10, 45)),
    }
