"""Golden trace digests: the simulator's output bytes, pinned.

Every preset, plus three larger forked runs, is simulated and both of its
traces are hashed. A change that alters a single byte of a trace fails
here; a change meant to alter traces re-records the digests and says why.

Re-record with:  PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from btlab.netsim import preset, preset_names, run_scenario, scenario_from_dict

DIGESTS_PATH = Path(__file__).parent / "golden" / "digests.json"


def _forked(name, processes, merit, duration, seed):
    return {
        "version": 1,
        "name": name,
        "processes": [{"id": f"p{i}", "merit": merit, "block_interval": 10,
                       "read_interval": 7} for i in range(processes)],
        "channel": {"kind": "synchronous", "delta": 3},
        "oracle": {"capacity": None, "seed": seed + 1},
        "seed": seed,
        "duration": duration,
        "stabilization_suffix": 3,
    }


GENERATED = {
    "forked-4p-merit0.02-d1000": _forked("forked-4p-merit0.02-d1000", 4, 0.02, 1000, 41),
    "forked-8p-merit1.0-d2000": _forked("forked-8p-merit1.0-d2000", 8, 1.0, 2000, 83),
    "forked-4p-merit0.02-d2000": _forked("forked-4p-merit0.02-d2000", 4, 0.02, 2000, 47),
}


def scenario(name):
    if name in GENERATED:
        return scenario_from_dict(GENERATED[name])
    return preset(name)


def trace_digests(name):
    run = run_scenario(scenario(name))
    return {
        "history": hashlib.sha256(run.history.to_jsonl().encode()).hexdigest(),
        "full_history": hashlib.sha256(run.full_history.to_jsonl().encode()).hexdigest(),
    }


NAMES = list(preset_names()) + list(GENERATED)


def test_digest_file_covers_every_preset_and_generated_run():
    recorded = json.loads(DIGESTS_PATH.read_text())
    assert sorted(recorded) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_traces_match_their_golden_digests(name):
    recorded = json.loads(DIGESTS_PATH.read_text())
    assert trace_digests(name) == recorded[name]


if __name__ == "__main__":
    DIGESTS_PATH.parent.mkdir(exist_ok=True)
    digests = {name: trace_digests(name) for name in NAMES}
    DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS_PATH}", file=sys.stderr)
