"""Golden verdicts: every criterion's verdict on every golden run, pinned.

Each run of `test_golden` (every preset and the three generated forked runs)
is simulated, and all nine criteria judge its restricted history, declared
open and complete, at windows 1 and 3. The status, witness and detail of
each verdict are hashed. A change that alters one verdict, down to a word of
its detail, fails here; a change meant to alter verdicts re-records them and
says why.

Re-record with:  PYTHONPATH=src python tests/test_golden_verdicts.py
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from btlab.checkers import CHECKERS, run_checker
from btlab.history import History
from btlab.netsim import run_scenario
from test_golden import NAMES, scenario

VERDICTS_PATH = Path(__file__).parent / "golden" / "verdicts.json"
WINDOWS = (1, 3)


def verdict_digests(name):
    h = run_scenario(scenario(name)).history
    digests = {}
    for complete in (False, True):
        hc = History(h.events, correct=h.correct, complete=complete)
        for window in WINDOWS:
            for criterion in CHECKERS:
                v = run_checker(criterion, hc, window)
                line = json.dumps([v.status, list(v.witness), v.detail])
                key = f"{criterion} window={window} complete={complete}"
                digests[key] = hashlib.sha256(line.encode()).hexdigest()
    return digests


def test_verdict_file_covers_every_golden_run():
    recorded = json.loads(VERDICTS_PATH.read_text())
    assert sorted(recorded) == sorted(NAMES)
    assert sum(map(len, recorded.values())) == len(NAMES) * len(CHECKERS) * 2 * len(WINDOWS)


@pytest.mark.parametrize("name", NAMES)
def test_verdicts_match_their_golden_digests(name):
    recorded = json.loads(VERDICTS_PATH.read_text())
    assert verdict_digests(name) == recorded[name]


if __name__ == "__main__":
    VERDICTS_PATH.parent.mkdir(exist_ok=True)
    verdicts = {name: verdict_digests(name) for name in NAMES}
    VERDICTS_PATH.write_text(json.dumps(verdicts, indent=2, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, verdicts.values()))} verdict digests to {VERDICTS_PATH}",
          file=sys.stderr)
