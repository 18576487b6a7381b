"""Golden verdicts: every criterion's verdict on every golden run, pinned.

Each run of `test_golden` (every preset and the three generated forked runs)
is simulated, and all nine criteria judge its restricted history, declared
open and complete, at windows 1 and 3. The status, witness and detail of
each verdict are hashed. A change that alters one verdict, down to a word of
its detail, fails here; a change meant to alter verdicts re-records them and
says why.

The same nine criteria also judge the first 200 histories of the hierarchy
corpus (seed 0) at the same windows, open and complete; those 7,200 verdicts
are pinned by one SHA-256, `CORPUS_DIGEST`.

Re-record both with:  PYTHONPATH=src python tests/test_golden_verdicts.py
"""

import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

from btlab.campaigns import hierarchy_corpus
from btlab.checkers import CHECKERS, run_checker
from btlab.history import History
from btlab.netsim import run_scenario
from test_golden import NAMES, scenario

VERDICTS_PATH = Path(__file__).parent / "golden" / "verdicts.json"
WINDOWS = (1, 3)
CORPUS_RUNS = 200
CORPUS_DIGEST = "67b7d168f43087ff4ef26a961b7a78447a476c818336387d44326a5532a887b7"


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


def corpus_digest():
    """One SHA-256 over [label, criterion, window, complete, status, witness,
    detail] of every corpus verdict, one JSON line each."""
    digest = hashlib.sha256()
    for label, h, _ in hierarchy_corpus(CORPUS_RUNS, seed=0):
        for complete in (False, True):
            hc = History(h.events, correct=h.correct, complete=complete)
            for window in WINDOWS:
                for criterion in CHECKERS:
                    v = run_checker(criterion, hc, window)
                    digest.update(json.dumps([label, criterion, window, complete, v.status,
                                              list(v.witness), v.detail]).encode() + b"\n")
    return digest.hexdigest()


def test_verdict_file_covers_every_golden_run():
    recorded = json.loads(VERDICTS_PATH.read_text())
    assert sorted(recorded) == sorted(NAMES)
    assert sum(map(len, recorded.values())) == len(NAMES) * len(CHECKERS) * 2 * len(WINDOWS)


@pytest.mark.parametrize("name", NAMES)
def test_verdicts_match_their_golden_digests(name):
    recorded = json.loads(VERDICTS_PATH.read_text())
    assert verdict_digests(name) == recorded[name]


def test_corpus_verdicts_match_their_digest():
    assert corpus_digest() == CORPUS_DIGEST


if __name__ == "__main__":
    VERDICTS_PATH.parent.mkdir(exist_ok=True)
    verdicts = {name: verdict_digests(name) for name in NAMES}
    VERDICTS_PATH.write_text(json.dumps(verdicts, indent=2, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, verdicts.values()))} verdict digests to {VERDICTS_PATH}",
          file=sys.stderr)
    source = Path(__file__)
    source.write_text(re.sub(r'^CORPUS_DIGEST = ".*"$', f'CORPUS_DIGEST = "{corpus_digest()}"',
                             source.read_text(), count=1, flags=re.M))
    print(f"wrote the corpus digest to {source}", file=sys.stderr)
