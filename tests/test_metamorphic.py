"""Metamorphic checks: renaming what a verdict must not depend on keeps it.

Each transform renames processes, renames non-genesis blocks, shifts every
logical time by a constant, or renumbers event ids in order. On every preset
and on random simulator runs, all nine criteria must keep their status, and
each witness must map through the event id renumbering. Unlike
`reference_checkers.py`, these checks share no definition with the checkers.
"""

import pytest

from btlab.blocktree import GENESIS_ID
from btlab.campaigns import hierarchy_corpus
from btlab.checkers import CHECKERS, run_checker
from btlab.history import History

RANDOM_RUNS = 300


def _block(b):
    return b if b in (GENESIS_ID, "") else f"m.{b}"


def _blocks(values):
    return tuple(_block(v) if type(v) is str else v for v in values)


# name -> (event map, correct-set map, witness id map)
TRANSFORMS = {
    "process-prefix": (lambda e: e._replace(process=f"q.{e.process}"),
                       lambda p: f"q.{p}", lambda i: i),
    "block-prefix": (lambda e: e._replace(
        args=_blocks(e.args),
        returned=_blocks(e.returned) if type(e.returned) is tuple else e.returned),
        lambda p: p, lambda i: i),
    "time-shift": (lambda e: e._replace(logical_time=e.logical_time + 1000),
                   lambda p: p, lambda i: i),
    "event-renumbering": (lambda e: e._replace(event_id=3 * e.event_id + 1),
                          lambda p: p, lambda i: 3 * i + 1),
}


@pytest.fixture(scope="module")
def corpus():
    return list(hierarchy_corpus(8 + RANDOM_RUNS, seed=3))


@pytest.mark.parametrize("name", TRANSFORMS)
def test_every_verdict_survives_the_transform(corpus, name):
    event_map, process_map, id_map = TRANSFORMS[name]
    for label, h, window in corpus:
        moved = History(map(event_map, h.events), correct=map(process_map, h.correct),
                        complete=h.complete)
        for criterion in CHECKERS:
            before = run_checker(criterion, h, window)
            after = run_checker(criterion, moved, window)
            assert (after.status, after.witness) == \
                (before.status, tuple(map(id_map, before.witness))), (label, criterion)


def test_the_corpus_holds_every_status(corpus):
    """The transforms meet passes, failures and inconclusive verdicts."""
    statuses = {run_checker(c, h, w).status for _, h, w in corpus for c in CHECKERS}
    assert statuses == {"PASS", "FAIL", "INCONCLUSIVE"}
