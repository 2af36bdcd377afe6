"""A scoped scene query ranks inside its scope, on both fronts.

The access scope is a filter on the scenes ranked, not on the answer:
``SceneIndex.search(..., allowed=)`` drops the scenes whose concept the
caller may not enter before the top-k, on the in-process server and on
every shard worker alike.  So a scoped answer is the unscoped ranking of
the whole index, cut to the permitted concepts, first ``k`` — and it is
short only when fewer than ``k`` scenes are permitted.
"""

from __future__ import annotations

import pytest

from repro.database.access import User
from repro.database.events_query import event_concept
from repro.serving.server import QueryRequest
from repro.types import EventKind

from .test_equivalence import keys

PUBLIC = User("viewer", clearance=0)


@pytest.fixture(scope="module")
def sharded(make_harness):
    return make_harness(2).service


@pytest.fixture(params=["single", "sharded"])
def front(request, reference, sharded):
    return reference if request.param == "single" else sharded


@pytest.fixture(scope="module")
def permitted(net_db):
    """``(title, scene_id)`` of every scene a clearance-0 user may see."""
    scope = net_db.controller.permitted_leaves(PUBLIC)
    return {
        (entry.video_title, entry.scene_id)
        for entry in net_db.scene_index.entries
        if event_concept(entry.video_title, entry.event) in scope
    }


def _cut(result, permitted, k):
    return [key for key in keys(result) if key[:2] in permitted][:k]


@pytest.mark.parametrize("k", [1, 8, 1000])
def test_a_scoped_answer_is_the_unscoped_ranking_cut_to_its_scope(
    front, net_db, probes, permitted, k
):
    scenes = len(net_db.scene_index)
    assert 8 < len(permitted) < scenes  # the scope cuts, and leaves k = 8 whole
    for probe in probes:
        everything = front.query(QueryRequest(kind="scene", features=probe, k=scenes))
        scoped = front.query(QueryRequest(kind="scene", features=probe, k=k, user=PUBLIC))
        assert keys(scoped) == _cut(everything, permitted, k)
        assert len(scoped.hits) == min(k, len(permitted))
        assert scoped.comparisons == everything.comparisons == scenes


def test_scope_and_event_filter_compose(front, net_db, probes, permitted):
    """Clearance 0 may see presentations only: one event keeps scenes, one none."""
    scenes = len(net_db.scene_index)
    for event, visible in ((EventKind.PRESENTATION, 4), (EventKind.DIALOG, 0)):
        everything = front.query(
            QueryRequest(kind="scene", features=probes[0], k=scenes, event=event)
        )
        scoped = front.query(
            QueryRequest(kind="scene", features=probes[0], k=4, event=event, user=PUBLIC)
        )
        assert everything.hits and len(scoped.hits) == visible
        assert keys(scoped) == _cut(everything, permitted, 4)
