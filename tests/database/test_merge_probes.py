"""The one merge survives any split of the leaves it merges.

:func:`~repro.database.query.merge_probes` ranks the in-process leaf
scan (one source per leaf) and every sharded answer (one source per
shard).  Cutting each leaf's rows into 1–3 order-preserving subsets, each
probed under its own local bucket rule, must not move a hit, a tie or a
``QueryStats`` field: that is the sharded front's exactness argument,
checked over generated leaves instead of two hand-built cases.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database.query import QueryStats, merge_probes
from tests.database.oracles import rows_probe

#: Few distinct scores, so ties within and across leaves are common.
_SCORES = st.sampled_from([0.0, 0.25, 0.5, 1.0])


@st.composite
def split_leaves(draw):
    """Leaves of ``(key, score, in_bucket)`` rows, each cut into subsets.

    Returns ``(leaves, k)``; a leaf is ``(rows, subsets, ann)`` where
    ``subsets`` keep the rows' order and may be empty (a shard holding
    none of the leaf).
    """
    leaves = []
    for _ in range(draw(st.integers(1, 4))):
        count = draw(st.integers(0, 12))
        rows = [
            (key, draw(_SCORES), draw(st.booleans())) for key in range(count)
        ]
        cuts = draw(st.integers(1, 3))
        owner = draw(st.lists(st.integers(0, cuts - 1), min_size=count, max_size=count))
        subsets = [
            [row for row, at in zip(rows, owner) if at == part] for part in range(cuts)
        ]
        leaves.append((rows, subsets, draw(st.booleans())))
    return leaves, draw(st.integers(1, 15))


def _merged(answers, k):
    stats = QueryStats()
    hits = [
        (position, probe.keys[index], probe.scores[index])
        for position, probe, index in merge_probes(answers, k, stats)
    ]
    return hits, stats


@given(split_leaves())
@settings(max_examples=300, deadline=None)
def test_merge_over_any_split_equals_merge_over_whole_leaves(case):
    leaves, k = case
    whole = [[rows_probe(rows, k, ann)] for rows, _subsets, ann in leaves]
    split = [
        [rows_probe(subset, k, ann) for subset in subsets]
        for _rows, subsets, ann in leaves
    ]
    assert _merged(split, k) == _merged(whole, k)


@given(split_leaves())
@settings(max_examples=100, deadline=None)
def test_merge_over_whole_leaves_is_one_sort_of_the_scanned_rows(case):
    leaves, k = case
    hits, stats = _merged([[rows_probe(rows, k)] for rows, *_ in leaves], k)
    scanned = [
        (position, row)
        for position, (rows, *_) in enumerate(leaves)
        for row in ([row for row in rows if row[2]] or rows)
    ]
    ranked = sorted(scanned, key=lambda item: (-item[1][1], item[0], item[1][0]))
    assert hits == [(position, key, score) for position, (key, score, _) in ranked[:k]]
    assert stats.comparisons == stats.ranked == len(scanned)
