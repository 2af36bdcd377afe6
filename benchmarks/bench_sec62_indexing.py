"""Sec. 6.2 — cluster-based indexing vs flat scan (Eqs. 24-25).

Builds the hierarchical database from the whole mined corpus, then
compares measured comparison counts and wall-clock time of the
hierarchical descent against the flat scan, alongside the analytic
Eq. 24 / Eq. 25 cost models.  Database sizes are swept by replicating
entries so the scaling trend (the paper's T_c << T_e) is visible.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import save_result
from repro.database import VideoDatabase, combine_features
from repro.database.flat import FlatIndex
from repro.database.index import ShotEntry, build_node
from repro.database.query import search_hierarchical
from repro.evaluation.report import render_table
from repro.evaluation.timing import FlatCost, HierarchicalCost, speedup


def _corpus_database(corpus_runs) -> VideoDatabase:
    db = VideoDatabase()
    for _, run in corpus_runs:
        db.register(run)
    db.build_index()
    return db


def _replicated_index(corpus_runs, factor: int):
    """Scale the database by tiling every video's entries ``factor`` times."""
    leaves = {}
    ordinals = {}
    total = 0
    rng = np.random.default_rng(42)
    for _, run in corpus_runs:
        events = run.scene_events()
        for scene in run.structure.scenes:
            event = events[scene.scene_id]
            for shot in scene.shots:
                base = combine_features(shot.histogram, shot.texture)
                for copy in range(factor):
                    noisy = np.clip(base + rng.normal(0, 1e-4, base.shape), 0, None)
                    entry = ShotEntry(
                        video_title=f"{run.title}#{copy}",
                        shot_id=shot.shot_id,
                        scene_id=scene.scene_id,
                        features=noisy,
                    )
                    ordinals.setdefault(event.value, []).append(total)
                    total += 1
                    leaves.setdefault(event.value, []).append(entry)
    children = [
        build_node(name, 1, entries=entries, ordinals=np.array(ordinals[name]))
        for name, entries in leaves.items()
    ]
    flat = FlatIndex([child.leaf for child in children])
    return build_node("root", 0, children=children), flat


def test_sec62_indexing(benchmark, corpus_runs, results_dir):
    db = _corpus_database(corpus_runs)
    query_shot = corpus_runs[0][1].structure.shots[6]
    features = combine_features(query_shot.histogram, query_shot.texture)

    benchmark(db.search, features)

    rows = []
    for factor in (1, 4, 16):
        root, flat = _replicated_index(corpus_runs, factor)
        n_total = len(flat)

        start = time.perf_counter()
        hier = search_hierarchical(root, features, k=10)
        hier_time = time.perf_counter() - start
        start = time.perf_counter()
        scan = flat.search(features, k=10)
        flat_time = time.perf_counter() - start

        model_flat = FlatCost(total_shots=n_total)
        model_hier = HierarchicalCost(
            level_nodes=(len(root.children) * 4,),
            leaf_shots=hier.stats.ranked,
        )
        rows.append(
            [
                n_total,
                scan.stats.comparisons,
                hier.stats.comparisons,
                flat_time * 1e3,
                hier_time * 1e3,
                speedup(model_flat, model_hier),
            ]
        )
        assert hier.stats.comparisons < scan.stats.comparisons
        # Both retrieval paths agree on the best answer.
        assert hier.top.entry.shot_id == scan.top.entry.shot_id

    text = render_table(
        [
            "N_T (shots)",
            "flat cmps (Eq.24)",
            "hier cmps (Eq.25)",
            "flat ms",
            "hier ms",
            "model speedup",
        ],
        rows,
        title="Sec. 6.2 — cluster-based indexing vs flat scan",
    )

    # Quality side: the descent must not wreck retrieval accuracy.
    from repro.evaluation.retrieval_eval import evaluate_retrieval

    quality = evaluate_retrieval(db, k=5, max_queries=60)
    quality_rows = [
        [
            report.strategy,
            report.precision_at_k,
            report.self_hit_rate,
            report.mean_comparisons,
        ]
        for report in quality.values()
    ]
    quality_text = render_table(
        ["strategy", "precision@5 (same scene)", "self-hit rate", "mean cmps"],
        quality_rows,
        title="Retrieval quality (self-queries over the corpus database)",
    )
    save_result(results_dir, "sec62_indexing", text + "\n\n" + quality_text)
    assert (
        quality["hierarchical"].precision_at_k
        >= quality["flat"].precision_at_k - 0.2
    )

    # The advantage grows with database size (T_c << T_e at scale).
    ratios = [row[1] / row[2] for row in rows]
    assert ratios[-1] > ratios[0]
