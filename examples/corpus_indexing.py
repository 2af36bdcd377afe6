#!/usr/bin/env python3
"""Hierarchical database indexing and retrieval over the corpus.

Mines two corpus videos, registers them in the hierarchical video
database (Fig. 1 / Fig. 2), and compares cluster-based retrieval
against the flat scan of Eq. (24) — the Sec. 6.2 experiment in
miniature.

Usage::

    python examples/corpus_indexing.py
"""

from __future__ import annotations

from repro import ClassMiner, VideoDatabase
from repro.database import combine_features
from repro.video.synthesis import load_video


def main() -> None:
    miner = ClassMiner()
    db = VideoDatabase()

    for title in ("face_repair", "skin_examination"):
        print(f"Mining and registering '{title}'...")
        video = load_video(title)
        result = miner.mine(video.stream)
        record = db.register(result)
        print(
            f"  {record.shot_count} shots in {record.scene_count} scenes; "
            f"events: { {v for v in record.events.values()} }"
        )

    print(f"\nDatabase: {db.shot_count} shots indexed")
    root = db.build_index()
    print("Index tree:")
    _print_tree(root)

    # Query with an indexed surgical shot (self-retrieval).  Surgical
    # imagery only exists in face_repair here, so the greedy descent is
    # unambiguous; visually shared settings (exam rooms appear in both
    # videos) can legitimately route to a sibling subject area instead.
    video = load_video("face_repair")
    result = miner.mine(video.stream)
    clinical = next(
        scene
        for scene in result.structure.scenes
        if result.event_of_scene(scene.scene_id).kind.value == "clinical_operation"
    )
    query_shot = clinical.shots[1]
    features = combine_features(query_shot.histogram, query_shot.texture)

    print(f"\nQuery: shot {query_shot.shot_id} of face_repair (surgical close-up)")
    hierarchical = db.search(features, k=5)
    flat = db.search_flat(features, k=5)

    print(
        f"  hierarchical: {hierarchical.stats.comparisons} comparisons, "
        f"{hierarchical.stats.elapsed_seconds * 1e3:.2f} ms, "
        f"path: {' -> '.join(hierarchical.stats.visited_path)}"
    )
    print(
        f"  flat scan:    {flat.stats.comparisons} comparisons, "
        f"{flat.stats.elapsed_seconds * 1e3:.2f} ms"
    )
    print("\n  Top hits (hierarchical):")
    for hit in hierarchical.hits:
        print(
            f"    {hit.entry.video_title} shot {hit.entry.shot_id:3d} "
            f"(scene {hit.entry.scene_id})  score={hit.score:.3f}"
        )
    assert any(
        hit.entry.key == ("face_repair", query_shot.shot_id)
        for hit in hierarchical.hits
    ), "the query shot should rank among its own top hits"


def _print_tree(node, indent: int = 1) -> None:
    pad = "  " * indent
    if node.is_leaf:
        print(f"{pad}{node.name}  [{len(node.leaf)} shots, {len(node.leaf.buckets)} buckets]")
        return
    print(f"{pad}{node.name}")
    for child in node.children:
        _print_tree(child, indent + 1)


if __name__ == "__main__":
    main()
