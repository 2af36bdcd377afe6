"""Shard manifests: partition a catalog into shared-nothing shard dirs.

Partitioning is **hash-by-title**: a video's every shot and scene lands
on one shard (``sha256(title) % num_shards``), so per-shard databases
stay self-consistent and within-shard orderings are order-preserving
subsets of the unsharded catalog's orderings.  That subset property is
what lets the coordinator's merge reproduce single-process tie-breaks
bit for bit (see ``docs/SHARDING.md``).

The ``ShardSpec`` manifest written next to the shard directories also
replicates the *routing metadata of the full corpus*: every leaf's
k-centres and discriminating dimensions, read off the corpus's leaves
(:func:`~repro.database.index.leaf_routing` ran once per leaf, when the
leaf was sealed).  A shard is cut with
:meth:`~repro.database.catalog.VideoDatabase.clone_subset`, whose
leaves keep that routing, so a shard's index tree descends and scores
in the same sub-spaces as the unsharded tree even though its local
population differs; the coordinator builds the same tree from the
manifest and runs the descent itself.

Each shard directory additionally carries ``global_ords.npy``: the
unsharded flat ordinal of every local flat position, letting workers
report candidates under their *global* identity for exact flat-scan
tie-breaking.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.database.access import AccessController
from repro.database.catalog import VideoDatabase
from repro.database.hierarchy import (
    ConceptNode,
    build_medical_hierarchy,
    ensure_subject_area,
)
from repro.database.index import IndexNode, LeafHashIndex, build_index_tree
from repro.errors import StorageError
from repro.net.protocol import pack_array, unpack_array
from repro.storage.sqlcatalog import save_database

#: Manifest schema version.
MANIFEST_VERSION = 1
#: Manifest file name inside the shard root.
MANIFEST_NAME = "manifest.json"
#: Per-shard sidecar mapping local flat ordinals to global ones.
GLOBAL_ORDS_NAME = "global_ords.npy"


def shard_of(title: str, num_shards: int) -> int:
    """Deterministic shard id of a video title (stable across processes)."""
    import hashlib  # here, not at module level: a shard worker hashes nothing
    digest = hashlib.sha256(title.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % num_shards


@dataclass(frozen=True)
class ShardLeaf:
    """Full-corpus routing metadata of one index leaf."""

    name: str
    position: int
    centers: np.ndarray = field(repr=False)
    dims: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class ShardInfo:
    """One shard's slice of the corpus."""

    shard_id: int
    directory: str
    titles: tuple[str, ...]
    entry_count: int
    video_count: int


@dataclass(frozen=True)
class ShardSpec:
    """The manifest describing a sharded corpus."""

    num_shards: int
    partitioning: str
    entry_count: int
    scene_count: int
    video_count: int
    subject_areas: tuple[str, ...]
    leaves: tuple[ShardLeaf, ...]
    shards: tuple[ShardInfo, ...]
    version: int = MANIFEST_VERSION

    def shard_dir(self, root: str | Path, shard_id: int) -> Path:
        """Absolute directory of one shard."""
        return Path(root) / self.shards[shard_id].directory

    def to_json(self) -> dict:
        """Plain-JSON form of the manifest."""
        return {
            "version": self.version,
            "partitioning": self.partitioning,
            "num_shards": self.num_shards,
            "entry_count": self.entry_count,
            "scene_count": self.scene_count,
            "video_count": self.video_count,
            "subject_areas": list(self.subject_areas),
            "leaves": [
                {
                    "name": leaf.name,
                    "position": leaf.position,
                    "centers": pack_array(leaf.centers),
                    "dims": [int(d) for d in leaf.dims],
                }
                for leaf in self.leaves
            ],
            "shards": [
                {
                    "shard_id": info.shard_id,
                    "directory": info.directory,
                    "titles": list(info.titles),
                    "entry_count": info.entry_count,
                    "video_count": info.video_count,
                }
                for info in self.shards
            ],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "ShardSpec":
        """Rebuild a manifest parsed from JSON."""
        try:
            return cls(
                version=int(payload["version"]),
                partitioning=str(payload["partitioning"]),
                num_shards=int(payload["num_shards"]),
                entry_count=int(payload["entry_count"]),
                scene_count=int(payload["scene_count"]),
                video_count=int(payload["video_count"]),
                subject_areas=tuple(payload["subject_areas"]),
                leaves=tuple(
                    ShardLeaf(
                        name=str(leaf["name"]),
                        position=int(leaf["position"]),
                        centers=unpack_array(leaf["centers"]),
                        dims=np.asarray(leaf["dims"], dtype=np.int64),
                    )
                    for leaf in payload["leaves"]
                ),
                shards=tuple(
                    ShardInfo(
                        shard_id=int(info["shard_id"]),
                        directory=str(info["directory"]),
                        titles=tuple(info["titles"]),
                        entry_count=int(info["entry_count"]),
                        video_count=int(info["video_count"]),
                    )
                    for info in payload["shards"]
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StorageError(f"malformed shard manifest: {exc}") from exc

    def save(self, root: str | Path) -> Path:
        """Atomically write ``manifest.json`` into the shard root."""
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        target = root / MANIFEST_NAME
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{MANIFEST_NAME}.", suffix=".tmp", dir=root
        )
        tmp = Path(tmp_name)
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(self.to_json()))
            os.replace(tmp, target)
        finally:
            tmp.unlink(missing_ok=True)
        return target

    def describe(self) -> str:
        """Human-readable manifest summary (``classminer shard inspect``)."""
        lines = [
            f"shard manifest v{self.version}: {self.num_shards} shards, "
            f"{self.partitioning} partitioning",
            f"  corpus: {self.video_count} videos, {self.entry_count} shots, "
            f"{self.scene_count} scenes, {len(self.leaves)} leaves",
        ]
        for info in self.shards:
            lines.append(
                f"  shard {info.shard_id}: {info.directory} — "
                f"{info.video_count} videos, {info.entry_count} shots"
            )
        return "\n".join(lines)


def load_manifest(root: str | Path) -> ShardSpec:
    """Read the manifest of a shard root directory."""
    path = Path(root) / MANIFEST_NAME
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise StorageError(f"cannot load shard manifest {path}: {exc}") from exc
    return ShardSpec.from_json(payload)


def build_shards(
    database: VideoDatabase, out_dir: str | Path, num_shards: int
) -> ShardSpec:
    """Partition ``database`` into ``num_shards`` shard directories.

    Writes ``<out_dir>/shard-NNNN/`` SQL catalogs (routing metadata
    pinned to the full corpus), the ``global_ords.npy`` sidecars, and
    the manifest; returns the :class:`ShardSpec`.  Raises
    :class:`~repro.errors.StorageError` when a shard would be empty —
    use fewer shards for tiny corpora.
    """
    if num_shards < 1:
        raise StorageError("need at least one shard")
    out_dir = Path(out_dir)
    titles = list(database.videos)
    if not titles:
        raise StorageError("cannot shard an empty database")

    assignment: dict[int, list[str]] = {sid: [] for sid in range(num_shards)}
    for title in titles:
        assignment[shard_of(title, num_shards)].append(title)
    empty = [sid for sid, members in assignment.items() if not members]
    if empty:
        raise StorageError(
            f"shards {empty} would be empty with {len(titles)} videos; "
            "use fewer shards"
        )

    leaves = tuple(
        ShardLeaf(name=name, position=position, centers=leaf.centers, dims=leaf.dims)
        for position, (name, leaf) in enumerate(database.leaves.items())
    )
    education = database.hierarchy.find("medical_education")
    areas = (
        tuple(child.name for child in education.children) if education else ()
    )

    infos = []
    for sid in range(num_shards):
        members = assignment[sid]
        directory = f"shard-{sid:04d}"
        shard_dir = out_dir / directory
        shard, global_ords = database.clone_subset(members)
        save_database(shard, shard_dir)
        np.save(shard_dir / GLOBAL_ORDS_NAME, global_ords)
        infos.append(
            ShardInfo(
                shard_id=sid,
                directory=directory,
                titles=tuple(sorted(members)),
                entry_count=int(global_ords.shape[0]),
                video_count=len(members),
            )
        )

    spec = ShardSpec(
        num_shards=num_shards,
        partitioning="hash_title",
        entry_count=database.shot_count,
        scene_count=len(database.scene_index),
        video_count=len(titles),
        subject_areas=areas,
        leaves=leaves,
        shards=tuple(infos),
    )
    spec.save(out_dir)
    return spec


def build_routing_tree(
    spec: ShardSpec,
) -> tuple[ConceptNode, IndexNode, AccessController]:
    """Rebuild (hierarchy, index tree, controller) from a manifest.

    The same walk (:func:`~repro.database.index.build_index_tree`) every
    database builds its tree with, over leaves that carry the manifest's
    full-corpus centres/dims and no rows — the coordinator only
    descends, it never probes locally.  The controller over the
    same hierarchy resolves the same permitted-leaf scopes as the
    unsharded server, so cache keys and access decisions match exactly.
    """
    hierarchy = build_medical_hierarchy()
    for area in spec.subject_areas:
        ensure_subject_area(hierarchy, area)
    controller = AccessController(hierarchy)
    root = build_index_tree(
        hierarchy,
        {leaf.name: LeafHashIndex(centers=leaf.centers, dims=leaf.dims) for leaf in spec.leaves},
    )
    if root is None:
        raise StorageError("shard manifest describes no populated leaves")
    return hierarchy, root, controller
