"""Shard views: which leaves of the one published catalog each worker serves.

A shard is not a copy of the corpus.  Every worker opens the published
catalog itself and serves a fixed set of its scene-concept leaves (the
paper's per-leaf hash tables, Sec. 5) plus a contiguous share of its
scene rows; the coordinator opens the same catalog for its routing tree
and the registration records.  Which worker owns a leaf is
:func:`pack_leaves` of the catalog's ``leaves`` rows — a pure function,
so every process derives the same map and no file records it.

:func:`build_shards` survives as a layout for tools that start workers
by directory: one :func:`~repro.storage.sqlcatalog.save_database` into
``out_dir``, a ``manifest.json`` holding ``{version, num_shards}``, and
empty ``shard-NNNN/`` directories whose names only say which shard a
worker started on one serves (:func:`worker_view`).
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.database.catalog import VideoDatabase
from repro.errors import StorageError
from repro.storage.schema import catalog_path
from repro.storage.sqlcatalog import SQLCatalog, save_database

#: Manifest schema version (1 described a cut: titles, routing, sidecars).
MANIFEST_VERSION = 2
#: Manifest file name inside the shard root.
MANIFEST_NAME = "manifest.json"


def pack_leaves(counts: Sequence[int], num_shards: int) -> list[int]:
    """The owning shard of each leaf, given the leaves' row counts in
    catalog position order.

    A greedy pack: the largest leaf first (ties by position) goes to the
    shard holding the fewest rows so far (ties by shard id).  A leaf is
    never split, so four 3,000-row leaves over three shards pack 6,000 /
    3,000 / 3,000.  More shards than leaves is refused.
    """
    if num_shards < 1:
        raise StorageError("need at least one shard")
    if num_shards > len(counts):
        raise StorageError(
            f"{num_shards} shards but the catalog has {len(counts)} leaves; "
            "use fewer shards"
        )
    loads = [0] * num_shards
    owners = [0] * len(counts)
    for position in sorted(range(len(counts)), key=lambda p: (-counts[p], p)):
        owner = min(range(num_shards), key=lambda shard: (loads[shard], shard))
        owners[position] = owner
        loads[owner] += counts[position]
    return owners


def scene_share(scenes: int, shard_id: int, num_shards: int) -> range:
    """The contiguous scene rows ``shard_id`` scores, of ``scenes``."""
    return range(shard_id * scenes // num_shards, (shard_id + 1) * scenes // num_shards)


@dataclass(frozen=True)
class ShardSpec:
    """A sharded deployment: how many workers serve which catalog."""

    num_shards: int
    catalog: Path

    @staticmethod
    def shard_dir(root: str | Path, shard_id: int) -> Path:
        """The ``shard-NNNN`` directory naming one worker under ``root``."""
        return Path(root) / f"shard-{shard_id:04d}"

    def save(self) -> Path:
        """Atomically write ``manifest.json`` into the catalog directory."""
        target = self.catalog / MANIFEST_NAME
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{MANIFEST_NAME}.", suffix=".tmp", dir=self.catalog
        )
        tmp = Path(tmp_name)
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps({"version": MANIFEST_VERSION, "num_shards": self.num_shards}))
            os.replace(tmp, target)
        finally:
            tmp.unlink(missing_ok=True)
        return target

    def describe(self) -> str:
        """The leaf map (``classminer shard inspect``)."""
        with SQLCatalog(self.catalog) as catalog:
            infos = catalog.leaf_infos()
            scenes = catalog.scene_count()
        owners = pack_leaves([info.entry_count for info in infos], self.num_shards)
        lines = [
            f"{self.num_shards} shards over {self.catalog}: "
            f"{sum(info.entry_count for info in infos)} shots in {len(infos)} leaves, "
            f"{scenes} scenes"
        ]
        for shard_id in range(self.num_shards):
            mine = [info for info, owner in zip(infos, owners) if owner == shard_id]
            share = scene_share(scenes, shard_id, self.num_shards)
            lines.append(
                f"  shard {shard_id}: {sum(info.entry_count for info in mine)} shots, "
                f"scenes [{share.start}, {share.stop}) — "
                + ", ".join(info.name for info in mine)
            )
        return "\n".join(lines)


def load_manifest(root: str | Path) -> ShardSpec:
    """Read the manifest :func:`build_shards` wrote into ``root``."""
    path = Path(root) / MANIFEST_NAME
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise StorageError(f"cannot load shard manifest {path}: {exc}") from exc
    try:
        version, num_shards = int(payload["version"]), int(payload["num_shards"])
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(f"malformed shard manifest: {exc}") from exc
    if version != MANIFEST_VERSION:
        raise StorageError(
            f"shard manifest {path} is version {version}, not {MANIFEST_VERSION} "
            "(a cut into per-shard catalogs); publish the catalog there again"
        )
    return ShardSpec(num_shards, Path(root))


def worker_view(path: str | Path, shard_id: int | None, num_shards: int | None) -> tuple[Path, int, int]:
    """``(catalog, shard id, shard count)`` of a worker started on ``path``:
    a catalog directory (shard 0 of 1 unless told), or a ``shard-NNNN``
    directory :func:`build_shards` made, whose name gives the id and whose
    parent's manifest the count."""
    path = Path(path)
    match = re.fullmatch(r"shard-(\d+)", path.name)
    if match and not catalog_path(path).exists():
        spec = load_manifest(path.parent)
        path, named, counted = path.parent, int(match.group(1)), spec.num_shards
    else:
        named, counted = 0, 1
    shard_id = named if shard_id is None else shard_id
    num_shards = counted if num_shards is None else num_shards
    if not 0 <= shard_id < num_shards:
        raise StorageError(f"no shard {shard_id} among {num_shards}")
    return path, shard_id, num_shards


def build_shards(
    database: VideoDatabase, out_dir: str | Path, num_shards: int
) -> ShardSpec:
    """Publish ``database`` into ``out_dir`` for ``num_shards`` workers.

    One save, the manifest and a ``shard-NNNN/`` directory per worker;
    returns the :class:`ShardSpec`.  Raises
    :class:`~repro.errors.StorageError` before writing anything when the
    corpus has fewer leaves than shards.
    """
    pack_leaves([len(leaf) for leaf in database.leaves.values()], num_shards)
    out_dir = Path(out_dir)
    save_database(database, out_dir)
    spec = ShardSpec(num_shards, out_dir)
    for shard_id in range(num_shards):
        spec.shard_dir(out_dir, shard_id).mkdir(exist_ok=True)
    spec.save()
    return spec
