"""Content-addressed artifact store for mined results.

A mined :class:`~repro.core.pipeline.ClassMinerResult` is the expensive
thing in the whole system — shot detection, cue extraction, audio
analysis and event mining over a full video.  This module serialises it
losslessly to one directory per cache key::

    <root>/<key[:2]>/<key>/
        meta.json     relational structure, cues, events, bookkeeping
        arrays.npz    frames, histograms, textures, MFCCs, signals

Numeric payloads live in the ``.npz`` (exact float64/uint8 round-trip);
everything relational — which shots form which groups, which groups
form which scenes, rule evidence, detections, each representative
audio clip's window — lives in ``meta.json``.  A shot's audio is its
MFCC matrix (``mfcc_*``, incompressible, so stored; the rest is
deflated): the clip's samples are not kept (format 1 stored them as
``clip_*`` members, which a format-2 reader ignores).  A catalog rebuild
reads ``meta.json`` plus the ``histograms`` and ``textures`` members
only (:meth:`ArtifactStore.load_columns`).
Objects are written to a temporary directory first and moved into place
atomically, so concurrent workers racing on the same key cannot leave a
half-written artifact behind.

Integrity: every save also writes ``checksums.json`` (sha256 of both
payload files, computed before the atomic rename) and every load
verifies it.  A mismatch (torn write, bit rot, an injected corruption
fault) or a missing manifest raises :class:`~repro.errors.IntegrityError`
after the entry is *quarantined* under ``<root>/.quarantine/``; ``has()``
then answers False, so the next ingest run re-mines the video.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
import zipfile
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, NamedTuple

import numpy as np

from repro.errors import IngestError, IntegrityError
from repro.ingest.jobs import ARTIFACT_FORMAT
from repro.obs.registry import get_registry
from repro.resilience.faults import corrupt_payload, fault_point
from repro.resilience.integrity import (
    QUARANTINE_DIR,
    verify_checksums,
    write_checksums,
)
from repro.types import EventKind

if TYPE_CHECKING:  # the codec imports the result types where it decodes them
    from repro.core.pipeline import ClassMinerResult
    from repro.vision.cues import VisualCues
    from repro.vision.regions import Region

#: Formats a reader decodes (every other one is rejected): 1 differs from
#: 2 only by the ``clip_*`` members, which nothing reads.
READABLE_FORMATS = (1, ARTIFACT_FORMAT)

_META_NAME = "meta.json"
_ARRAYS_NAME = "arrays.npz"


# ---------------------------------------------------------------------------
# Encoding: ClassMinerResult -> (meta dict, arrays dict).
# ---------------------------------------------------------------------------


def _region_to_data(region: Region) -> dict:
    return {
        "label": region.label,
        "area": region.area,
        "bbox": list(region.bbox),
        "centroid": list(region.centroid),
    }


def _cues_to_data(cues: VisualCues) -> dict:
    return {
        "special": cues.special.value,
        "face": {
            "faces": [_region_to_data(r) for r in cues.face.faces],
            "has_face": cues.face.has_face,
            "has_closeup": cues.face.has_closeup,
            "largest_fraction": cues.face.largest_fraction,
        },
        "skin": {
            "regions": [_region_to_data(r) for r in cues.skin.regions],
            "mask_fraction": cues.skin.mask_fraction,
            "largest_fraction": cues.skin.largest_fraction,
            "has_skin": cues.skin.has_skin,
            "has_closeup": cues.skin.has_closeup,
        },
        "blood": {
            "regions": [_region_to_data(r) for r in cues.blood.regions],
            "mask_fraction": cues.blood.mask_fraction,
            "largest_fraction": cues.blood.largest_fraction,
            "has_blood": cues.blood.has_blood,
        },
    }


def _cues_from_data(data: dict) -> VisualCues:
    from repro.vision.blood import BloodDetection
    from repro.vision.cues import VisualCues
    from repro.vision.face import FaceDetection
    from repro.vision.frames import SpecialFrameKind
    from repro.vision.regions import Region
    from repro.vision.skin import SkinDetection

    def regions(raw: list[dict]) -> tuple[Region, ...]:
        return tuple(
            Region(
                int(r["label"]), int(r["area"]),
                tuple(map(int, r["bbox"])), tuple(map(float, r["centroid"])),
            )
            for r in raw
        )

    face = data["face"]
    skin = data["skin"]
    blood = data["blood"]
    return VisualCues(
        special=SpecialFrameKind(data["special"]),
        face=FaceDetection(
            faces=regions(face["faces"]),
            has_face=bool(face["has_face"]),
            has_closeup=bool(face["has_closeup"]),
            largest_fraction=float(face["largest_fraction"]),
        ),
        skin=SkinDetection(
            regions=regions(skin["regions"]),
            mask_fraction=float(skin["mask_fraction"]),
            largest_fraction=float(skin["largest_fraction"]),
            has_skin=bool(skin["has_skin"]),
            has_closeup=bool(skin["has_closeup"]),
        ),
        blood=BloodDetection(
            regions=regions(blood["regions"]),
            mask_fraction=float(blood["mask_fraction"]),
            largest_fraction=float(blood["largest_fraction"]),
            has_blood=bool(blood["has_blood"]),
        ),
    )


def encode_result(result: ClassMinerResult) -> tuple[dict, dict[str, np.ndarray]]:
    """Flatten a mined result into JSON-safe metadata plus numeric arrays."""
    structure = result.structure
    shots = structure.shots
    arrays: dict[str, np.ndarray] = {
        "rep_frames": np.stack([s.representative_frame.pixels for s in shots]),
        "histograms": np.stack([s.histogram for s in shots]),
        "textures": np.stack([s.texture for s in shots]),
    }
    meta: dict = {
        "format": ARTIFACT_FORMAT,
        "title": structure.title,
        "degraded_stages": list(result.degraded_stages),
        "fps": shots[0].fps if shots else 0.0,
        "shots": [
            {
                "shot_id": s.shot_id,
                "start": s.start,
                "stop": s.stop,
                "rep_index": s.representative_frame.index,
            }
            for s in shots
        ],
        "groups": [
            {
                "group_id": g.group_id,
                "shot_ids": g.shot_ids,
                "kind": g.kind.value,
                "clusters": [[s.shot_id for s in cluster] for cluster in g.clusters],
                "representative_shot_ids": [s.shot_id for s in g.representative_shots],
            }
            for g in structure.groups
        ],
        "scenes": [
            {
                "scene_id": sc.scene_id,
                "group_ids": [g.group_id for g in sc.groups],
                "representative_group_id": sc.representative_group.group_id,
            }
            for sc in structure.scenes
        ],
        "clusters": [
            {
                "cluster_id": c.cluster_id,
                "scene_ids": c.scene_ids,
                "centroid_group_id": c.centroid.group_id,
            }
            for c in structure.clustered_scenes
        ],
    }

    detection = structure.shot_detection
    if detection is None:
        meta["shot_detection"] = None
    else:
        meta["shot_detection"] = {"boundaries": list(detection.boundaries)}
        arrays["shot_differences"] = np.asarray(detection.differences)
        arrays["shot_thresholds"] = np.asarray(detection.thresholds)

    scene_detection = structure.scene_detection
    if scene_detection is None:
        meta["scene_detection"] = None
    else:
        meta["scene_detection"] = {
            "eliminated": [
                [g.group_id for g in unit] for unit in scene_detection.eliminated
            ],
            "merge_threshold": scene_detection.merge_threshold,
        }
        arrays["neighbour_similarities"] = np.asarray(
            scene_detection.neighbour_similarities
        )

    clustering = structure.clustering
    meta["clustering"] = (
        None
        if clustering is None
        else {
            "validity_curve": {str(k): v for k, v in clustering.validity_curve.items()},
            "chosen_count": clustering.chosen_count,
        }
    )

    meta["cues"] = {str(sid): _cues_to_data(c) for sid, c in result.cues.items()}

    audio_meta: dict[str, dict] = {}
    for sid, shot_audio in result.audio.items():
        window = shot_audio.clip_window
        audio_meta[str(sid)] = {
            "has_speech": shot_audio.has_speech,
            "clip": (
                None
                if window is None
                else {
                    "start": window[0],
                    "stop": window[1],
                    "sample_rate": shot_audio.sample_rate,
                }
            ),
        }
        arrays[f"mfcc_{sid}"] = shot_audio.mfcc_vectors
    meta["audio"] = audio_meta

    events = result.events
    if events is None:
        meta["events"] = None
    else:
        meta["events"] = {
            "events": [
                {
                    "scene_index": e.scene_index,
                    "kind": e.kind.value,
                    "evidence": list(e.evidence),
                }
                for e in events.events
            ],
            "evidence": [
                {
                    "scene_id": ev.scene.scene_id,
                    "adjacent_changes": list(ev.adjacent_changes),
                    "same_speaker_pairs": sorted(
                        list(pair) for pair in ev.same_speaker_pairs
                    ),
                }
                for ev in events.evidence
            ],
        }
    return meta, arrays


# ---------------------------------------------------------------------------
# Decoding: (meta dict, arrays) -> ClassMinerResult.
# ---------------------------------------------------------------------------


def decode_result(meta: dict, arrays: dict[str, np.ndarray]) -> ClassMinerResult:
    """Rebuild a :class:`ClassMinerResult` from its serialised form."""
    from repro.audio.speaker import ShotAudio
    from repro.audio.waveform import DEFAULT_SAMPLE_RATE
    from repro.core.clustering import ClusteredScene, SceneClusteringResult
    from repro.core.features import Shot
    from repro.core.groups import Group, GroupKind
    from repro.core.pipeline import ClassMinerResult
    from repro.core.scenes import Scene, SceneDetectionResult
    from repro.core.shots import ShotDetectionResult
    from repro.core.structure import ContentStructure
    from repro.events.miner import EventMiningResult
    from repro.events.model import SceneEvent
    from repro.events.rules import SceneEvidence
    from repro.video.frame import Frame

    fps = float(meta["fps"])
    shots: list[Shot] = []
    for i, raw in enumerate(meta["shots"]):
        rep_index = int(raw["rep_index"])
        frame = Frame(
            pixels=arrays["rep_frames"][i],
            index=rep_index,
            timestamp=rep_index / fps,
        )
        shots.append(
            Shot(
                shot_id=int(raw["shot_id"]),
                start=int(raw["start"]),
                stop=int(raw["stop"]),
                fps=fps,
                representative_frame=frame,
                histogram=arrays["histograms"][i],
                texture=arrays["textures"][i],
            )
        )
    shot_by_id = {s.shot_id: s for s in shots}

    groups: list[Group] = []
    for raw in meta["groups"]:
        groups.append(
            Group(
                group_id=int(raw["group_id"]),
                shots=[shot_by_id[i] for i in raw["shot_ids"]],
                kind=GroupKind(raw["kind"]),
                clusters=[
                    [shot_by_id[i] for i in cluster] for cluster in raw["clusters"]
                ],
                representative_shots=[
                    shot_by_id[i] for i in raw["representative_shot_ids"]
                ],
            )
        )
    group_by_id = {g.group_id: g for g in groups}

    scenes: list[Scene] = []
    for raw in meta["scenes"]:
        scenes.append(
            Scene(
                scene_id=int(raw["scene_id"]),
                groups=[group_by_id[i] for i in raw["group_ids"]],
                representative_group=group_by_id[int(raw["representative_group_id"])],
            )
        )
    scene_by_id = {s.scene_id: s for s in scenes}

    clustered = [
        ClusteredScene(
            cluster_id=int(raw["cluster_id"]),
            scenes=[scene_by_id[i] for i in raw["scene_ids"]],
            centroid=group_by_id[int(raw["centroid_group_id"])],
        )
        for raw in meta["clusters"]
    ]

    detection = None
    if meta.get("shot_detection") is not None:
        detection = ShotDetectionResult(
            shots=shots,
            differences=arrays["shot_differences"],
            thresholds=arrays["shot_thresholds"],
            boundaries=[int(b) for b in meta["shot_detection"]["boundaries"]],
        )

    scene_detection = None
    if meta.get("scene_detection") is not None:
        raw = meta["scene_detection"]
        scene_detection = SceneDetectionResult(
            scenes=scenes,
            eliminated=[
                [group_by_id[i] for i in unit] for unit in raw["eliminated"]
            ],
            merge_threshold=float(raw["merge_threshold"]),
            neighbour_similarities=arrays["neighbour_similarities"],
        )

    clustering = None
    if meta.get("clustering") is not None:
        raw = meta["clustering"]
        clustering = SceneClusteringResult(
            clusters=clustered,
            validity_curve={int(k): float(v) for k, v in raw["validity_curve"].items()},
            chosen_count=int(raw["chosen_count"]),
        )

    structure = ContentStructure(
        title=str(meta["title"]),
        shots=shots,
        groups=groups,
        scenes=scenes,
        clustered_scenes=clustered,
        shot_detection=detection,
        scene_detection=scene_detection,
        clustering=clustering,
    )

    cues = {int(sid): _cues_from_data(raw) for sid, raw in meta["cues"].items()}

    audio: dict[int, ShotAudio] = {}
    for sid_text, raw in meta["audio"].items():
        sid = int(sid_text)
        clip = raw["clip"] or {}
        audio[sid] = ShotAudio(
            shot_id=sid,
            clip_window=(float(clip["start"]), float(clip["stop"])) if clip else None,
            has_speech=bool(raw["has_speech"]),
            mfcc_vectors=arrays[f"mfcc_{sid}"],
            sample_rate=int(clip.get("sample_rate", DEFAULT_SAMPLE_RATE)),
        )

    events = None
    if meta.get("events") is not None:
        raw_events = meta["events"]
        event_list = [
            SceneEvent(
                scene_index=int(e["scene_index"]),
                kind=EventKind(e["kind"]),
                evidence=tuple(e["evidence"]),
            )
            for e in raw_events["events"]
        ]
        evidence_list = []
        for ev in raw_events["evidence"]:
            scene = scene_by_id[int(ev["scene_id"])]
            evidence_list.append(
                SceneEvidence(
                    scene=scene,
                    cues={sid: cues[sid] for sid in scene.shot_ids},
                    audio={sid: audio[sid] for sid in scene.shot_ids if sid in audio},
                    adjacent_changes=[
                        None if c is None else bool(c)
                        for c in ev["adjacent_changes"]
                    ],
                    same_speaker_pairs={
                        (int(i), int(j)) for i, j in ev["same_speaker_pairs"]
                    },
                )
            )
        events = EventMiningResult(events=event_list, evidence=evidence_list)

    return ClassMinerResult(
        structure=structure,
        cues=cues,
        audio=audio,
        events=events,
        degraded_stages=tuple(meta.get("degraded_stages", ())),
    )


class CatalogColumns(NamedTuple):
    """The catalog's share of one mined video: ``VideoDatabase.register_shots``'s arguments.

    ``database.register_shots(*columns)`` registers the video exactly as
    ``database.register(result)`` does.
    """

    title: str
    shot_ids: list[int]
    features: np.ndarray
    scenes: list[tuple[int, EventKind, list[int]]]
    degraded_stages: tuple[str, ...]


def catalog_columns(meta: dict, arrays: Mapping[str, np.ndarray]) -> CatalogColumns:
    """Read the catalog's share of a serialised result: two arrays and the scene table."""
    group_shots = {
        int(raw["group_id"]): [int(i) for i in raw["shot_ids"]] for raw in meta["groups"]
    }
    events = {
        int(raw["scene_index"]): EventKind(raw["kind"])
        for raw in (meta.get("events") or {"events": ()})["events"]
    }
    return CatalogColumns(
        title=str(meta["title"]),
        shot_ids=[int(raw["shot_id"]) for raw in meta["shots"]],
        features=np.concatenate([arrays["histograms"], arrays["textures"]], axis=1),
        scenes=[
            (
                int(raw["scene_id"]),
                events.get(int(raw["scene_id"]), EventKind.UNKNOWN),
                [shot for group in raw["group_ids"] for shot in group_shots[int(group)]],
            )
            for raw in meta["scenes"]
        ],
        degraded_stages=tuple(meta.get("degraded_stages", ())),
    )


def _write_npz(path: Path, arrays: dict[str, np.ndarray]) -> None:
    """``np.savez`` with the compression chosen member by member.

    MFCC matrices deflate to 0.96 of their size for most of the write
    time, so they are stored; the rest is deflated.
    """
    with zipfile.ZipFile(path, "w") as archive:
        for name, value in arrays.items():
            member = zipfile.ZipInfo(f"{name}.npy")
            if not name.startswith("mfcc_"):
                member.compress_type = zipfile.ZIP_DEFLATED
            with archive.open(member, "w", force_zip64=True) as handle:
                np.lib.format.write_array(handle, np.asanyarray(value), allow_pickle=False)


# ---------------------------------------------------------------------------
# The store itself.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArtifactInfo:
    """Summary of one stored artifact (for ``classminer cache list``)."""

    key: str
    title: str
    path: Path
    size_bytes: int
    modified: float


class ArtifactStore:
    """Content-addressed directory of serialised mining results."""

    def __init__(self, root: str | Path) -> None:
        self._root = Path(root)

    @property
    def root(self) -> Path:
        """Root directory of the store."""
        return self._root

    def path_for(self, key: str) -> Path:
        """Directory an artifact with ``key`` lives in (may not exist)."""
        return self._root / key[:2] / key

    def has(self, key: str) -> bool:
        """True when a complete artifact exists for ``key``."""
        path = self.path_for(key)
        return (path / _META_NAME).exists() and (path / _ARRAYS_NAME).exists()

    def save(
        self,
        key: str,
        result: ClassMinerResult,
        extra_meta: dict | None = None,
    ) -> Path:
        """Serialise ``result`` under ``key``; atomic against races.

        ``extra_meta`` entries (job seed, config, timings) are merged
        into ``meta.json`` for provenance.  Returns the artifact path.
        """
        fault_point("ingest.artifact.write")
        meta, arrays = encode_result(result)
        meta["key"] = key
        if extra_meta:
            meta.update(extra_meta)
        final = self.path_for(key)
        final.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(
            tempfile.mkdtemp(prefix=f".tmp-{key[:8]}-", dir=self._root)
        )
        try:
            meta_bytes = json.dumps(meta).encode()
            (tmp / _META_NAME).write_bytes(meta_bytes)
            _write_npz(tmp / _ARRAYS_NAME, arrays)
            # Checksums cover the intended content; a corruption fault
            # (or real disk corruption) lands after they are computed,
            # which is exactly what read-time verification must catch.
            write_checksums(tmp, (_META_NAME, _ARRAYS_NAME))
            corrupted = corrupt_payload("ingest.artifact.write", meta_bytes)
            if corrupted is not meta_bytes:
                (tmp / _META_NAME).write_bytes(corrupted)
            try:
                os.replace(tmp, final)
            except OSError:
                # The target already exists (an earlier run, or a
                # concurrent worker).  Replace it — a forced re-mine
                # must win — but if the swap still fails while a
                # complete artifact sits there, keep that one: same
                # key means same inputs, so the content is equivalent.
                shutil.rmtree(final, ignore_errors=True)
                try:
                    os.replace(tmp, final)
                except OSError:
                    if not self.has(key):
                        raise
                    shutil.rmtree(tmp, ignore_errors=True)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return final

    def load(self, key: str) -> ClassMinerResult:
        """Deserialise the artifact stored under ``key``.

        The checksum manifest is verified first; a failing artifact is
        quarantined and :class:`IntegrityError` raised.  Other missing
        or corrupt artifacts raise :class:`IngestError`.  A format-1
        artifact's ``clip_*`` members are left unread.
        """
        return self._read(
            key,
            lambda meta, data: decode_result(
                meta, {name: data[name] for name in data.files if not name.startswith("clip_")}
            ),
        )

    def load_columns(self, key: str) -> CatalogColumns:
        """The catalog's share of ``key``'s artifact (the rebuild path).

        Verified and quarantined like :meth:`load` — the checksums cover
        both files whole — but only two ``.npz`` members are decoded.
        """
        return self._read(key, catalog_columns)

    def _read(self, key: str, decode: Callable[[dict, Mapping[str, np.ndarray]], Any]) -> Any:
        """Verify ``key``'s artifact, then ``decode(meta, open npz)``."""
        fault_point("ingest.artifact.read")
        path = self.path_for(key)
        if not self.has(key):
            raise IngestError(f"no artifact for key {key[:12]}… in {self._root}")
        try:
            verify_checksums(path)
        except IntegrityError as exc:
            self.quarantine(key, reason=str(exc))
            raise
        try:
            meta = json.loads((path / _META_NAME).read_text())
            if int(meta.get("format", -1)) not in READABLE_FORMATS:
                raise IngestError(
                    f"artifact {key[:12]}… has format {meta.get('format')!r}, "
                    f"expected one of {READABLE_FORMATS}"
                )
            with np.load(path / _ARRAYS_NAME, allow_pickle=False) as data:
                return decode(meta, data)
        except IngestError:
            raise
        except Exception as exc:  # corrupt json/zip/missing keys
            raise IngestError(f"corrupt artifact {key[:12]}…: {exc}") from exc

    def verify(self, key: str) -> bool:
        """Verify ``key``'s checksum manifest without decoding.

        Returns ``True`` when verified; raises :class:`IntegrityError` on
        corruption or a missing manifest (*not* quarantining the entry:
        :meth:`has_valid` does) and :class:`IngestError` when none exists.
        """
        if not self.has(key):
            raise IngestError(f"no artifact for key {key[:12]}… in {self._root}")
        verify_checksums(self.path_for(key))
        return True

    def has_valid(self, key: str) -> bool:
        """True when a verified artifact exists for ``key``.

        A present-but-corrupt artifact is quarantined as a side effect,
        so callers gating cache hits on this answer will re-mine it.
        """
        if not self.has(key):
            return False
        try:
            verify_checksums(self.path_for(key))
        except IntegrityError as exc:
            self.quarantine(key, reason=str(exc))
            return False
        return True

    def quarantine(self, key: str, reason: str = "") -> Path:
        """Move ``key``'s directory under ``<root>/.quarantine/``.

        The quarantined copy keeps its payload for post-mortems plus a
        ``quarantined.json`` note recording when and why.  After this,
        :meth:`has` answers False so the next ingest run re-mines the
        video.  Returns the quarantine path.
        """
        source = self.path_for(key)
        target = self._root / QUARANTINE_DIR / key
        if source.exists():
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.rmtree(target, ignore_errors=True)
            os.replace(source, target)
            (target / "quarantined.json").write_text(
                json.dumps({"key": key, "time": time.time(), "reason": reason})
            )
            get_registry().counter(
                "ingest_artifacts_quarantined_total",
                "Corrupt artifacts moved to quarantine.",
            ).inc()
        return target

    def quarantined(self) -> list[str]:
        """Keys currently sitting in quarantine (sorted)."""
        root = self._root / QUARANTINE_DIR
        if not root.exists():
            return []
        return sorted(p.name for p in root.iterdir() if p.is_dir())

    def read_meta(self, key: str) -> dict:
        """Load just the JSON metadata of an artifact (cheap)."""
        path = self.path_for(key) / _META_NAME
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            # ValueError covers both garbled JSON and bytes that are not
            # valid UTF-8 (a corrupted file is arbitrary bytes).
            raise IngestError(f"cannot read artifact meta {key[:12]}…: {exc}") from exc

    def list(self) -> list[ArtifactInfo]:
        """Enumerate stored artifacts, newest first."""
        infos: list[ArtifactInfo] = []
        if not self._root.exists():
            return infos
        for meta_path in sorted(self._root.glob(f"*/*/{_META_NAME}")):
            directory = meta_path.parent
            key = directory.name
            if directory != self.path_for(key) or not self.has(key):
                continue  # incomplete, or the quarantined copy of a key since re-mined
            try:
                title = str(json.loads(meta_path.read_text()).get("title", "?"))
            except (OSError, ValueError):  # unreadable or corrupt bytes
                title = "?"
            size = sum(f.stat().st_size for f in directory.iterdir() if f.is_file())
            infos.append(
                ArtifactInfo(
                    key=key,
                    title=title,
                    path=directory,
                    size_bytes=size,
                    modified=meta_path.stat().st_mtime,
                )
            )
        infos.sort(key=lambda info: info.modified, reverse=True)
        return infos

    def clear(self) -> int:
        """Delete every artifact; returns how many were removed."""
        count = len(self.list())
        if self._root.exists():
            shutil.rmtree(self._root)
        self._root.mkdir(parents=True, exist_ok=True)
        return count
