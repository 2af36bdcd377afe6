"""The catalog rebuild reads an artifact's catalog columns only — and files the same catalog.

``ArtifactStore.load_columns`` decodes ``meta.json`` plus two ``.npz``
members; ``VideoDatabase.register_shots`` is the filing rule
``register`` itself uses.  Held here to the full path
(``register_bulk(store.load(key) ...)``) by the stored bytes: every
catalog table row and every feature-block digest.  Also: the writer's
mixed zip (MFCCs stored, the rest deflated, no clip samples) and what it
costs nobody — old all-deflated artifacts load, a store still holding a
format-1 artifact re-mines once and files the title once, a corrupt
entry is still quarantined and skipped.
"""

from __future__ import annotations

import json
import zipfile

import numpy as np
import pytest

from repro.database.catalog import VideoDatabase
from repro.errors import IngestError, IntegrityError
from repro.ingest.artifacts import ArtifactStore, encode_result
from repro.ingest.jobs import ARTIFACT_FORMAT, IngestJob
from repro.ingest.runner import publish_catalog, rebuild_database, store_for
from repro.resilience.integrity import write_checksums
from repro.storage import save_database
from tests.helpers import results_equal
from tests.storage.test_lazy_equivalence import stored_state

DEMO_KEY = IngestJob.for_title("demo").key
OTHER_KEY = "0badc0de" * 8


@pytest.fixture(scope="module")
def orphaned_result(demo_stream):
    """A mine whose smaller scenes are eliminated: six of sixteen shots end up under ``unknown``."""
    from repro.core import ClassMiner
    from repro.core.structure import MiningConfig
    from repro.video.stream import VideoStream

    stream = VideoStream(frames=demo_stream.frames, fps=demo_stream.fps, title="orphaned",
                         audio=demo_stream.audio)
    result = ClassMiner(config=MiningConfig(min_scene_shots=5)).mine(stream)
    kept = {shot_id for scene in result.structure.scenes for shot_id in scene.shot_ids}
    assert 0 < len(kept) < result.structure.shot_count  # both branches of the rule
    return result


@pytest.fixture()
def store(tmp_path, demo_result, orphaned_result) -> ArtifactStore:
    store = store_for(tmp_path / "db")
    store.save(DEMO_KEY, demo_result)
    store.save(OTHER_KEY, orphaned_result)
    return store


def test_columns_file_the_same_catalog_as_full_results(store, tmp_path):
    keys = [DEMO_KEY, OTHER_KEY]
    full = VideoDatabase()
    full.register_bulk(store.load(key) for key in keys)
    save_database(full, tmp_path / "full")

    columns = VideoDatabase()
    for key in keys:
        columns.register_shots(*store.load_columns(key))
    save_database(columns, tmp_path / "columns")

    rebuilt, skipped = rebuild_database(store, first=keys)
    save_database(rebuilt, tmp_path / "rebuilt")

    want = stored_state(tmp_path / "full")
    assert want["leaves"] and want["blocks"]
    assert stored_state(tmp_path / "columns") == want
    assert stored_state(tmp_path / "rebuilt") == want
    assert skipped == []
    assert columns.videos == full.videos


def test_columns_without_events_file_everything_as_unknown(tmp_path, demo_stream):
    from repro.core import ClassMiner

    result = ClassMiner().mine(demo_stream, mine_events=False)
    store = ArtifactStore(tmp_path / "artifacts")
    store.save(DEMO_KEY, result)
    columns = store.load_columns(DEMO_KEY)
    assert {event.value for _, event, _ in columns.scenes} == {"unknown"}
    a, b = VideoDatabase(), VideoDatabase()
    a.register(result)
    b.register_shots(*columns)
    assert a.describe() == b.describe() and a.videos == b.videos


def test_a_title_stored_twice_registers_once(store, demo_result):
    store.save("ab" * 32, demo_result)
    database, skipped = rebuild_database(store, first=[DEMO_KEY])
    assert sorted(database.videos) == ["demo", "orphaned"]
    assert skipped == []


@pytest.mark.parametrize("victim", ["arrays.npz", "meta.json"])
def test_corrupt_artifact_is_quarantined_and_skipped_on_the_column_path(store, victim):
    path = store.path_for(OTHER_KEY) / victim
    payload = bytearray(path.read_bytes())
    payload[len(payload) // 2] ^= 0xFF
    path.write_bytes(bytes(payload))

    with pytest.raises(IntegrityError):
        store.load_columns(OTHER_KEY)
    assert store.quarantined() == [OTHER_KEY]
    assert not store.has(OTHER_KEY)

    store.save(OTHER_KEY, store.load(DEMO_KEY))  # something to skip again below
    (store.path_for(OTHER_KEY) / victim).write_bytes(b"not what was checksummed")
    database, skipped = rebuild_database(store)
    assert sorted(database.videos) == ["demo"]
    assert skipped == [OTHER_KEY]


def test_unverifiable_garbage_is_a_typed_error_on_the_column_path(store):
    """No checksum manifest and a torn zip: quarantined unread, skipped by the rebuild."""
    directory = store.path_for(OTHER_KEY)
    (directory / "checksums.json").unlink()
    (directory / "arrays.npz").write_bytes(b"PK\x03\x04 torn")
    with pytest.raises(IntegrityError, match="unreadable checksum manifest"):
        store.load_columns(OTHER_KEY)
    assert store.quarantined() == [OTHER_KEY] and not store.has(OTHER_KEY)
    with pytest.raises(IngestError):
        store.load_columns("00" * 32)
    store.save(OTHER_KEY, store.load(DEMO_KEY))
    (store.path_for(OTHER_KEY) / "checksums.json").unlink()  # intact files, no manifest
    database, skipped = rebuild_database(store)
    assert sorted(database.videos) == ["demo"] and skipped == [OTHER_KEY]


def test_audio_members_are_stored_and_the_rest_deflated(store, demo_result):
    """A shot's audio is its MFCC matrix (stored); no clip's samples are written."""
    with zipfile.ZipFile(store.path_for(DEMO_KEY) / "arrays.npz") as archive:
        kinds = {info.filename: info.compress_type for info in archive.infolist()}
    _, arrays = encode_result(demo_result)
    assert set(kinds) == {f"{name}.npy" for name in arrays}
    for name, kind in kinds.items():
        audio = name.startswith("mfcc_")
        assert kind == (zipfile.ZIP_STORED if audio else zipfile.ZIP_DEFLATED), name
    assert not any(name.startswith("clip_") for name in kinds)
    assert {f"mfcc_{sid}.npy" for sid in demo_result.audio} <= set(kinds)
    meta = store.read_meta(DEMO_KEY)
    assert meta["format"] == ARTIFACT_FORMAT == 2
    windows = {sid: audio.clip_window for sid, audio in demo_result.audio.items()}
    assert any(windows.values())  # the windows are still recorded
    for sid, raw in meta["audio"].items():
        clip = raw["clip"]
        assert windows[int(sid)] == (None if clip is None else (clip["start"], clip["stop"]))
    assert results_equal(store.load(DEMO_KEY), demo_result)


def _write_format_1(store: ArtifactStore, key: str, meta: dict, arrays: dict, soundtrack) -> None:
    """An artifact as format 1 wrote it: the same members plus every
    representative clip's samples as ``clip_<shot>``."""
    arrays = dict(arrays)
    for sid, raw in meta["audio"].items():
        if raw["clip"] is not None:
            window = soundtrack.slice_seconds(raw["clip"]["start"], raw["clip"]["stop"])
            arrays[f"clip_{sid}"] = window.samples
    directory = store.path_for(key)
    directory.mkdir(parents=True)
    (directory / "meta.json").write_text(json.dumps(dict(meta, format=1, key=key)))
    np.savez(directory / "arrays.npz", **arrays)
    write_checksums(directory, ("meta.json", "arrays.npz"))


def test_a_mixed_store_re_mines_once_and_registers_the_title_once(tmp_path, monkeypatch):
    """A store holding a format-1 ``face_repair`` artifact: the job's key has
    moved, so ingest mines once under the new key; the old artifact still
    decodes, and the catalog files the title once, from the new artifact."""
    import repro.ingest.jobs as jobs
    from repro.ingest import ingest_corpus
    from repro.video.synthesis import stream_video

    fresh = ingest_corpus(["face_repair"], tmp_path / "fresh")
    [job] = jobs.jobs_for_titles(["face_repair"])
    assert [outcome.key for outcome in fresh.mined] == [job.key]
    with monkeypatch.context() as patch:
        patch.setattr(jobs, "ARTIFACT_FORMAT", 1)
        old_key = jobs.cache_key(job.screenplay, job.seed, job.config, job.mine_events)
    assert old_key != job.key

    meta, arrays = encode_result(store_for(tmp_path / "fresh").load(job.key))
    # A marker: were the old artifact's rows the ones filed, the catalog would show it.
    arrays["histograms"] = np.zeros_like(arrays["histograms"])
    mixed = store_for(tmp_path / "mixed")
    _write_format_1(mixed, old_key, meta, arrays, stream_video(job.screenplay).audio)
    old = mixed.load(old_key)  # decodes, ``clip_*`` members unread
    assert old.title == "face_repair" and not np.any(old.structure.shots[0].histogram)
    assert encode_result(old)[0]["audio"] == meta["audio"]

    report = ingest_corpus(["face_repair"], tmp_path / "mixed")
    assert [outcome.key for outcome in report.mined] == [job.key]
    assert report.registered == ["face_repair"] and report.skipped == []
    assert {info.key for info in mixed.list()} == {old_key, job.key}
    want = stored_state(tmp_path / "fresh")
    assert stored_state(tmp_path / "mixed") == want
    # ``classminer migrate`` over the same store (no outcomes: newest artifact first).
    for path in (tmp_path / "mixed").glob("catalog.sqlite*"):
        path.unlink()
    assert publish_catalog(tmp_path / "mixed").registered == ["face_repair"]
    assert stored_state(tmp_path / "mixed") == want


def test_an_all_deflated_artifact_still_loads(tmp_path, demo_result):
    """What ``np.savez_compressed`` wrote before the mixed writer: same format version."""
    store = ArtifactStore(tmp_path / "artifacts")
    directory = store.path_for(DEMO_KEY)
    directory.mkdir(parents=True)
    meta, arrays = encode_result(demo_result)
    (directory / "meta.json").write_text(json.dumps(dict(meta, key=DEMO_KEY)))
    np.savez_compressed(directory / "arrays.npz", **arrays)
    write_checksums(directory, ("meta.json", "arrays.npz"))
    assert results_equal(store.load(DEMO_KEY), demo_result)
    fresh = VideoDatabase()
    fresh.register_shots(*store.load_columns(DEMO_KEY))
    assert fresh.videos["demo"].shot_count == demo_result.structure.shot_count
