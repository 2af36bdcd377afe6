"""Artifact integrity: checksums, corruption detection, quarantine."""

from __future__ import annotations

import json

import pytest

from repro.errors import FaultInjectedError, IngestError, IntegrityError
from repro.ingest.artifacts import ArtifactStore
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.resilience.integrity import (
    CHECKSUMS_NAME,
    QUARANTINE_DIR,
    file_digest,
    verify_checksums,
    write_checksums,
)

KEY = "feedc0de" * 8  # any 64-char hex key


@pytest.fixture()
def store(tmp_path, demo_result) -> ArtifactStore:
    """A store holding the demo artifact under KEY."""
    s = ArtifactStore(tmp_path / "artifacts")
    s.save(KEY, demo_result)
    return s


class TestManifest:
    def test_write_then_verify(self, tmp_path):
        (tmp_path / "a.bin").write_bytes(b"alpha")
        (tmp_path / "b.bin").write_bytes(b"beta")
        write_checksums(tmp_path, ("a.bin", "b.bin"))
        verify_checksums(tmp_path)  # raises on any mismatch

    def test_legacy_directory_without_manifest(self, tmp_path):
        (tmp_path / "a.bin").write_bytes(b"alpha")
        with pytest.raises(IntegrityError, match="unreadable checksum manifest"):
            verify_checksums(tmp_path)

    def test_mismatch_names_the_file(self, tmp_path):
        (tmp_path / "a.bin").write_bytes(b"alpha")
        write_checksums(tmp_path, ("a.bin",))
        (tmp_path / "a.bin").write_bytes(b"tampered")
        with pytest.raises(IntegrityError, match="a.bin"):
            verify_checksums(tmp_path)

    def test_missing_checksummed_file(self, tmp_path):
        (tmp_path / "a.bin").write_bytes(b"alpha")
        write_checksums(tmp_path, ("a.bin",))
        (tmp_path / "a.bin").unlink()
        with pytest.raises(IntegrityError, match="missing"):
            verify_checksums(tmp_path)

    def test_garbled_manifest(self, tmp_path):
        (tmp_path / CHECKSUMS_NAME).write_bytes(b"\xff\xfenot json")
        with pytest.raises(IntegrityError, match="unreadable"):
            verify_checksums(tmp_path)

    def test_unknown_algorithm(self, tmp_path):
        (tmp_path / CHECKSUMS_NAME).write_text(
            json.dumps({"algorithm": "crc32", "files": {}})
        )
        with pytest.raises(IntegrityError, match="crc32"):
            verify_checksums(tmp_path)

    def test_file_digest_is_content_addressed(self, tmp_path):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        a.write_bytes(b"same content")
        b.write_bytes(b"same content")
        assert file_digest(a) == file_digest(b)
        b.write_bytes(b"same content!")
        assert file_digest(a) != file_digest(b)


class TestStoreVerification:
    def test_save_writes_manifest_and_verifies(self, store):
        assert (store.path_for(KEY) / CHECKSUMS_NAME).exists()
        assert store.verify(KEY) is True
        assert store.has_valid(KEY)

    def test_truncated_meta_quarantines_on_load(self, store):
        meta = store.path_for(KEY) / "meta.json"
        meta.write_bytes(meta.read_bytes()[: len(meta.read_bytes()) // 2])
        with pytest.raises(IntegrityError):
            store.load(KEY)
        assert not store.has(KEY)
        assert store.quarantined() == [KEY]
        note = json.loads(
            (store.root / QUARANTINE_DIR / KEY / "quarantined.json").read_text()
        )
        assert note["key"] == KEY
        assert "meta.json" in note["reason"]

    def test_bitflipped_arrays_quarantine_on_load(self, store):
        arrays = store.path_for(KEY) / "arrays.npz"
        payload = bytearray(arrays.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        arrays.write_bytes(bytes(payload))
        with pytest.raises(IntegrityError, match="arrays.npz"):
            store.load(KEY)
        assert store.quarantined() == [KEY]

    def test_injected_read_fault_is_typed_and_quarantines_nothing(self, store, demo_result):
        with inject(FaultPlan([FaultSpec("ingest.artifact.read", limit=1)])):
            with pytest.raises(FaultInjectedError, match="ingest.artifact.read"):
                store.load(KEY)
            # The artifact was never the problem: still there, and the next read works.
            assert store.quarantined() == [] and store.has(KEY)
            assert store.load_columns(KEY).title == demo_result.structure.title

    def test_verify_reports_without_quarantining(self, store):
        (store.path_for(KEY) / "meta.json").write_bytes(b"{}")
        with pytest.raises(IntegrityError):
            store.verify(KEY)
        assert store.has(KEY)  # still in place
        assert store.quarantined() == []

    def test_has_valid_quarantines_as_side_effect(self, store):
        (store.path_for(KEY) / "meta.json").write_bytes(b"{}")
        assert not store.has_valid(KEY)
        assert not store.has(KEY)
        assert store.quarantined() == [KEY]

    def test_manifestless_artifact_is_quarantined_not_decoded(self, store):
        """Deleting ``checksums.json`` must not turn verification off."""
        (store.path_for(KEY) / CHECKSUMS_NAME).unlink()
        with pytest.raises(IntegrityError, match="unreadable checksum manifest"):
            store.verify(KEY)
        assert store.has(KEY) and store.quarantined() == []  # verify() only reports
        with pytest.raises(IntegrityError):
            store.load(KEY)
        assert not store.has(KEY) and not store.has_valid(KEY)
        assert store.quarantined() == [KEY]

    def test_verify_missing_artifact_is_typed(self, store):
        with pytest.raises(IngestError):
            store.verify("00" * 32)
        assert not store.has_valid("00" * 32)

    def test_quarantine_is_invisible_to_list(self, store):
        assert [info.key for info in store.list()] == [KEY]
        store.quarantine(KEY, reason="test")
        assert store.list() == []
        assert store.quarantined() == [KEY]


class TestInjectedCorruption:
    def test_corruption_fault_is_caught_by_checksums(self, tmp_path, demo_result):
        store = ArtifactStore(tmp_path / "artifacts")
        plan = FaultPlan(
            [FaultSpec(point="ingest.artifact.write", kind="corruption", limit=1)]
        )
        with inject(plan):
            store.save(KEY, demo_result)
        assert plan.fired("ingest.artifact.write", "corruption") == 1
        assert store.has(KEY)  # present on disk...
        assert not store.has_valid(KEY)  # ...but fails verification
        assert store.quarantined() == [KEY]

    def test_resave_after_quarantine_is_clean(self, tmp_path, demo_result):
        store = ArtifactStore(tmp_path / "artifacts")
        plan = FaultPlan(
            [FaultSpec(point="ingest.artifact.write", kind="corruption", limit=1)]
        )
        with inject(plan):
            store.save(KEY, demo_result)
            assert not store.has_valid(KEY)
            store.save(KEY, demo_result)  # the re-mine; fault exhausted
        assert store.has_valid(KEY)
        loaded = store.load(KEY)
        assert loaded.structure.title == demo_result.structure.title
        assert store.quarantined() == [KEY]  # post-mortem copy remains
