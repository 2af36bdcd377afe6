"""Artifact integrity: content checksums, verification, quarantine.

Every artifact directory written by
:class:`~repro.ingest.artifacts.ArtifactStore` gains a third file,
``checksums.json``::

    {"algorithm": "sha256",
     "files": {"meta.json": "<hex>", "arrays.npz": "<hex>"}}

Checksums are computed over the *intended* bytes before the directory
is atomically renamed into place, so any later corruption — a torn
write, bit rot, a truncating copy, an injected corruption fault — is
detected on read: :func:`verify_checksums` raises
:class:`~repro.errors.IntegrityError` naming the first mismatching
file.  The store then *quarantines* the entry (moves it under
``<root>/.quarantine/``) so ``has()`` turns False and the next ingest
run re-mines the video transparently.

A directory with no manifest fails like one with an unreadable
manifest: every artifact a save can produce carries it (it is written
before the rename), so its absence means a file was lost — and were it
read as "nothing to check", deleting one file would turn verification
off.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import IntegrityError

#: Name of the per-artifact checksum manifest.
CHECKSUMS_NAME = "checksums.json"

#: Hash algorithm used for artifact content digests.
ALGORITHM = "sha256"

#: Directory (under a store root) corrupt artifacts are moved into.
#: The leading dot keeps it invisible to the store's ``*/*`` globs.
QUARANTINE_DIR = ".quarantine"


def file_digest(path: str | Path, chunk_size: int = 1 << 20) -> str:
    """Streaming sha256 of one file's content (hex)."""
    import hashlib  # here, not at module level: a shard worker hashes nothing
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            block = handle.read(chunk_size)
            if not block:
                break
            hasher.update(block)
    return hasher.hexdigest()


def write_checksums(directory: str | Path, names: tuple[str, ...]) -> Path:
    """Write ``checksums.json`` covering ``names`` inside ``directory``."""
    directory = Path(directory)
    manifest = {
        "algorithm": ALGORITHM,
        "files": {name: file_digest(directory / name) for name in names},
    }
    path = directory / CHECKSUMS_NAME
    path.write_text(json.dumps(manifest, indent=0, sort_keys=True))
    return path


def verify_checksums(directory: str | Path) -> None:
    """Verify every checksummed file inside ``directory``.

    Returns when everything matches.  Raises
    :class:`~repro.errors.IntegrityError` on the first mismatch, a
    missing checksummed file, or a missing/unreadable/garbled manifest.
    """
    directory = Path(directory)
    try:
        manifest = json.loads((directory / CHECKSUMS_NAME).read_text())
        files = dict(manifest["files"])
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise IntegrityError(
            f"unreadable checksum manifest in {directory.name}: {exc}"
        ) from exc
    if manifest.get("algorithm") != ALGORITHM:
        raise IntegrityError(
            f"unsupported checksum algorithm {manifest.get('algorithm')!r} "
            f"in {directory.name}"
        )
    for name, expected in sorted(files.items()):
        target = directory / name
        if not target.exists():
            raise IntegrityError(f"artifact file {name} missing from {directory.name}")
        actual = file_digest(target)
        if actual != expected:
            raise IntegrityError(
                f"artifact file {name} in {directory.name} failed verification: "
                f"expected {expected[:12]}…, got {actual[:12]}…"
            )
