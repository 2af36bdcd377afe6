"""Builders and comparisons the tests share; nothing in the program calls them."""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from repro.ann.index import resolve_ann
from repro.audio.waveform import DEFAULT_SAMPLE_RATE, Waveform
from repro.core.pipeline import ClassMinerResult
from repro.ingest.artifacts import encode_result
from repro.storage.featurestore import _header
from repro.video.frame import DEFAULT_HEIGHT, DEFAULT_WIDTH, Frame


def blank_frame(
    height: int = DEFAULT_HEIGHT,
    width: int = DEFAULT_WIDTH,
    color: tuple[int, int, int] = (0, 0, 0),
    index: int = 0,
    timestamp: float = 0.0,
) -> Frame:
    """A solid-colour frame."""
    pixels = np.empty((height, width, 3), dtype=np.uint8)
    pixels[:, :] = np.asarray(color, dtype=np.uint8)
    return Frame(pixels=pixels, index=index, timestamp=timestamp)


def silence(duration: float) -> Waveform:
    """``duration`` seconds of zeros at the default sample rate."""
    return Waveform(samples=np.zeros(int(round(duration * DEFAULT_SAMPLE_RATE))))


def results_equal(a: ClassMinerResult, b: ClassMinerResult) -> bool:
    """Deep equality of two mined results: same metadata, same arrays."""
    meta_a, arrays_a = encode_result(a)
    meta_b, arrays_b = encode_result(b)
    return (
        meta_a == meta_b
        and set(arrays_a) == set(arrays_b)
        and all(np.array_equal(arrays_a[name], arrays_b[name]) for name in arrays_a)
    )


def read_ppm(path: Path) -> np.ndarray:
    """The ``(H, W, 3)`` uint8 image in a binary PPM that ``write_ppm`` wrote."""
    magic, size, maxval, pixels = Path(path).read_bytes().split(b"\n", 3)
    assert magic == b"P6" and maxval == b"255"
    width, height = map(int, size.split())
    return np.frombuffer(pixels, np.uint8).reshape(height, width, 3)


def ann_tiers(database) -> dict:
    """Each populated leaf's ANN tier as ``resolve_ann`` builds it, by name."""
    return {
        node.name: resolve_ann(node)
        for node in database.index_root.iter_leaves()
        if node.leaf is not None and len(node.leaf)
    }


def code_address(codes: np.ndarray) -> str:
    """The content address ``FeatureStore.put`` gives a uint8 code block:
    sha256 over its ``.npy`` header and cells (what schema v5 stored)."""
    header = _header(codes.shape, np.dtype(np.uint8))
    return hashlib.sha256(header + np.ascontiguousarray(codes).tobytes()).hexdigest()
