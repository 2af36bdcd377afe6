"""Shared fixtures: the demo video and its mined artefacts.

Generating and mining video is the expensive part of this suite, so the
demo screenplay is rendered once per session and every mined artefact
(structure, cues, audio, events) is derived from that single run.

The mining stack is imported by the fixtures that need it, not by this
file: pytest loads it for every test, and the query-stack tests check
that they run without it (``tests/test_import_layers.py``).
"""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture(scope="session")
def demo_video():
    """The rendered demo video (3 content scenes + separators)."""
    from repro.video.synthesis import demo_screenplay, generate_video

    return generate_video(demo_screenplay(), seed=0)


@pytest.fixture(scope="session")
def demo_stream(demo_video):
    """Just the stream of the demo video."""
    return demo_video.stream


@pytest.fixture(scope="session")
def demo_truth(demo_video):
    """Ground truth of the demo video."""
    return demo_video.truth


@pytest.fixture(scope="session")
def demo_result(demo_video):
    """Full ClassMiner output (structure + cues + audio + events)."""
    from repro.core import ClassMiner

    return ClassMiner().mine(demo_video.stream)


@pytest.fixture(scope="session")
def demo_structure(demo_result):
    """Mined content structure of the demo video."""
    return demo_result.structure


@pytest.fixture(scope="session")
def demo_shots(demo_structure):
    """Detected shots of the demo video."""
    return demo_structure.shots


@pytest.fixture()
def rng():
    """Deterministic RNG for individual tests."""
    return np.random.default_rng(1234)
