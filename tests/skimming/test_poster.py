"""Tests for pictorial-summary poster composition and PPM IO."""

import numpy as np
import pytest

from repro.errors import SkimmingError
from repro.skimming.poster import (
    BORDER,
    BORDER_COLORS,
    GUTTER,
    compose_poster,
    save_poster,
    write_ppm,
)
from repro.skimming.skim import build_skim
from tests.helpers import read_ppm


@pytest.fixture(scope="module")
def skim(demo_result):
    return build_skim(demo_result.structure, demo_result.events.events)


class TestCompose:
    def test_dimensions(self, skim):
        segments = skim.segments(3)
        frame_h, frame_w, _ = segments[0].shot.representative_frame.shape
        columns = 2
        rows = -(-len(segments) // columns)
        poster = compose_poster(skim, level=3, columns=columns)
        assert poster.shape == (
            rows * (frame_h + 2 * BORDER) + (rows + 1) * GUTTER,
            columns * (frame_w + 2 * BORDER) + (columns + 1) * GUTTER,
            3,
        )
        assert poster.dtype == np.uint8

    def test_frames_are_embedded(self, skim):
        poster = compose_poster(skim, level=3, columns=3)
        first = skim.segments(3)[0].shot.representative_frame.pixels
        top = GUTTER + BORDER
        left = GUTTER + BORDER
        window = poster[top : top + first.shape[0], left : left + first.shape[1]]
        assert np.array_equal(window, first)

    def test_border_color_matches_event(self, skim):
        poster = compose_poster(skim, level=3, columns=3)
        first = skim.segments(3)[0]
        expected = BORDER_COLORS[first.event]
        assert tuple(poster[GUTTER, GUTTER]) == expected

    def test_rejects_bad_columns(self, skim):
        with pytest.raises(SkimmingError):
            compose_poster(skim, columns=0)


class TestPpm:
    def test_round_trip(self, tmp_path, rng):
        image = rng.integers(0, 256, (10, 14, 3), dtype=np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(image, path)
        loaded = read_ppm(path)
        assert np.array_equal(loaded, image)

    def test_header(self, tmp_path):
        image = np.zeros((2, 3, 3), dtype=np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(image, path)
        assert path.read_bytes().startswith(b"P6\n3 2\n255\n")

    def test_write_rejects_bad_dtype(self, tmp_path):
        with pytest.raises(SkimmingError):
            write_ppm(np.zeros((2, 2, 3)), tmp_path / "x.ppm")

    def test_save_poster(self, skim, tmp_path):
        path = tmp_path / "poster.ppm"
        poster = save_poster(skim, path, level=4, columns=2)
        assert np.array_equal(read_ppm(path), poster)
