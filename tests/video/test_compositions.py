"""Tests for the composition registry (every camera setup must render)."""

import numpy as np
import pytest

from repro.errors import VideoError
from repro.video.synthesis.compositions import (
    COMPOSITION_REGISTRY,
    ShotParams,
    render_composition,
)
from repro.video.synthesis.script import COMPOSITION_NAMES
from repro.video.synthesis.sets import SET_REGISTRY, render_set
from repro.video.synthesis.draw import new_canvas


class TestCompositionRegistry:
    def test_renders_exactly_the_names_a_screenplay_may_use(self):
        # A screenplay is checked against the names alone, without the renderer.
        assert set(COMPOSITION_REGISTRY) == COMPOSITION_NAMES

    @pytest.mark.parametrize("name", sorted(COMPOSITION_REGISTRY))
    def test_renders_in_range(self, name):
        canvas = render_composition(name, 64, 80, seed=5, params=ShotParams(), t=0.5)
        assert canvas.shape == (64, 80, 3)
        assert canvas.min() >= 0.0
        assert canvas.max() <= 1.0

    @pytest.mark.parametrize("name", sorted(COMPOSITION_REGISTRY))
    def test_static_given_seed_and_t(self, name):
        a = render_composition(name, 64, 80, seed=5, params=ShotParams(), t=0.25)
        b = render_composition(name, 64, 80, seed=5, params=ShotParams(), t=0.25)
        assert np.array_equal(a, b)

    def test_seed_changes_scenery(self):
        a = render_composition("surgical_closeup", 64, 80, seed=1, params=ShotParams(), t=0.0)
        b = render_composition("surgical_closeup", 64, 80, seed=2, params=ShotParams(), t=0.0)
        assert not np.array_equal(a, b)

    def test_talking_animates(self):
        a = render_composition("interview_a", 64, 80, seed=1, params=ShotParams(), t=0.1)
        b = render_composition("interview_a", 64, 80, seed=1, params=ShotParams(), t=0.5)
        assert not np.array_equal(a, b)

    def test_unknown_composition_raises(self):
        with pytest.raises(VideoError):
            render_composition("steadicam", 64, 80, seed=0, params=ShotParams(), t=0.0)


class TestSetRegistry:
    @pytest.mark.parametrize("name", sorted(SET_REGISTRY))
    def test_sets_paint_full_canvas(self, name, rng):
        canvas = new_canvas(64, 80)
        render_set(name, canvas, rng)
        # A painted background should not be predominantly black.
        assert canvas.mean() > 0.05

    def test_unknown_set_raises(self, rng):
        with pytest.raises(VideoError):
            render_set("holodeck", new_canvas(8, 8), rng)

    def test_variants_differ(self, rng):
        import numpy as np

        a = new_canvas(64, 80)
        b = new_canvas(64, 80)
        render_set("lecture_hall", a, np.random.default_rng(1), variant=0)
        render_set("lecture_hall", b, np.random.default_rng(1), variant=1)
        assert not np.array_equal(a, b)
