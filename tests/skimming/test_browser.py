"""Tests for the hierarchical browser."""

import pytest

from repro.errors import SkimmingError
from repro.skimming.browser import BrowseLevel, HierarchyBrowser


@pytest.fixture()
def browser(demo_result):
    return HierarchyBrowser(demo_result.structure, demo_result.events.events)


class TestNavigation:
    def test_starts_at_clusters(self, browser, demo_structure):
        assert browser.level is BrowseLevel.CLUSTERS
        assert len(browser.entries()) == len(demo_structure.clustered_scenes)

    def test_descend_to_shots(self, browser):
        assert browser.enter() is BrowseLevel.SCENES
        assert browser.enter() is BrowseLevel.GROUPS
        assert browser.enter() is BrowseLevel.SHOTS
        assert browser.entries()
        with pytest.raises(SkimmingError):
            browser.enter()

    def test_cursor_clamps(self, browser):
        for _ in range(100):
            browser.next()
        assert browser.cursor == len(browser.entries()) - 1
        for _ in range(100):
            browser.previous()
        assert browser.cursor == 0

    def test_entries_have_detail(self, browser):
        browser.enter()  # scenes
        for entry in browser.entries():
            assert "event=" in entry.detail

    def test_group_listing_shows_kind(self, browser):
        browser.enter()
        browser.enter()
        details = [entry.detail for entry in browser.entries()]
        assert all(("temporal" in d) or ("spatial" in d) for d in details)


class TestRendering:
    def test_breadcrumb_deepens(self, browser, demo_structure):
        assert browser.breadcrumb() == demo_structure.title
        browser.enter()
        assert "cluster" in browser.breadcrumb()
        browser.enter()
        assert "scene" in browser.breadcrumb()

    def test_render_marks_cursor(self, browser):
        browser.next()
        text = browser.render()
        lines = text.splitlines()[1:]
        marked = [line for line in lines if line.startswith(" >")]
        assert len(marked) == 1


class TestLevels:
    def test_level_stepping(self):
        assert BrowseLevel.CLUSTERS.finer() is BrowseLevel.SCENES
        assert BrowseLevel.SHOTS.finer() is BrowseLevel.SHOTS
