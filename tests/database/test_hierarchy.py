"""Tests for the concept hierarchy."""

import pytest

from repro.database.hierarchy import (
    ConceptLevel,
    ConceptNode,
    build_medical_hierarchy,
    scene_node_for,
)
from repro.errors import DatabaseError
from repro.types import EventKind


class TestConceptNode:
    def test_add_child_levels(self):
        root = ConceptNode("root", ConceptLevel.DATABASE)
        cluster = root.add_child("c", ConceptLevel.CLUSTER)
        assert cluster.parent is root
        with pytest.raises(DatabaseError):
            cluster.add_child("x", ConceptLevel.CLUSTER)  # not deeper
        with pytest.raises(DatabaseError):
            root.add_child("c", ConceptLevel.CLUSTER)  # duplicate name

    def test_find_and_path(self):
        root = build_medical_hierarchy()
        node = root.find("surgery")
        assert node is not None
        assert node.path() == ["medical_video_database", "medical_education", "surgery"]
        assert root.find("nonexistent") is None

    def test_walk_and_leaves(self):
        root = build_medical_hierarchy()
        names = [node.name for node in root.walk()]
        assert names[0] == "medical_video_database"
        assert len(names) == len(set(names))
        leaves = root.leaves()
        assert all(not leaf.children for leaf in leaves)


class TestMedicalHierarchy:
    def test_fig2_clusters(self):
        root = build_medical_hierarchy()
        clusters = [c.name for c in root.children]
        assert clusters == ["health_care", "medical_education", "medical_report"]

    def test_every_area_has_all_scene_concepts(self):
        root = build_medical_hierarchy()
        education = root.find("medical_education")
        for area in education.children:
            concepts = {c.name.split("/", 1)[1] for c in area.children}
            assert concepts == {k.value for k in EventKind}

    def test_level_depths(self):
        assert ConceptLevel.DATABASE.depth == 0
        assert ConceptLevel.SHOT.depth == 4


class TestSceneNodeFor:
    def test_known_video(self):
        root = build_medical_hierarchy()
        node = scene_node_for(root, "laparoscopy", EventKind.DIALOG)
        assert node.name == "surgery/dialog"

    def test_unknown_video_creates_general_area(self):
        root = build_medical_hierarchy()
        node = scene_node_for(root, "mystery_video", EventKind.PRESENTATION)
        assert node.name == "general/presentation"
        # Idempotent: calling again reuses the same subtree.
        again = scene_node_for(root, "mystery_video", EventKind.PRESENTATION)
        assert again is node
