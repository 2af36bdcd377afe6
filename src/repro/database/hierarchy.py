"""The medical concept hierarchy (Fig. 2) and its node model.

The database model derives its levels from the concept hierarchy of
video content: database root -> semantic cluster -> sub-level cluster ->
semantic scene -> shot.  Nodes are meaningful to humans (each names a
medical concept), which is what lets the same tree drive indexing,
browsing and access control.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.errors import DatabaseError
from repro.types import EventKind


class ConceptLevel(str, Enum):
    """The five database-model levels of Fig. 1/Fig. 2."""

    DATABASE = "database"
    CLUSTER = "cluster"
    SUBCLUSTER = "subcluster"
    SCENE = "scene"
    SHOT = "shot"

    @property
    def depth(self) -> int:
        """0 for the root, increasing downward."""
        order = (
            ConceptLevel.DATABASE,
            ConceptLevel.CLUSTER,
            ConceptLevel.SUBCLUSTER,
            ConceptLevel.SCENE,
            ConceptLevel.SHOT,
        )
        return order.index(self)


@dataclass
class ConceptNode:
    """One node of the concept hierarchy.

    Attributes
    ----------
    name:
        Human-readable concept name (unique among siblings).
    level:
        Hierarchy level of this node.
    children:
        Child nodes, in insertion order.
    parent:
        Back-pointer (None at the root).
    """

    name: str
    level: ConceptLevel
    children: list["ConceptNode"] = field(default_factory=list)
    parent: "ConceptNode | None" = field(default=None, repr=False)

    def add_child(self, name: str, level: ConceptLevel) -> "ConceptNode":
        """Create and attach a child node; returns it.

        Adding a child whose level is not strictly deeper, or whose name
        duplicates a sibling, raises :class:`DatabaseError`.
        """
        if level.depth <= self.level.depth:
            raise DatabaseError(
                f"child level {level.value} not below parent {self.level.value}"
            )
        if any(child.name == name for child in self.children):
            raise DatabaseError(f"duplicate child {name!r} under {self.name!r}")
        child = ConceptNode(name=name, level=level, parent=self)
        self.children.append(child)
        return child

    def find(self, name: str) -> "ConceptNode | None":
        """Depth-first search for a node by name."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def path(self) -> list[str]:
        """Names from the root to this node."""
        names: list[str] = []
        node: ConceptNode | None = self
        while node is not None:
            names.append(node.name)
            node = node.parent
        return list(reversed(names))

    def walk(self) -> list["ConceptNode"]:
        """This node and all descendants, depth-first."""
        nodes = [self]
        for child in self.children:
            nodes.extend(child.walk())
        return nodes

    def leaves(self) -> list["ConceptNode"]:
        """All leaf nodes under (and including) this node."""
        if not self.children:
            return [self]
        return [leaf for child in self.children for leaf in child.leaves()]


#: Subject-area cluster for each corpus video (how a curator would shelve
#: them under Fig. 2's "Medical Education" branch).
VIDEO_SUBJECT_AREAS = {
    "face_repair": "surgery",
    "laparoscopy": "surgery",
    "laser_eye_surgery": "surgery",
    "nuclear_medicine": "imaging",
    "skin_examination": "dermatology",
}

#: The three scene-level concepts of Fig. 2.
SCENE_CONCEPTS = tuple(kind.value for kind in EventKind)


def build_medical_hierarchy() -> ConceptNode:
    """Build the Fig. 2 concept hierarchy for the medical domain.

    Returns the database root.  The "Medical Education" cluster carries
    the full subject-area / scene-concept structure; the sibling
    clusters exist as in the figure but stay empty in this corpus.
    """
    root = ConceptNode(name="medical_video_database", level=ConceptLevel.DATABASE)
    root.add_child("health_care", ConceptLevel.CLUSTER)
    education = root.add_child("medical_education", ConceptLevel.CLUSTER)
    root.add_child("medical_report", ConceptLevel.CLUSTER)

    for area in sorted(set(VIDEO_SUBJECT_AREAS.values())):
        subcluster = education.add_child(area, ConceptLevel.SUBCLUSTER)
        for concept in SCENE_CONCEPTS:
            subcluster.add_child(f"{area}/{concept}", ConceptLevel.SCENE)
    return root


def hierarchy_to_dict(node: ConceptNode) -> dict:
    """Serialise a concept (sub)tree to plain data.

    The format round-trips through :func:`hierarchy_from_dict`, letting
    deployments persist or hand-author custom taxonomies (the paper
    obtains its hierarchy "from domain experts or using WordNet").
    """
    return {
        "name": node.name,
        "level": node.level.value,
        "children": [hierarchy_to_dict(child) for child in node.children],
    }


def hierarchy_from_dict(data: dict, parent: ConceptNode | None = None) -> ConceptNode:
    """Rebuild a concept tree serialised by :func:`hierarchy_to_dict`.

    Raises :class:`DatabaseError` on missing keys, unknown levels, or
    level ordering violations (children must be strictly deeper).
    """
    try:
        name = data["name"]
        level = ConceptLevel(data["level"])
    except (KeyError, ValueError) as exc:
        raise DatabaseError(f"malformed hierarchy node: {exc}") from exc
    node = ConceptNode(name=name, level=level, parent=parent)
    if parent is not None and level.depth <= parent.level.depth:
        raise DatabaseError(
            f"node {name!r} at level {level.value} not below its parent"
        )
    for child_data in data.get("children", []):
        node.children.append(hierarchy_from_dict(child_data, parent=node))
    return node


def ensure_subject_area(root: ConceptNode, area: str) -> ConceptNode:
    """Get (creating on demand) the subject-area subcluster ``area``.

    A newly created area receives the full set of scene-level concept
    leaves, so every area supports every event category.
    """
    education = root.find("medical_education")
    if education is None:
        raise DatabaseError("hierarchy has no medical_education cluster")
    subcluster = next((c for c in education.children if c.name == area), None)
    if subcluster is None:
        subcluster = education.add_child(area, ConceptLevel.SUBCLUSTER)
        for concept in SCENE_CONCEPTS:
            subcluster.add_child(f"{area}/{concept}", ConceptLevel.SCENE)
    return subcluster


def scene_node_for(
    root: ConceptNode, video_title: str, event: EventKind
) -> ConceptNode:
    """Locate the scene-level node a mined scene maps to.

    Unknown video titles fall into the ``general`` subject area, which
    is created on demand.
    """
    area = VIDEO_SUBJECT_AREAS.get(video_title, "general")
    subcluster = ensure_subject_area(root, area)
    target = f"{area}/{event.value}"
    node = next((c for c in subcluster.children if c.name == target), None)
    if node is None:
        raise DatabaseError(f"missing scene concept {target!r}")
    return node
