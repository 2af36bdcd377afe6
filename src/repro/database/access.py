"""Hierarchical access control (Sec. 2, third requirement).

The indexing hierarchy doubles as the protection hierarchy: filtering
rules attach to semantic concepts and apply to the whole subtree below
them, giving "a wide range of protection granularity levels".  Access
decisions combine:

1. **explicit rules** — DENY beats ALLOW, deeper (more specific) rules
   beat shallower ones;
2. **multilevel security** — every concept carries a sensitivity level
   (inherited downward as a maximum) and the user needs clearance at or
   above it.

All decisions are appended to an audit log.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.database.hierarchy import ConceptNode
from repro.errors import DatabaseError
from repro.types import EventKind


class Permission(str, Enum):
    """Explicit rule effect."""

    ALLOW = "allow"
    DENY = "deny"


#: Default sensitivity of the scene-level concepts: graphic clinical
#: footage is the most restricted, patient dialogs carry privacy
#: concerns, presentations are public teaching material.
DEFAULT_SENSITIVITY = {
    EventKind.PRESENTATION.value: 0,
    EventKind.UNKNOWN.value: 1,
    EventKind.DIALOG.value: 2,
    EventKind.CLINICAL_OPERATION.value: 3,
}


@dataclass(frozen=True)
class FilterRule:
    """One filtering rule attached to a concept."""

    concept: str
    permission: Permission
    reason: str = ""


@dataclass(frozen=True)
class User:
    """A database principal.

    Attributes
    ----------
    name:
        Login name.
    clearance:
        Multilevel-security clearance (0 = public only).
    rules:
        Per-user rule overrides (e.g. a researcher DENYed dialogs for a
        privacy study, or ALLOWed one clinical concept).
    """

    name: str
    clearance: int = 0
    rules: tuple[FilterRule, ...] = ()


@dataclass(frozen=True)
class AuditRecord:
    """One access decision."""

    user: str
    concept: str
    granted: bool
    reason: str


class AccessController:
    """Evaluates access to concept-hierarchy nodes."""

    def __init__(
        self,
        root: ConceptNode,
        sensitivity: dict[str, int] | None = None,
        global_rules: list[FilterRule] | None = None,
    ) -> None:
        self._root = root
        self._sensitivity = dict(DEFAULT_SENSITIVITY)
        if sensitivity:
            self._sensitivity.update(sensitivity)
        self._global_rules = list(global_rules or [])
        self._audit: list[AuditRecord] = []

    @property
    def audit_log(self) -> list[AuditRecord]:
        """All recorded decisions, oldest first."""
        return list(self._audit)

    def _node(self, concept: str) -> ConceptNode:
        node = self._root.find(concept)
        if node is None:
            raise DatabaseError(f"unknown concept {concept!r}")
        return node

    def _effective_sensitivity(self, node: ConceptNode) -> int:
        """Maximum sensitivity along the path (inherited downward).

        A node's own sensitivity comes from the most specific matching
        key: the exact node name, else the suffix after ``/`` (scene
        concepts are named ``area/event``).
        """
        level = 0
        current: ConceptNode | None = node
        while current is not None:
            key = current.name
            if key in self._sensitivity:
                level = max(level, self._sensitivity[key])
            elif "/" in key and key.split("/", 1)[1] in self._sensitivity:
                level = max(level, self._sensitivity[key.split("/", 1)[1]])
            current = current.parent
        return level

    def _matching_rules(self, user: User, node: ConceptNode) -> list[tuple[int, FilterRule]]:
        """Rules applying to the node or any ancestor, with their depth."""
        path = node.path()
        matches: list[tuple[int, FilterRule]] = []
        for rule in list(self._global_rules) + list(user.rules):
            for depth, name in enumerate(path):
                if rule.concept == name or (
                    "/" in name and rule.concept == name.split("/", 1)[1]
                ):
                    matches.append((depth, rule))
        return matches

    def check(self, user: User, concept: str) -> bool:
        """Decide (and audit) whether ``user`` may access ``concept``."""
        node = self._node(concept)
        matches = self._matching_rules(user, node)
        decision: bool
        reason: str
        if matches:
            deepest = max(depth for depth, _ in matches)
            at_depth = [rule for depth, rule in matches if depth == deepest]
            if any(rule.permission is Permission.DENY for rule in at_depth):
                decision, reason = False, "explicit deny rule"
            else:
                decision, reason = True, "explicit allow rule"
        else:
            required = self._effective_sensitivity(node)
            if user.clearance >= required:
                decision, reason = True, f"clearance {user.clearance} >= {required}"
            else:
                decision, reason = False, f"clearance {user.clearance} < {required}"
        self._audit.append(
            AuditRecord(user=user.name, concept=concept, granted=decision, reason=reason)
        )
        return decision

    def permitted_leaves(self, user: User) -> set[str]:
        """Names of all scene-level leaf concepts the user may enter."""
        return {
            leaf.name
            for leaf in self._root.leaves()
            if self.check(user, leaf.name)
        }
