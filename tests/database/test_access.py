"""Tests for hierarchical access control."""

import pytest

from repro.database.access import (
    AccessController,
    FilterRule,
    Permission,
    User,
)
from repro.database.hierarchy import build_medical_hierarchy
from repro.errors import DatabaseError


@pytest.fixture()
def controller():
    return AccessController(build_medical_hierarchy())


class TestClearance:
    def test_public_user_sees_presentations_only(self, controller):
        public = User(name="student", clearance=0)
        assert controller.check(public, "surgery/presentation")
        assert not controller.check(public, "surgery/dialog")
        assert not controller.check(public, "surgery/clinical_operation")

    def test_clearance_ladder(self, controller):
        resident = User(name="resident", clearance=2)
        assert controller.check(resident, "surgery/dialog")
        assert not controller.check(resident, "surgery/clinical_operation")
        attending = User(name="attending", clearance=3)
        assert controller.check(attending, "surgery/clinical_operation")

    def test_internal_nodes_accessible_at_zero(self, controller):
        public = User(name="student", clearance=0)
        assert controller.check(public, "medical_education")


class TestRules:
    def test_explicit_deny_beats_clearance(self, controller):
        admin = User(
            name="admin",
            clearance=9,
            rules=(FilterRule("surgery/dialog", Permission.DENY, "privacy study"),),
        )
        assert not controller.check(admin, "surgery/dialog")
        assert controller.check(admin, "dermatology/dialog")

    def test_explicit_allow_beats_clearance(self, controller):
        student = User(
            name="student",
            clearance=0,
            rules=(FilterRule("dermatology/clinical_operation", Permission.ALLOW),),
        )
        assert controller.check(student, "dermatology/clinical_operation")
        assert not controller.check(student, "surgery/clinical_operation")

    def test_rule_on_ancestor_applies_to_subtree(self, controller):
        blocked = User(
            name="blocked",
            clearance=9,
            rules=(FilterRule("surgery", Permission.DENY),),
        )
        assert not controller.check(blocked, "surgery/presentation")
        assert controller.check(blocked, "imaging/presentation")

    def test_deeper_rule_overrides_shallower(self, controller):
        user = User(
            name="u",
            clearance=0,
            rules=(
                FilterRule("surgery", Permission.DENY),
                FilterRule("surgery/presentation", Permission.ALLOW),
            ),
        )
        assert controller.check(user, "surgery/presentation")
        assert not controller.check(user, "surgery/dialog")

    def test_deny_wins_ties_at_same_depth(self, controller):
        user = User(
            name="u",
            clearance=0,
            rules=(
                FilterRule("surgery/dialog", Permission.ALLOW),
                FilterRule("surgery/dialog", Permission.DENY),
            ),
        )
        assert not controller.check(user, "surgery/dialog")

    def test_global_rules(self):
        controller = AccessController(
            build_medical_hierarchy(),
            global_rules=[FilterRule("clinical_operation", Permission.DENY)],
        )
        chief = User(name="chief", clearance=9)
        assert not controller.check(chief, "surgery/clinical_operation")
        assert not controller.check(chief, "imaging/clinical_operation")


class TestApi:
    def test_unknown_concept_raises(self, controller):
        with pytest.raises(DatabaseError):
            controller.check(User(name="u"), "no/such/concept")

    def test_permitted_leaves(self, controller):
        public = User(name="student", clearance=0)
        leaves = controller.permitted_leaves(public)
        assert "surgery/presentation" in leaves
        assert "surgery/clinical_operation" not in leaves

    def test_audit_log_records_decisions(self, controller):
        user = User(name="auditee", clearance=0)
        controller.check(user, "surgery/presentation")
        controller.check(user, "surgery/dialog")
        log = controller.audit_log
        assert len(log) == 2
        assert log[0].granted and not log[1].granted
        assert log[0].user == "auditee"
        assert "clearance" in log[1].reason
