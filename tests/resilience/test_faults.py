"""FaultPlan semantics: determinism, firing rules, corruption, arming."""

from __future__ import annotations

import ast
import re
import threading
import time
from pathlib import Path

import pytest

from repro.errors import FaultInjectedError, ReproError
from repro.resilience.faults import (
    KNOWN_FAULT_POINTS,
    NULL_PLAN,
    FaultPlan,
    FaultSpec,
    active_plan,
    corrupt_payload,
    fault_point,
    inject,
    install_plan,
)


class TestFaultSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ReproError):
            FaultSpec(point="x", kind="explosion")

    def test_rejects_bad_probability(self):
        with pytest.raises(ReproError):
            FaultSpec(point="x", probability=1.5)

    def test_rejects_bad_every_nth(self):
        with pytest.raises(ReproError):
            FaultSpec(point="x", every_nth=0)

    def test_exact_and_glob_matching(self):
        exact = FaultSpec(point="mine.audio")
        glob = FaultSpec(point="mine.*")
        assert exact.matches("mine.audio")
        assert not exact.matches("mine.cues")
        assert glob.matches("mine.cues")
        assert glob.matches("mine.audio")
        assert not glob.matches("serve.query")


class TestFaultPlan:
    def test_certain_error_fires_every_hit(self):
        plan = FaultPlan([FaultSpec(point="p")])
        for _ in range(3):
            with pytest.raises(FaultInjectedError):
                plan.hit("p")
        assert plan.hits("p") == 3
        assert plan.fired("p", "error") == 3

    def test_limit_caps_firings(self):
        plan = FaultPlan([FaultSpec(point="p", limit=2)])
        with pytest.raises(FaultInjectedError):
            plan.hit("p")
        with pytest.raises(FaultInjectedError):
            plan.hit("p")
        plan.hit("p")  # limit exhausted: no fault
        assert plan.fired("p") == 2

    def test_every_nth_is_deterministic(self):
        plan = FaultPlan([FaultSpec(point="p", every_nth=3)])
        outcomes = []
        for _ in range(9):
            try:
                plan.hit("p")
                outcomes.append(False)
            except FaultInjectedError:
                outcomes.append(True)
        assert outcomes == [False, False, True] * 3

    def test_probability_stream_is_seed_deterministic(self):
        def firing_pattern(seed):
            plan = FaultPlan([FaultSpec(point="p", probability=0.5)], seed=seed)
            pattern = []
            for _ in range(32):
                try:
                    plan.hit("p")
                    pattern.append(0)
                except FaultInjectedError:
                    pattern.append(1)
            return pattern

        assert firing_pattern(7) == firing_pattern(7)
        assert firing_pattern(7) != firing_pattern(8)
        assert 0 < sum(firing_pattern(7)) < 32

    def test_latency_fault_sleeps(self):
        plan = FaultPlan([FaultSpec(point="p", kind="latency", delay=0.05)])
        start = time.perf_counter()
        plan.hit("p")  # must not raise
        assert time.perf_counter() - start >= 0.04
        assert plan.fired("p", "latency") == 1

    def test_error_message_names_the_point(self):
        plan = FaultPlan([FaultSpec(point="p", message="boom")])
        with pytest.raises(FaultInjectedError, match="p: boom"):
            plan.hit("p")

    def test_corruption_mutates_payload_deterministically(self):
        payload = bytes(range(256))
        mutated_a = FaultPlan(
            [FaultSpec(point="p", kind="corruption")], seed=3
        ).corrupt("p", payload)
        mutated_b = FaultPlan(
            [FaultSpec(point="p", kind="corruption")], seed=3
        ).corrupt("p", payload)
        assert mutated_a != payload
        assert len(mutated_a) == len(payload)
        assert mutated_a == mutated_b  # same seed, same flips

    def test_corruption_spec_does_not_fire_on_hit(self):
        plan = FaultPlan([FaultSpec(point="p", kind="corruption")])
        plan.hit("p")  # corruption specs only act through corrupt()
        assert plan.fired("p") == 0

    def test_error_spec_does_not_corrupt(self):
        plan = FaultPlan([FaultSpec(point="p", kind="error")])
        payload = b"intact"
        assert plan.corrupt("p", payload) is payload

    def test_report_lists_points(self):
        plan = FaultPlan([FaultSpec(point="p", limit=1)])
        with pytest.raises(FaultInjectedError):
            plan.hit("p")
        assert "p" in plan.report()
        assert "1 faults fired" in plan.report()

    def test_thread_safety_of_counters(self):
        plan = FaultPlan([FaultSpec(point="p", every_nth=2)])

        def worker():
            for _ in range(100):
                try:
                    plan.hit("p")
                except FaultInjectedError:
                    pass

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert plan.hits("p") == 400
        assert plan.fired("p") == 200


class TestArming:
    def test_default_is_null_plan(self):
        assert active_plan() is NULL_PLAN
        fault_point("anything")  # must be a silent no-op
        assert corrupt_payload("anything", b"x") == b"x"

    def test_inject_scopes_the_plan(self):
        plan = FaultPlan([FaultSpec(point="p")])
        with inject(plan):
            assert active_plan() is plan
            with pytest.raises(FaultInjectedError):
                fault_point("p")
        assert active_plan() is NULL_PLAN

    def test_install_returns_previous(self):
        plan = FaultPlan()
        previous = install_plan(plan)
        assert previous is NULL_PLAN
        assert install_plan(None) is plan
        assert active_plan() is NULL_PLAN

    def test_null_plan_introspection(self):
        assert NULL_PLAN.hits("p") == 0
        assert NULL_PLAN.fired() == 0
        assert NULL_PLAN.events() == []
        assert "disarmed" in NULL_PLAN.report()


class TestCatalogue:
    """One list of fault points: the code's, the docs' and the tests'."""

    ROOT = Path(__file__).resolve().parents[2]

    def _trees(self, folder):
        for path in sorted((self.ROOT / folder).rglob("*.py")):
            if path != Path(__file__).resolve():
                yield ast.parse(path.read_text())

    def test_code_and_docs_list_the_same_points(self):
        instrumented = {
            node.args[0].value
            for tree in self._trees("src")
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) in ("fault_point", "corrupt_payload")
        }
        tables = (self.ROOT / "docs" / "RELIABILITY.md").read_text()
        documented = re.findall(r"^\| `([a-z_.]+)` \|", tables, re.MULTILINE)
        assert instrumented == set(KNOWN_FAULT_POINTS)
        assert sorted(documented) == sorted(KNOWN_FAULT_POINTS)

    def test_every_point_is_armed_by_some_other_test(self):
        # A point's name, spelled out in a test file other than this one.
        named = {
            node.value
            for tree in self._trees("tests")
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        assert set(KNOWN_FAULT_POINTS) - named == set()
