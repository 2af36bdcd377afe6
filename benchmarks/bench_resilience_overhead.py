"""Fault-hook overhead benchmark: the zero-cost-when-disabled contract.

The resilience layer's contract mirrors the obs layer's: with the
default :data:`~repro.resilience.faults.NULL_PLAN` installed, every
``fault_point`` site is one module-global read plus a no-op method
call.  This bench measures that contract on the full demo mine plus a
burst of served queries:

1. **stubbed** — every ``fault_point`` call site patched to a bare
   no-op function: the hypothetical uninstrumented build.
2. **disarmed** — the shipped default (``NULL_PLAN`` dispatch).
3. **armed-idle** — a live :class:`~repro.resilience.faults.FaultPlan`
   whose specs never match, so every hit pays the plan's lock-and-match
   bookkeeping but no fault fires (informative: the price of running
   *under chaos*, which the contract does not bound).

The disarmed run must stay within ``MAX_OVERHEAD`` (5%) of the stubbed
run, the ISSUE acceptance criterion.  Wall-clock is best-of-``ROUNDS``;
results land in ``benchmarks/results/resilience_overhead.txt`` plus
machine-readable ``benchmarks/results/BENCH_resilience.json``.
"""

from __future__ import annotations

import json
import time

from benchmarks.conftest import RESULTS_DIR, save_result
from repro.core import ClassMiner
from repro.database.catalog import VideoDatabase
from repro.evaluation.report import render_table
from repro.resilience.faults import NULL_PLAN, FaultPlan, FaultSpec, install_plan
from repro.serving.server import QueryRequest, QueryServer, ServerConfig
from repro.video.synthesis import demo_screenplay, generate_video

#: Acceptance ceiling for disarmed fault-hook overhead (ISSUE criterion).
MAX_OVERHEAD = 0.05

#: Best-of rounds per configuration.
ROUNDS = 5

#: Served queries per measured round.
QUERIES = 200

#: Modules that imported ``fault_point`` by name (the patchable sites).
_HOOK_MODULES = (
    "repro.core.structure",
    "repro.core.pipeline",
    "repro.ingest.executor",
    "repro.ingest.artifacts",
    "repro.ingest.runner",
    "repro.serving.engine",
    "repro.serving.snapshot",
)


def _best_of(fn, rounds: int = ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _patch_hooks(stub):
    """Swap every call site's ``fault_point`` binding; returns an undo."""
    import importlib

    originals = []
    for name in _HOOK_MODULES:
        module = importlib.import_module(name)
        originals.append((module, module.fault_point))
        module.fault_point = stub

    def undo():
        for module, original in originals:
            module.fault_point = original

    return undo


def test_resilience_overhead(results_dir) -> None:
    """NULL_PLAN dispatch must cost < 5% over hook-free call sites."""
    video = generate_video(demo_screenplay(), seed=0)
    miner = ClassMiner()
    result = miner.mine(video.stream)  # warm steady state

    database = VideoDatabase()
    database.register(result)
    idle = FaultPlan([FaultSpec(point="bench.never", kind="error")], seed=0)

    with QueryServer(
        database, ServerConfig(workers=2, watchdog_interval=None)
    ) as server:
        features = server.manager.current().flat.entries[0].features
        request = QueryRequest(kind="shot", features=features, k=5)

        def workload():
            miner.mine(video.stream)
            for _ in range(QUERIES):
                server.query(request)

        workload()  # warm both paths once

        undo = _patch_hooks(lambda _name: None)
        try:
            stubbed = _best_of(workload)
        finally:
            undo()

        install_plan(NULL_PLAN)
        disarmed = _best_of(workload)

        previous = install_plan(idle)
        try:
            armed = _best_of(workload)
        finally:
            install_plan(previous)

    hits = sum(idle.hits(point) for point in ("mine.shots", "serve.query"))
    overhead = disarmed / stubbed - 1.0
    armed_overhead = armed / stubbed - 1.0

    rows = [
        ["stubbed (no hooks)", f"{stubbed * 1e3:.2f}", "-"],
        ["disarmed (NULL_PLAN)", f"{disarmed * 1e3:.2f}", f"{overhead * 100:+.2f}%"],
        [
            "armed-idle (FaultPlan)",
            f"{armed * 1e3:.2f}",
            f"{armed_overhead * 100:+.2f}%",
        ],
    ]
    text = render_table(
        ["configuration", "best-of-5 ms", "overhead"],
        rows,
        title=(
            f"fault-hook overhead on demo mine + {QUERIES} queries "
            f"(disarmed ceiling {MAX_OVERHEAD:.0%})"
        ),
    )
    save_result(results_dir, "resilience_overhead", text)
    (RESULTS_DIR / "BENCH_resilience.json").write_text(
        json.dumps(
            {
                "pipeline": f"ClassMiner.mine(demo) + {QUERIES} served queries",
                "rounds": ROUNDS,
                "sampled_point_hits": hits,
                "stubbed_seconds": stubbed,
                "disarmed_seconds": disarmed,
                "armed_idle_seconds": armed,
                "disarmed_overhead_fraction": overhead,
                "armed_idle_overhead_fraction": armed_overhead,
                "max_overhead_fraction": MAX_OVERHEAD,
            },
            indent=2,
        )
        + "\n"
    )

    assert hits > 0, "the armed plan never saw a fault point; bench is broken"
    assert overhead < MAX_OVERHEAD, (
        f"disarmed fault-hook overhead {overhead:.1%} exceeds the "
        f"{MAX_OVERHEAD:.0%} ceiling (stubbed {stubbed * 1e3:.2f}ms, "
        f"disarmed {disarmed * 1e3:.2f}ms)"
    )
