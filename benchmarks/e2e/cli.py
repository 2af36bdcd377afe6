"""``python -m benchmarks.e2e``: run, compare, selftest.

``run`` is the set-up process.  Per workload it starts the host clock
(:mod:`hostclock`), prepares the seeded inputs (timed: ``setup_s``),
hands them to a fresh measuring process (:mod:`measure`), verifies what
that process was answered (:mod:`verify`), corrects every timing by the
host's speed while it was taken, prints every metric as ``workload
metric value unit`` and writes ``results/latest.json``.  With one workload the last line of
standard output is the result object the driver reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.e2e import paths, spec, stats
from benchmarks.e2e.hostclock import HostClock

#: A measuring process that runs longer than this is killed (the driver allows 180 s a run).
CHILD_TIMEOUT = 150.0


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def timing_plan(seconds: float, quick: bool, trace: int) -> dict:
    """How ``--seconds`` is spent: rounds of the closed loop, warm-up, open-loop share."""
    if quick:
        seconds = 1.0
    rounds, round_len = spec.window(seconds)
    return {
        "seconds": seconds,
        "quick": quick,
        "trace": trace,
        "rounds": rounds,
        "round_len": round_len,
        "warm_s": spec.WARM_SHARE * seconds,
        "results": str(paths.RESULTS),
    }


def hot_plan(plan: dict) -> dict:
    """``http_hot`` splits the window: 60 % closed loop (3 rounds), 40 % open loop."""
    closed = 0.6 * plan["seconds"]
    rounds = 1 if plan["quick"] else 3
    return dict(plan, rounds=rounds, round_len=closed / rounds, open_s=0.4 * plan["seconds"])


def run_child(work: Path) -> dict:
    """Measure in a fresh interpreter and process group; whatever happens, nothing of it survives."""
    with open(work / "child.log", "wb") as log:
        child = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e", "child", str(work)],
            stdout=log,
            stderr=log,
            # Its own process group, for the kill below — but not its own session: the
            # kernel shares CPUs between sessions first (autogroup), and the host clock's
            # idle-priority spinners only yield to what sits in the same session as they do.
            process_group=0,
        )
    try:
        code = child.wait(timeout=CHILD_TIMEOUT)
    finally:
        from benchmarks.e2e import procs

        procs.kill_group(child.pid)
        child.wait()
    if code != 0:
        tail = (work / "child.log").read_text(errors="replace")[-4000:]
        raise RuntimeError(f"measuring process exited with code {code}:\n{tail}")
    return json.loads((work / "result.json").read_text())


def check_answers(workload: spec.Workload, plan: dict, database, result: dict) -> dict:
    """Compare the recorded answers with the oracle's; returns counts and the recall."""
    import numpy as np

    from benchmarks.e2e import inputs, verify

    ops = dict(np.load(Path(plan["dir"]) / "ops.npz"))
    problems: list[str] = []
    if workload.backend == "ingest":
        from repro.database.catalog import VideoDatabase
        from repro.ingest import store_for

        store = store_for(plan["db_dir"])
        database = VideoDatabase()
        database.register_bulk(store.load(key) for key in plan["job_keys"])
        want = {title: list(value) for title, value in verify.MINED_FINGERPRINT.items()}
        got = {title: list(value) for title, value in result["fingerprint"].items()}
        problems += [f"fingerprint of {t}: {got.get(t)} != {want[t]}" for t in want if got.get(t) != want[t]]
        if result["cold_states"] != ["done"] * len(want):
            problems.append(f"cold ingest states {result['cold_states']}")
        if result["warm_states"] != ["cached"] * len(want):
            problems.append(f"warm ingest states {result['warm_states']}")
    oracles: dict[int, verify.Oracle] = {}

    def oracle_for(generation: int) -> verify.Oracle:
        # sql_refresh: generation g serves the corpus grown by GROW_VIDEOS x (g - 1).
        if workload.backend != "sql_refresh":
            generation = 1
        if generation not in oracles:
            grown = database if generation == 1 else inputs.build_corpus(
                workload.videos + spec.GROW_VIDEOS * (generation - 1), plan["corpus_seed"]
            )
            oracles[generation] = verify.Oracle(grown)
        return oracles[generation]

    recalls, wrong = [], len(problems)
    for answer in result["answers"]:
        op = answer["op"]
        kind = spec.KINDS[ops["kinds"][op]]
        want_rows = oracle_for(answer["generation"]).answer(kind, ops["probes"][op], int(ops["event_args"][op]))
        if kind != "event":
            recalls.append(verify.recall_at_k(answer["rows"], want_rows))
        if workload.backend != "ann" and not verify.same_answer(kind, answer["rows"], want_rows):
            wrong += 1
            if len(problems) < 5:
                problems.append(f"op {op} ({kind}, generation {answer['generation']}): {answer['rows'][:2]} != {want_rows[:2]}")
    return {
        "checked": len(result["answers"]),
        "wrong": wrong,
        "recall": sum(recalls) / len(recalls) if recalls else 0.0,
        "problems": problems,
    }


def assemble(clock: HostClock, setup: list[float], result: dict, verdict: dict) -> dict:
    """Every metric this run measured, by name; ``attempted`` / ``failed`` across all phases.

    Each timing is divided by the host clock's factor over the interval
    it was taken in — the closed loop round by round, then the median
    round — and kept as the wall clock read it under ``uncorrected``.
    """
    window = result.get("window", {"attempted": 0, "failed": 0})  # mine_ingest has none
    open_ = result.get("open", {})
    attempted = window["attempted"] + verdict["checked"] + result["failed_checks"] + open_.get("attempted", 0)
    failed = window["failed"] + verdict["wrong"] + result["failed_checks"] + open_.get("failed", 0)
    metrics = {
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_share": 1.0 - failed / attempted,
        "recall_at_10": verdict["recall"],
        "failed_share": failed / attempted,
    }
    uncorrected: dict[str, float] = {}

    def timing(name: str, spans: list[tuple], rate: bool = False) -> None:
        """Median over ``(start, end, value)`` spans, each value corrected by its own span's factor."""
        factors = [clock.factor(start, end) for start, end, _value in spans]
        uncorrected[name] = stats.median([value for _start, _end, value in spans])
        metrics[name] = stats.median(
            [value * f if rate else value / f for (_start, _end, value), f in zip(spans, factors)]
        )

    def lasted(interval: list[float]) -> tuple:
        return interval[0], interval[1], interval[1] - interval[0]

    timing("setup_s", [lasted(setup)])
    timing("first_answer_s", [lasted(result["first_answer"])])
    if "rounds" in window:
        rounds = window["rounds"]
        timing("query_qps", [(r["start"], r["end"], r["ok"] / (r["end"] - r["start"])) for r in rounds], rate=True)
        timing("query_p50_ms", [(r["start"], r["end"], r["p50_ms"]) for r in rounds])
        timing("query_p95_ms", [(r["start"], r["end"], r["p95_ms"]) for r in rounds])
        metrics.update({
            "serving.cache_hit_rate": window["cache_hit_rate"],
            "loadgen.p99_ms": window["p99_ms"],
            "loadgen.round_mad_pct": window["round_mad_pct"],
            "loadgen.samples": float(window["samples"]),
        })
    if open_:
        timing("sched_p95_ms", [(*open_["interval"], open_["sched_p95_ms"])])
        metrics["loadgen.lag_p95_ms"] = open_["lag_p95_ms"]
    if "publish_lags" in result:
        timing("publish_lag_s", [lasted(lag) for lag in result["publish_lags"]])
        metrics["storage.save_s"] = stats.median([p["save_s"] for p in result["publishes"]])
        metrics["serving.refresh_s"] = stats.median([p["refresh_s"] for p in result["publishes"]])
    if "cold" in result:
        videos = len(result["cold_states"])
        timing("ingest_videos_per_s", [(*result["cold"], videos / (result["cold"][1] - result["cold"][0]))], rate=True)
        timing("reingest_s", [lasted(result["warm"])])
    metrics.update(result.get("layers", {}))
    return {"metrics": metrics, "uncorrected": uncorrected, "attempted": attempted, "failed": failed}


def run_workload(workload: spec.Workload, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    from benchmarks.e2e import inputs

    plan = timing_plan(seconds, quick, trace)
    if workload.probes == "hot":
        plan = hot_plan(plan)
    work = paths.RESULTS / f"work-{os.getpid()}-{workload.name}"
    shutil.rmtree(work, ignore_errors=True)
    clock = HostClock(paths.RESULTS / f"hostclock-{os.getpid()}.npy")
    try:
        began = time.perf_counter()
        inputs.load_program()
        full_plan, database = inputs.prepare(workload, seed, plan, work)
        setup = [began, time.perf_counter()]
        result = run_child(work)
        measured = time.perf_counter()
        clock.stop()
        verdict = check_answers(workload, full_plan, database, result)
        out = assemble(clock, setup, result, verdict)
        out["metrics"]["host.speed_factor"] = clock.factor(setup[0], measured)
        out.update(
            workload=workload.name,
            seed=seed,
            stream_sha=result.get("stream_sha", full_plan.get("stream_sha")),
            correct=verdict["wrong"] == 0,
            problems=verdict["problems"] + result.get("window", {}).get("errors", []),
            wall_s={
                "setup": setup[1] - setup[0],
                "measure": measured - setup[1],
                "verify": time.perf_counter() - measured,
            },
        )
        return out
    finally:
        clock.stop()
        shutil.rmtree(work, ignore_errors=True)


def host_facts() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown"
    if (paths.ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(paths.ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "loadavg_1m_at_start": os.getloadavg()[0],
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def emit(run: dict, trace: int) -> dict:
    """The driver's result object: exactly the metric list the trace mode names.

    A metric whose home excludes this workload reads 0 (not on this
    path); one the workload should have measured and did not is an error.
    """
    wanted = spec.TRACED if trace else spec.END_TO_END
    metrics = {}
    for m in wanted:
        if m.name in run["metrics"]:
            value = float(run["metrics"][m.name])
        elif spec.measured_on(m, run["workload"]):
            raise RuntimeError(f"{run['workload']} produced no value for {m.name}")
        else:
            value = 0.0
        metrics[m.name] = {"value": value, "unit": m.unit}
    return {"correct": run["correct"], "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}


def print_run(run: dict) -> None:
    for metric in spec.ALL_METRICS:
        if metric.name in run["metrics"]:
            print(f"{run['workload']} {metric.name} {run['metrics'][metric.name]:.6g} {metric.unit}")
    for problem in run["problems"]:
        print(f"{run['workload']} WRONG {problem}")
    walls = " ".join(f"{phase}={seconds:.1f}s" for phase, seconds in run["wall_s"].items())
    print(f"{run['workload']} wall {walls}", file=sys.stderr)


def cmd_run(args: argparse.Namespace) -> int:
    began = time.perf_counter()
    host = host_facts()
    names = [w.name for w in spec.WORKLOADS] if args.workload == "all" else [args.workload]
    runs = []
    for _ in range(args.repeat):
        for name in names:
            run = run_workload(spec.WORKLOAD_BY_NAME[name], args.seed, args.seconds, args.trace, args.quick)
            print_run(run)
            runs.append(run)
    host["total_wall_s"] = time.perf_counter() - began
    document = {
        "schema": 1,
        "host": host,
        "args": {"seed": args.seed, "seconds": args.seconds, "trace": args.trace, "quick": args.quick},
        "runs": runs,
        "claim": None,
    }
    for target in [paths.RESULTS / "latest.json"] + ([Path(args.out)] if args.out else []):
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(document, indent=1) + "\n")
    if args.trajectory:
        line = {
            "git_sha": host["git_sha"],
            "host": f"{host['cpu']} x{host['nproc']} py{host['python']} np{host['numpy']}",
            "seed": args.seed,
            "seconds": args.seconds,
            "quick": args.quick,
            "runs": [
                {
                    "workload": r["workload"],
                    **{
                        m.name: r["metrics"][m.name]
                        for m in spec.END_TO_END + spec.UNGATED_END_TO_END
                        if m.name in r["metrics"]
                    },
                }
                for r in runs
            ],
        }
        with open(args.trajectory, "a") as handle:
            handle.write(json.dumps(line) + "\n")
    if len(runs) == 1:
        print(json.dumps(emit(runs[0], args.trace)))
    else:
        print(json.dumps({"workloads": len(runs), "failed": sum(r["failed"] for r in runs), "claim": None}))
    return 0 if all(r["correct"] for r in runs) else 1


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def _grouped(path: str) -> dict[tuple[str, str], list[float]]:
    document = json.loads(Path(path).read_text())
    grouped: dict[tuple[str, str], list[float]] = {}
    for run in document["runs"]:
        for name, value in run["metrics"].items():
            grouped.setdefault((run["workload"], name), []).append(value)
    return grouped


def verdict_for(metric: spec.Metric, a: list[float], b: list[float]) -> tuple[float, str]:
    """How much worse B's median is than A's (share of A's), and what that means.

    ``unresolved`` — not ``unchanged`` — when either side's own
    run-to-run spread exceeds the bound, unless every B run beats every A run.
    """
    mid_a, mid_b = stats.median(a), stats.median(b)
    sign = 1.0 if metric.better == "lower" else -1.0
    worse = sign * (mid_b - mid_a) / abs(mid_a) if mid_a else (0.0 if mid_b == mid_a else sign * float("inf"))
    better_all = (max(b) < min(a)) if metric.better == "lower" else (min(b) > max(a))
    if len(a) > 1 and len(b) > 1 and max(stats.spread(a), stats.spread(b)) > metric.bound:
        return worse, "improved" if better_all else "unresolved"
    return worse, "regressed" if worse > metric.bound else "ok"


def cmd_compare(args: argparse.Namespace) -> int:
    a, b = _grouped(args.a), _grouped(args.b)
    print("workload metric unit | A median [q1 q3] n | B median [q1 q3] n | B worse by (bound) | verdict")
    regressed = False
    for workload in spec.WORKLOADS:
        for metric in spec.END_TO_END + spec.UNGATED_END_TO_END:
            key = (workload.name, metric.name)
            if key not in a or key not in b or not spec.measured_on(metric, workload.name):
                continue
            qa, qb = stats.quartiles(a[key]), stats.quartiles(b[key])
            worse, verdict = verdict_for(metric, a[key], b[key])
            regressed |= verdict == "regressed"
            print(
                f"{workload.name} {metric.name} {metric.unit} | "
                f"{qa[1]:.6g} [{qa[0]:.6g} {qa[2]:.6g}] {len(a[key])} | "
                f"{qb[1]:.6g} [{qb[0]:.6g} {qb[2]:.6g}] {len(b[key])} | "
                f"{100 * worse:+.2f}% of A's {qa[1]:.6g} ({100 * metric.bound:g}%) | {verdict}"
            )
    return 1 if regressed else 0


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one workload or all of them")
    run.add_argument("--workload", default="all", choices=["all"] + [w.name for w in spec.WORKLOADS])
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS), help="measured window per workload")
    run.add_argument("--trace", type=int, default=1, choices=(0, 1), help="1 adds the traced pass and per-layer probes")
    run.add_argument("--quick", action="store_true", help="1 round of 1 s: smoke only, never for numbers")
    run.add_argument("--repeat", type=int, default=1, help="run everything N times (for compare)")
    run.add_argument("--out", help="also write the result document here")
    run.add_argument("--trajectory", help="append one line (git SHA + host + end-to-end numbers) here")
    run.set_defaults(func=cmd_run)
    compare = sub.add_parser("compare", help="two result documents, metric by metric against the bounds")
    compare.add_argument("a")
    compare.add_argument("b")
    compare.set_defaults(func=cmd_compare)
    selftest = sub.add_parser("selftest", help="check the benchmark itself (< 20 s)")
    selftest.set_defaults(func=lambda _args: __import__("benchmarks.e2e.selftest", fromlist=["main"]).main())
    clock = sub.add_parser("hostclock", help=argparse.SUPPRESS)
    clock.add_argument("out")
    clock.set_defaults(func=lambda args: __import__("benchmarks.e2e.hostclock", fromlist=["main"]).main(args.out))
    child = sub.add_parser("child", help=argparse.SUPPRESS)
    child.add_argument("plan_dir")
    child.set_defaults(func=lambda args: __import__("benchmarks.e2e.measure", fromlist=["main"]).main(args.plan_dir))
    stub = sub.add_parser("stub", help=argparse.SUPPRESS)
    stub.set_defaults(func=lambda _args: __import__("benchmarks.e2e.stub", fromlist=["main"]).main())
    return parser


def _terminate(_signum, _frame):
    raise SystemExit(143)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command not in ("stub", "hostclock"):
        paths.bootstrap()
    # SIGTERM unwinds like Ctrl-C, so every ``finally`` (kill the group, drop the scratch dir) runs.
    signal.signal(signal.SIGTERM, _terminate)
    return args.func(args)
