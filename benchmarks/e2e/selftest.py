"""Checks on the benchmark itself: ``python -m benchmarks.e2e selftest`` (< 20 s).

Each ``check_*`` raises ``AssertionError`` with what is wrong;
``test_selftest.py`` collects the same functions under pytest.
"""

from __future__ import annotations

import ast
import json
import os
import re
import signal
import subprocess
import sys
import time

from benchmarks.e2e import paths, spec, stats

_SOURCES = ("cli.py", "measure.py", "layers.py")
_FILE_SUFFIXES = ("log", "json", "jsonl", "npz", "npy")


def check_names() -> None:
    """Names, units and counts stay inside the driver's limits."""
    names = [w.name for w in spec.WORKLOADS] + [m.name for m in spec.ALL_METRICS]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert spec.NAME_RE.match(name), f"bad name {name!r}"
    for metric in spec.ALL_METRICS:
        assert spec.UNIT_RE.match(metric.unit), f"bad unit {metric.unit!r} on {metric.name}"
        assert metric.better in ("lower", "higher"), metric.name
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert 1 <= len(spec.END_TO_END) <= 16
    assert 1 <= len(spec.TRACED) <= 128
    for metric in spec.END_TO_END + spec.UNGATED_END_TO_END:
        # The issue's rule: a metric that does not repeat is lengthened or demoted, never bounded past 0.15.
        assert metric.bound is not None and 0 <= metric.bound <= 0.15, metric.name
    for metric in spec.END_TO_END:
        assert not metric.home, f"{metric.name}: every workload reports every end-to-end metric"
    setup = spec.METRIC_BY_NAME["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in spec.END_TO_END), "setup_s takes the largest bound"
    for workload in spec.WORKLOADS:
        assert len(workload.why) <= 200 and "\n" not in workload.why, workload.name
        assert abs(sum(workload.mix.values()) - 1.0) < 1e-9, workload.name
    for metric in spec.TRACED:
        assert all(home in spec.WORKLOAD_BY_NAME for home in metric.home), metric.name


def check_benchmark_json() -> None:
    """The root ``BENCHMARK.json`` is exactly what ``spec`` describes."""
    path = paths.ROOT / "BENCHMARK.json"
    raw = path.read_bytes()
    assert len(raw) <= 64 * 1024
    document = json.loads(raw)
    assert set(document) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert document == spec.benchmark_json(), "BENCHMARK.json drifted from spec.py"
    assert isinstance(document["run_seconds"], int) and 1 <= document["run_seconds"] <= 60
    for directory in document["paths"]:
        assert (paths.ROOT / directory).is_dir() and (paths.ROOT / directory).resolve() == paths.HERE


def check_emitted_names() -> None:
    """What a run emits and what ``BENCHMARK.json`` lists agree both ways."""
    from benchmarks.e2e import cli

    for workload in spec.WORKLOADS:
        measured = {m.name: 2.5 for m in spec.ALL_METRICS if spec.measured_on(m, workload.name)}
        fake = {"workload": workload.name, "correct": True, "attempted": 1, "failed": 0, "metrics": measured}
        for trace, wanted in ((0, spec.END_TO_END), (1, spec.TRACED)):
            emitted = cli.emit(fake, trace)
            assert set(emitted) == {"correct", "attempted", "failed", "metrics"}
            assert list(emitted["metrics"]) == [m.name for m in wanted]
            for metric in wanted:
                # Off this workload's path reads 0; on it, the measured value.
                value = 2.5 if spec.measured_on(metric, workload.name) else 0.0
                assert emitted["metrics"][metric.name] == {"value": value, "unit": metric.unit}
        # A home workload that measured nothing is an error, never a silent 0.
        for trace, lost in ((0, "setup_s"), (1, "publish_lag_s" if workload.name == "sql_refresh" else "first_answer_s")):
            broken = dict(fake, metrics={k: v for k, v in measured.items() if k != lost})
            try:
                cli.emit(broken, trace)
            except RuntimeError:
                continue
            raise AssertionError(f"{workload.name}: emit filled in a missing {lost}")
    # Every metric-shaped string the measuring code writes is a declared
    # name, and every declared name is written somewhere.
    literals = set()
    for name in _SOURCES:
        tree = ast.parse((paths.HERE / name).read_text())
        literals |= {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    layers_ = {m.name.split(".")[0] for m in spec.PER_LAYER}
    shaped = {
        text for text in literals
        if re.fullmatch(r"[a-z]+\.[a-z0-9_]+", text)
        and text.split(".")[0] in layers_
        and text.split(".")[1] not in _FILE_SUFFIXES
    }
    unknown = shaped - set(spec.METRIC_BY_NAME)
    assert not unknown, f"emitted but not declared: {sorted(unknown)}"
    missing = set(spec.METRIC_BY_NAME) - literals
    assert not missing, f"declared but never emitted: {sorted(missing)}"


def check_streams() -> None:
    """Same seed, same stream; another seed, another stream."""
    import numpy as np

    from benchmarks.e2e import inputs

    features = np.random.default_rng(5).random((4000, 266))
    for workload in spec.WORKLOADS:
        first = inputs.stream_sha(inputs.draw_ops(workload, 0, features, 300))
        again = inputs.stream_sha(inputs.draw_ops(workload, 0, features, 300))
        other = inputs.stream_sha(inputs.draw_ops(workload, 1, features, 300))
        assert first == again, f"{workload.name}: seed 0 drew two different streams"
        assert first != other, f"{workload.name}: seeds 0 and 1 drew the same stream"


def check_stats() -> None:
    """Percentile, spread and self-time helpers against hand-computed cases."""
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 95) == 5.0
    assert stats.percentile(values, 20) == 1.0
    assert stats.percentile(list(range(1, 101)), 95) == 95
    assert stats.percentile([], 50) == 0.0
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert stats.quartiles([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]) == (2.0, 4.0, 6.0)
    assert stats.spread([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]) == 1.0
    assert stats.mad_pct([90.0, 100.0, 120.0]) == 10.0
    peeled = [("http", 10.0), ("backend.query", 7.0), ("snapshot.search", 6.5), ("kernel", 2.0)]
    assert stats.self_times(peeled) == {
        "http": 3.0, "backend.query": 0.5, "snapshot.search": 4.5, "kernel": 2.0,
    }
    assert stats.self_times([("outer", 1.0), ("inner", 1.2)]) == {"outer": 0.0, "inner": 1.2}
    assert spec.window(6) == (3, 2.0) and spec.window(15) == (5, 3.0) and spec.window(1) == (1, 1.0)


def check_compare() -> None:
    """``compare`` says ``unresolved`` when the spread hides the bound, never ``unchanged``."""
    from benchmarks.e2e import cli

    qps = spec.METRIC_BY_NAME["query_qps"]  # higher is better, bound 0.10
    assert cli.verdict_for(qps, [100, 101, 99], [98, 99, 100])[1] == "ok"
    assert cli.verdict_for(qps, [100, 101, 99], [80, 81, 79])[1] == "regressed"
    assert cli.verdict_for(qps, [100, 140, 60], [90, 130, 50])[1] == "unresolved"
    assert cli.verdict_for(qps, [100, 140, 60], [150, 190, 141])[1] == "improved"
    worse, _ = cli.verdict_for(qps, [100.0], [90.0])
    assert abs(worse - 0.10) < 1e-12


def check_readme() -> None:
    """The README names every workload and every metric."""
    text = (paths.HERE / "README.md").read_text()
    missing = [n for n in [w.name for w in spec.WORKLOADS] + [m.name for m in spec.ALL_METRICS]
               if f"`{n}`" not in text]
    assert not missing, f"README.md does not mention: {missing}"


def check_hostclock() -> None:
    """The host clock samples, answers with a factor, and dies with its owner — spinners too."""
    from benchmarks.e2e.hostclock import PERIOD, HostClock

    out = paths.RESULTS / f"hostclock-selftest-{os.getpid()}.npy"
    clock = HostClock(out)
    began = time.perf_counter()
    try:
        time.sleep(0.3)
        assert len(_processes_naming(out.name)) == 1 + len(os.sched_getaffinity(0)), "sampler plus one spinner a CPU"
    finally:
        clock.stop()
    assert not _processes_naming(out.name) and not out.exists()
    assert 0.2 < clock.factor(began, began + 0.3) < 20.0
    assert clock.factor(began + 0.2, began + 0.2 + PERIOD / 10) > 0, "an interval that falls between two samples"
    # Killed outright, the owner cannot clean up: the kernel does it.
    script = (
        "import sys, time; from pathlib import Path; from benchmarks.e2e.hostclock import HostClock; "
        "HostClock(Path(sys.argv[1])); print('UP', flush=True); time.sleep(60)"
    )
    owner = subprocess.Popen([sys.executable, "-c", script, str(out)], cwd=paths.ROOT, stdout=subprocess.PIPE)
    try:
        assert owner.stdout.readline().strip() == b"UP"
        assert _processes_naming(out.name)
    finally:
        owner.kill()
        owner.wait()
        owner.stdout.close()
    deadline = time.perf_counter() + 5
    while _processes_naming(out.name) and time.perf_counter() < deadline:
        time.sleep(0.05)
    left = _processes_naming(out.name)
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    out.with_suffix(".log").unlink(missing_ok=True)
    assert not left, "the host clock outlived its owner"


def _processes_naming(marker: str) -> dict[int, bytes]:
    """Command lines of the other processes that mention ``marker``, by pid."""
    found = {}
    for name in os.listdir("/proc"):
        if name.isdigit() and int(name) != os.getpid():
            try:
                with open(f"/proc/{name}/cmdline", "rb") as handle:
                    cmdline = handle.read()
            except OSError:
                continue  # gone between listing and reading
            if marker.encode() in cmdline:
                found[int(name)] = cmdline
    return found


def check_abort() -> None:
    """A run killed mid-workload leaves no process (so no listening port) and no scratch dir."""
    runner = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--workload", "http_hot", "--quick", "--trace", "0"],
        cwd=paths.ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    marker = f"-{runner.pid}"  # its scratch directory and its host clock both carry the pid
    try:
        # Abort once the HTTP server is up: the deepest process the run starts.
        deadline = time.perf_counter() + 30
        while time.perf_counter() < deadline and runner.poll() is None:
            if any(b"repro.cli" in cmdline for cmdline in _processes_naming(marker).values()):
                break
            time.sleep(0.05)
        assert runner.poll() is None, "the run ended before it could be aborted"
        runner.send_signal(signal.SIGTERM)
        runner.wait(timeout=20)
    finally:
        if runner.poll() is None:
            runner.kill()
            runner.wait()
    deadline = time.perf_counter() + 5
    while _processes_naming(marker) and time.perf_counter() < deadline:
        time.sleep(0.05)
    assert not _processes_naming(marker), "the aborted run left a process behind"
    left = [path.name for path in paths.RESULTS.iterdir() if marker in path.name]
    assert not left, f"the aborted run left {left} behind"


CHECKS = (check_names, check_benchmark_json, check_emitted_names, check_streams, check_stats,
          check_compare, check_readme, check_hostclock, check_abort)


def main() -> int:
    began = time.perf_counter()
    failed = 0
    for check in CHECKS:
        try:
            check()
            print(f"ok   {check.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc}")
    print(f"selftest: {len(CHECKS) - failed}/{len(CHECKS)} checks passed in {time.perf_counter() - began:.1f}s")
    return 1 if failed else 0
