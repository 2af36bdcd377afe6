"""Tests for the command-line interface."""

import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
        capsys.readouterr()

    def test_skim_level_validation(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["skim", "demo", "--level", "7"])
        capsys.readouterr()

    def test_render_requires_output(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["render", "demo"])
        capsys.readouterr()

    def test_serve_workers_is_gone_not_ignored(self, capsys):
        """A stale script fails loudly: queries run on the caller's thread."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["serve", "--db-dir", "db", "--workers", "4"])
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestCommands:
    def test_corpus_lists_titles(self, capsys):
        assert main(["corpus"]) == 0
        out = capsys.readouterr().out
        assert "face_repair" in out
        assert "demo" in out

    def test_mine_demo(self, capsys):
        assert main(["mine", "demo"]) == 0
        out = capsys.readouterr().out
        assert "hierarchy:" in out
        assert "CRF" in out

    def test_events_demo(self, capsys):
        assert main(["events", "demo"]) == 0
        out = capsys.readouterr().out
        assert "presentation" in out or "dialog" in out

    def test_evaluate_demo(self, capsys):
        assert main(["evaluate", "demo"]) == 0
        out = capsys.readouterr().out
        assert "A (ours)" in out
        assert "precision" in out

    def test_skim_demo(self, capsys):
        assert main(["skim", "demo", "--level", "2", "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "shot" in out

    def test_render_demo(self, tmp_path, capsys):
        target = tmp_path / "demo.npz"
        assert main(["render", "demo", "-o", str(target)]) == 0
        assert target.exists()
        capsys.readouterr()

    def test_unknown_title_is_an_error(self, capsys):
        assert main(["mine", "atlantis"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err

    def test_report_demo(self, tmp_path, capsys):
        target = tmp_path / "report.html"
        assert main(["report", "demo", "-o", str(target)]) == 0
        assert target.read_text().startswith("<!DOCTYPE html>")
        capsys.readouterr()

    def test_poster_demo(self, tmp_path, capsys):
        target = tmp_path / "poster.ppm"
        assert main(["poster", "demo", "-o", str(target), "--level", "4"]) == 0
        assert target.read_bytes().startswith(b"P6")
        capsys.readouterr()


class TestBlasThreads:
    """Commands that fan out over processes default BLAS to one thread each."""

    VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    UNTOUCHED = {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "4", "MKL_NUM_THREADS": None}

    def _threads(self, env):
        return {name: env.get(name) for name in self.VARS}

    @pytest.fixture
    def env(self, monkeypatch):
        """A scratch ``os.environ`` and an ingest that stops before mining."""
        import os

        from repro.errors import IngestError

        def refuse(*args, **kwargs):
            raise IngestError("stubbed out")

        monkeypatch.setattr("repro.ingest.ingest_corpus", refuse)
        scratch = {"OMP_NUM_THREADS": "4"}
        monkeypatch.setattr(os, "environ", scratch)
        return scratch

    def test_pool_ingest_sets_defaults_and_keeps_explicit_values(self, env, tmp_path, capsys):
        assert main(["ingest", "demo", "--db-dir", str(tmp_path), "--workers", "2"]) == 1
        capsys.readouterr()
        assert self._threads(env) == {
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "4",  # what the user exported wins
            "MKL_NUM_THREADS": "1",
        }

    def test_serial_ingest_leaves_the_environment_alone(self, env, tmp_path, capsys):
        assert main(["ingest", "demo", "--db-dir", str(tmp_path), "--workers", "1"]) == 1
        capsys.readouterr()
        assert self._threads(env) == self.UNTOUCHED

    def test_sharded_serve_sets_defaults(self, env, tmp_path, capsys):
        assert main(["serve", "--db-dir", str(tmp_path), "--shards", "2"]) != 0
        capsys.readouterr()
        assert self._threads(env) == dict.fromkeys(self.VARS, "1") | {"OMP_NUM_THREADS": "4"}

    def test_single_process_serve_leaves_the_environment_alone(self, env, tmp_path, capsys):
        assert main(["serve", "--db-dir", str(tmp_path)]) != 0
        capsys.readouterr()
        assert self._threads(env) == self.UNTOUCHED


@pytest.mark.parametrize("timeout", ["0", "-1", "nan", "inf"])
def test_a_bad_serving_deadline_spawns_no_worker(timeout, tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        pytest.fail("a shard worker was spawned")

    monkeypatch.setattr("repro.net.ShardCluster", refuse)
    monkeypatch.setattr(os, "environ", {})  # a sharded serve sets BLAS defaults
    argv = ["serve", "--http", "0", "--db-dir", str(tmp_path), "--shards", "2"]
    assert main(argv + ["--timeout", timeout]) == 1
    assert "default_timeout must be finite and > 0" in capsys.readouterr().err


def _stat(pid) -> list[str] | None:
    """``/proc/<pid>/stat`` after the command name (which may hold spaces): state, ppid, ..."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return None


def _children(pid: int) -> list[int]:
    return [
        int(entry.name)
        for entry in Path("/proc").iterdir()
        if entry.name.isdigit() and (fields := _stat(entry.name)) and int(fields[1]) == pid
    ]


def _alive(pid: int) -> bool:
    fields = _stat(pid)
    return fields is not None and fields[0] != "Z"


@contextlib.contextmanager
def _live_serve(db_dir, *extra: str, videos: int | None = 6):
    """``classminer serve --http 0`` over a small corpus saved into ``db_dir``
    (``videos`` None: the catalog already there): ``(process, url)``."""
    from repro.storage.sqlcatalog import save_database
    from repro.storage.synthetic import build_synthetic_database

    if videos is not None:
        save_database(build_synthetic_database(videos=videos, shots_per_video=4, seed=3), db_dir)
    serve = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--db-dir", str(db_dir),
         "--http", "0", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    try:
        for line in serve.stdout:
            if line.startswith("serving on "):
                break
        else:
            pytest.fail("serve exited before its banner")
        yield serve, line.split()[2]
    finally:
        if serve.poll() is None:
            serve.kill()
        serve.wait()
        serve.stdout.close()


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_sigterm_unwinds_sharded_serve_and_its_workers(tmp_path):
    workers: list[int] = []
    try:
        with _live_serve(tmp_path, "--shards", "2") as (serve, _url):
            workers = _children(serve.pid)
            assert len(workers) == 2
            serve.send_signal(signal.SIGTERM)
            assert serve.wait(timeout=10.0) == 0
            assert not [pid for pid in workers if _alive(pid)]
    finally:
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_sigkill_of_sharded_serve_leaves_no_worker_behind(tmp_path):
    # No handler runs on SIGKILL; the workers see their stdin pipe end.
    workers: list[int] = []
    try:
        with _live_serve(tmp_path, "--shards", "2") as (serve, _url):
            workers = _children(serve.pid)
            assert len(workers) == 2
            serve.kill()
            serve.wait()
            deadline = time.monotonic() + 2.0
            while [pid for pid in workers if _alive(pid)] and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not [pid for pid in workers if _alive(pid)]
    finally:
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)


def _tree(directory: Path) -> list[str]:
    return sorted(str(path.relative_to(directory)) for path in directory.rglob("*"))


def _identity(hit) -> tuple:
    entry = getattr(hit, "entry", hit)  # an event hit is its own entry
    return (entry.video_title, getattr(entry, "shot_id", None), entry.scene_id)


def test_a_sharded_serve_serves_the_catalog_published_now(tmp_path):
    """``serve --shards 2`` over a catalog, then the catalog republished with
    more videos and served again: skims, events and flat scans answer from
    the catalog as published now (a cut built on the first serve kept
    answering from 8 videos), and serving leaves the directory as it was."""
    from repro.net import HttpFront
    from repro.serving import QueryServer
    from repro.serving.engine import QueryRequest
    from repro.storage import load_database
    from repro.storage.sqlcatalog import save_database
    from repro.storage.synthetic import build_synthetic_database
    from repro.types import EventKind

    for videos in (8, 20):
        save_database(build_synthetic_database(videos=videos, shots_per_video=4, seed=3), tmp_path)
        published = _tree(tmp_path)
        database = load_database(tmp_path)
        reference = QueryServer(database).start()
        try:
            requests = [QueryRequest("shot_flat", probe, k=10) for probe in reference.sample_features(3)]
            requests += [QueryRequest("event", event=event) for event in EventKind.known_kinds()]
            with _live_serve(tmp_path, "--shards", "2", videos=None) as (serve, url):
                front = HttpFront(url)
                for request in requests:
                    mine, theirs = front.query(request), reference.query(request)
                    assert [_identity(hit) for hit in mine.hits] == [_identity(hit) for hit in theirs.hits]
                    assert not mine.degraded
                titles = sorted(reference.records())
                assert len(titles) == videos
                for title in titles:  # every record, through the skim endpoint
                    assert front._call("GET", f"/skim/{title}")["video_id"] == title
                serve.send_signal(signal.SIGTERM)
                assert serve.wait(timeout=10.0) == 0
        finally:
            reference.stop()
            database.close()
        assert _tree(tmp_path) == published


def test_obs_slow_lists_what_a_live_gateway_answered(tmp_path, capsys):
    from repro.net import HttpFront
    from repro.serving.engine import QueryRequest

    with pytest.raises(SystemExit):  # the slow log it reads is a server's, never its own
        main(["obs", "slow"])
    assert "--url" in capsys.readouterr().err
    with _live_serve(tmp_path) as (_serve, url):
        front = HttpFront(url)
        answer = front.query(QueryRequest("shot", front.sample_features(1)[0], k=3))
        assert main(["obs", "slow", "--url", url]) == 0
        out = capsys.readouterr().out
        assert f"{url}/debug/slow: 1 queries recorded" in out
        (row,) = [line.split() for line in out.splitlines() if " shot " in line]
        assert row[1:4] == ["shot", "single", str(answer.comparisons)]
