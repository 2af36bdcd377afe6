"""Kill the write path at every step it takes, then run it again.

The evidence behind "the artifact store is the only journal" (ROADMAP
3(c)): a two-title ``ingest_corpus`` runs in a child process under a
fault plan whose N-th ``hit()`` sends the child ``SIGKILL`` — once for
every fault point an uninterrupted run reaches (``ingest.mine``,
``ingest.artifact.write``, ``ingest.rebuild``, ``ingest.artifact.read``
and each ``storage.db_locked`` inside ``save_database``).  Whatever the
kill left behind, the same command run again must finish the job from
the artifacts alone: nothing that verified is mined twice, nothing
half-written is mistaken for an artifact, and the catalog comes out
row for row what an uninterrupted run writes.

The child is forked (as the executor's own pool workers are) so it
inherits the stubbed miner and pays no interpreter start per step.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal

import pytest

import repro.ingest.executor as executor
from repro.errors import ReproError
from repro.ingest.jobs import jobs_for_titles
from repro.ingest.runner import ingest_corpus, load_database, store_for
from repro.resilience.faults import FaultPlan, fault_point, install_plan
from tests.storage.test_lazy_equivalence import stored_state

TITLES = ["demo", "face_repair"]
KEYS = [job.key for job in jobs_for_titles(TITLES)]


class KillAt(FaultPlan):
    """Logs every hit to ``log``; the ``step``-th one never returns."""

    def __init__(self, step: int, log) -> None:
        super().__init__()
        self.step, self.log, self.seen = step, log, 0

    def hit(self, point: str) -> None:
        self.seen += 1
        os.write(self.log, f"{point}\n".encode())
        if self.seen == self.step:
            os.kill(os.getpid(), signal.SIGKILL)


def _child(db_dir, step: int, log_path) -> None:
    log = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    install_plan(KillAt(step, log))
    try:
        ingest_corpus(TITLES, db_dir, workers=1)
    finally:
        os._exit(0)  # never unwind into the forked copy of pytest


def _run_child(db_dir, step: int, log_path) -> int:
    process = multiprocessing.get_context("fork").Process(
        target=_child, args=(db_dir, step, log_path)
    )
    process.start()
    process.join(timeout=60)
    assert not process.is_alive()
    return process.exitcode


def _verified(store, key: str) -> bool:
    try:
        return store.verify(key)
    except ReproError:
        return False


@pytest.fixture()
def mined(demo_result, monkeypatch):
    """Mining stubbed to canned results (the fault point stays); counts calls."""
    results = {
        "demo": demo_result,
        "face_repair": dataclasses.replace(
            demo_result,
            structure=dataclasses.replace(demo_result.structure, title="face_repair"),
        ),
    }
    calls: list[str] = []

    def mine(job):
        fault_point("ingest.mine")
        calls.append(job.key)
        return results[job.title]

    monkeypatch.setattr(executor, "_mine_job", mine)
    return calls


def test_kill_at_every_step_then_resume(tmp_path, mined, capsys):
    reference = tmp_path / "uninterrupted"
    assert _run_child(reference, 0, tmp_path / "steps.log") == 0
    steps = (tmp_path / "steps.log").read_text().split()
    assert {"ingest.mine", "ingest.artifact.write", "ingest.rebuild",
            "ingest.artifact.read", "storage.db_locked"} <= set(steps)
    want = stored_state(reference)
    assert want["leaves"] and want["blocks"]

    for step, point in enumerate(steps, start=1):
        db_dir = tmp_path / f"killed-at-{step}"
        where = f"step {step} ({point})"
        assert _run_child(db_dir, step, tmp_path / f"{step}.log") == -signal.SIGKILL, where
        store = store_for(db_dir)
        landed = [key for key in KEYS if _verified(store, key)]

        del mined[:]
        report = ingest_corpus(TITLES, db_dir, workers=1)

        states = {outcome.key: outcome.state for outcome in report.outcomes}
        assert states == {key: "cached" if key in landed else "done" for key in KEYS}, where
        assert sorted(mined) == sorted(key for key in KEYS if key not in landed), where
        # A half-written ``.tmp-*`` directory is not an artifact.
        assert sorted(info.key for info in store.list()) == sorted(KEYS), where
        assert (report.registered, report.skipped) == (TITLES, []), where
        assert not (db_dir / "manifest.jsonl").exists()
        database = load_database(db_dir)
        try:
            assert sorted(database.videos) == TITLES, where
        finally:
            database.close()
        assert stored_state(db_dir) == want, where

    with capsys.disabled():
        print(f"\nkill-and-resume: {len(steps)} steps enumerated, each killed and resumed")
