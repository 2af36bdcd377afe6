"""Where things live, and the environment every child process gets."""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
#: Everything the benchmark writes (results, traces, scratch dirs) goes here;
#: the root ``.gitignore`` names it.
RESULTS = HERE / "results"

#: One BLAS/OpenMP thread per process: on a 2-CPU host the server, its
#: workers and the generator must not each grab every core.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap() -> None:
    """Make ``repro`` importable here and in children, or exit non-zero.

    The program under test is the repo's ``src/repro``; a directory
    holding only the benchmark has nothing to measure.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"benchmarks.e2e: no program under test at {SRC / 'repro'}\n")
        raise SystemExit(2)
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    parts = [str(SRC), str(ROOT)]
    existing = os.environ.get("PYTHONPATH", "")
    parts += [p for p in existing.split(os.pathsep) if p and p not in parts]
    os.environ["PYTHONPATH"] = os.pathsep.join(parts)
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
