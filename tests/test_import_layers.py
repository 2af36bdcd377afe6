"""The import graph follows the architecture (DESIGN.md §3).

A serving process — the gateway, a shard worker, ``classminer serve`` —
must not load the mining stack to start: ~70 modules it never calls
(~0.08 s and ~8 MiB a process now; 1.3 s and ~70 MiB while ``scipy``
came with them).  Each query-stack module is imported in a fresh
interpreter here and must leave ``sys.modules`` free of the miners,
``networkx`` and ``asyncio`` (the gateway ran on a loop until PR 21; it
cost every serving process, shard workers included, ~1.5 MiB and ~35 ms
to import).  The ingest front — planning jobs, their keys, the artifact
cache checks and the catalog publish — is held to the same rule: a warm
ingest loads no miner (it loaded 63 more modules, ~0.12 s and ~5 MiB,
while the job keys came from the miner's own modules); only a process
that mines a job imports it.  ``scipy`` is forbidden to the whole
program, miners included: numpy is the only runtime dependency.  The
lazily exporting packages keep their public surface: same ``__all__``,
every name resolves, star imports work.  No linter runs here (neither
``pyflakes`` nor ``ruff`` is installed), so an ``ast`` pass also refuses
an import nothing in its module uses — in ``src/``, the tests, the
examples and the paper benchmarks alike — and a module nothing that runs
imports: every file under ``src/repro/`` must be reachable from the CLI,
a ``python -m`` entry point, a benchmark or an example.  One level down,
every ``def`` and ``class`` must be named by code those reach (or by the
tutorial), unless ``UNREACHED`` says why it stays.
"""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: The query stack: everything a serving process imports.
SERVING_MODULES = (
    "repro.cli",
    "repro.database",
    "repro.ann",
    "repro.storage",
    "repro.serving",
    "repro.net",
    "repro.net.worker",
    "repro.resilience",
    "repro.obs",
)

#: What none of them may pull in at import time (a name or a prefix).
FORBIDDEN = (
    "scipy",
    "networkx",
    "asyncio",  # both servers in net/ are thread-per-connection
    "repro.video",
    "repro.audio",
    "repro.vision",
    "repro.events",
    "repro.skimming",
    "repro.evaluation",
    "repro.baselines",
    "repro.ingest.executor",
)

_LEAK_SCRIPT = """
import importlib, sys
importlib.import_module(sys.argv[1])
forbidden = sys.argv[2:]
print("\\n".join(sorted(
    name for name in sys.modules
    if any(name == f or name.startswith(f + ".") for f in forbidden)
)))
"""

#: The lazily exporting packages' public surfaces: the first four as they
#: were while they imported eagerly; the substrates' less what nothing
#: imported through them.
PUBLIC_NAMES = {
    "repro": [
        "ClassMiner",
        "ClassMinerResult",
        "ContentStructure",
        "EventKind",
        "MiningConfig",
        "ReproError",
        "ScalableSkim",
        "VideoDatabase",
        "build_skim",
        "__version__",
    ],
    "repro.core": [
        "ClassMiner",
        "ClassMinerResult",
        "ClusteredScene",
        "ContentStructure",
        "FeatureMatrix",
        "Group",
        "GroupKind",
        "GroupThresholds",
        "MiningConfig",
        "Scene",
        "SceneClusteringResult",
        "SceneDetectionResult",
        "Shot",
        "ShotDetectionResult",
        "SimilarityWeights",
        "adaptive_local_threshold",
        "banded_stsim",
        "boundary_spans",
        "classify_group",
        "cluster_scenes",
        "cross_stsim",
        "detect_boundaries",
        "detect_group_boundaries",
        "detect_groups",
        "detect_scenes",
        "detect_shots",
        "entropy_threshold",
        "group_similarity",
        "group_similarity_matrix",
        "group_similarity_to_many",
        "group_stsim",
        "mine_content_structure",
        "pairwise_stsim",
        "representative_frame_index",
        "search_range",
        "select_representative_group",
        "select_representative_shot",
        "shot_group_similarity",
        "shot_similarity",
        "shots_from_ground_truth",
        "validity_index",
    ],
    "repro.ingest": [
        "ArtifactInfo",
        "ArtifactStore",
        "IngestJob",
        "IngestReport",
        "JobEvent",
        "JobOutcome",
        "ProgressTracker",
        "RetryPolicy",
        "cache_key",
        "decode_result",
        "encode_result",
        "ingest_corpus",
        "ingest_jobs",
        "jobs_for_titles",
        "load_database",
        "run_jobs",
        "store_for",
    ],
    "repro.net": [
        "GatewayConfig",
        "HttpFront",
        "HttpGateway",
        "RestartReport",
        "ShardCluster",
        "ShardEndpoint",
        "ShardSpec",
        "ShardWorker",
        "ShardedQueryService",
        "build_shards",
        "load_manifest",
        "pack_array",
        "unpack_array",
    ],
    "repro.audio": ["SpeakerAnalyzer", "diarize_shots"],
    "repro.video": [
        "DEFAULT_HEIGHT",
        "DEFAULT_WIDTH",
        "Frame",
        "FrameStream",
        "GroundTruth",
        "SceneSpan",
        "ShotSpan",
        "VideoStream",
        "save_stream",
    ],
    "repro.video.synthesis": [
        "CORPUS_TITLES",
        "GeneratedVideo",
        "SceneSpec",
        "Screenplay",
        "ShotParams",
        "ShotSpec",
        "build_screenplay",
        "clinical_scene",
        "demo_screenplay",
        "dialog_scene",
        "filler_scene",
        "generate_video",
        "load_corpus",
        "load_video",
        "presentation_scene",
        "render_frames",
        "separator_scene",
        "stream_video",
    ],
    "repro.vision": ["VisualCues", "extract_cues"],
}

#: What a shard worker serves without: the fronts above it, the fleet that
#: spawns it, the load generator and an HTTP client stack (~50 modules).
WORKER_FORBIDDEN = (
    "repro.net.gateway",
    "repro.net.client",
    "repro.net.coordinator",
    "repro.net.cluster",
    "repro.serving.loadgen",
    "http.client",
    "ssl",
    "email",
)


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )


@pytest.mark.parametrize("module", SERVING_MODULES)
def test_serving_module_imports_no_mining_code(module):
    done = _python("-c", _LEAK_SCRIPT, module, *FORBIDDEN)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [], f"import {module} loaded mining modules"


def test_a_shard_worker_imports_only_what_it_serves():
    done = _python("-c", _LEAK_SCRIPT, "repro.net.worker", *FORBIDDEN, *WORKER_FORBIDDEN)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [], "import repro.net.worker loaded what it does not serve"


_WORKER_PROBE_SCRIPT = """
import sys
import numpy as np
from repro.net.protocol import pack_array
from repro.net.worker import ShardWorker
worker = ShardWorker(sys.argv[1])
request = {"op": "probe", "features": pack_array(np.full(266, 1 / 266)), "k": 5,
           "leaves": list(worker._state.leaves)}
assert worker._dispatch(request)["ok"]
print(sorted(name for name in ("_hashlib", "hashlib") if name in sys.modules))
"""


def test_a_shard_worker_answers_without_openssl(tmp_path):
    """No worker op hashes: ``hashlib`` would map ``libcrypto`` (~3.3 MiB
    resident) into every worker, so the modules that hash import it where
    they do."""
    from repro.net import build_shards
    from repro.storage import build_synthetic_database

    spec = build_shards(build_synthetic_database(videos=8, shots_per_video=8, seed=1), tmp_path, 1)
    done = _python("-c", _WORKER_PROBE_SCRIPT, str(spec.shard_dir(tmp_path, 0)))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]"], "a shard worker loaded hashlib"


def test_no_module_inside_the_query_stack_imports_mining_code():
    # Every module of those packages, not only the roots a server starts from.
    packages = [m for m in SERVING_MODULES if m.count(".") == 1 and m != "repro.cli"]
    walk = (
        "import importlib, pkgutil, sys\n"
        f"for name in {packages!r}:\n"
        "    for found in pkgutil.walk_packages(importlib.import_module(name).__path__, name + '.'):\n"
        "        importlib.import_module(found.name)\n"
    )
    done = _python("-c", walk + _LEAK_SCRIPT, "repro", *FORBIDDEN)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_no_query_stack_module_imports_upward_at_any_depth():
    # The fresh-interpreter cases above see module-level imports only.  An
    # import inside a function body is the same edge taken later (the
    # storage layer rebuilt catalogs through ``repro.ingest`` that way, the
    # server registered itself on an ingest hook), so read the source.
    upward = tuple(f for f in FORBIDDEN if f.startswith("repro.")) + ("repro.ingest",)
    packages = [m for m in SERVING_MODULES if m.count(".") == 1 and m != "repro.cli"]
    found = []
    for package in packages:
        for path in sorted((Path(SRC) / package.replace(".", "/")).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    assert node.level == 0, f"{path}:{node.lineno}: relative import"
                    names = [node.module, *(f"{node.module}.{a.name}" for a in node.names)]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                found += [
                    f"{path}:{node.lineno}: {name}"
                    for name in names
                    if any(name == f or name.startswith(f + ".") for f in upward)
                ]
    assert found == []


def test_no_module_and_no_mining_run_loads_scipy():
    # Every ``repro.*`` module imported, then the demo video rendered and
    # mined end to end (audio synthesis and analysis included).
    done = _python(
        "-c",
        "import importlib, pkgutil, sys\n"
        "import repro\n"
        "for module in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    importlib.import_module(module.name)\n"
        "from repro.core import ClassMiner\n"
        "from repro.video.synthesis import demo_screenplay, generate_video\n"
        "result = ClassMiner().mine(generate_video(demo_screenplay(), seed=0).stream)\n"
        "assert result.events is not None\n"
        "print(*sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))\n",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_old_homes_of_moved_names_stay_cheap():
    # ``from repro.ingest import load_database, RetryPolicy`` is how
    # serving callers spelled it before the names moved.
    script = "from repro.ingest import load_database, RetryPolicy\n" + _LEAK_SCRIPT
    done = _python("-c", script, "repro.ingest", *FORBIDDEN)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


#: What the ingest front — planning, cache checks, a warm ingest and its
#: publish — runs without: only a process that mines loads these.
MINING_STACK = (
    "repro.vision",
    "repro.audio",
    "repro.events",
    "repro.core.pipeline",
    "repro.core.shots",
    "repro.video.synthesis.generator",
    "repro.video.synthesis.compositions",
)

_INGEST_FRONT_SCRIPT = """
import sys
import repro.ingest.runner
from repro.ingest.jobs import jobs_for_titles
from repro.ingest.runner import ingest_corpus, store_for
store = store_for(sys.argv[1])
for job in jobs_for_titles(["all"]):
    assert store.has_valid(job.key), job.title
    assert store.load_columns(job.key).title == job.title
report = ingest_corpus(["all"], sys.argv[1], workers=2)
assert [outcome.state for outcome in report.outcomes] == ["cached"] * 6, report.outcomes
assert len(report.registered) == 6 and report.database_path is not None
print("\\n".join(sorted(
    name for name in sys.modules
    if any(name == f or name.startswith(f + ".") for f in sys.argv[2:])
)))
"""


def test_the_ingest_front_loads_no_miner(tmp_path, demo_result):
    # The cache is built here, one artifact per title (the demo's result
    # under each title's key); the fresh interpreter only plans, checks
    # and publishes.
    import dataclasses

    from repro.ingest.jobs import jobs_for_titles
    from repro.ingest.runner import store_for

    store = store_for(tmp_path)
    for job in jobs_for_titles(["all"]):
        structure = dataclasses.replace(demo_result.structure, title=job.title)
        store.save(job.key, dataclasses.replace(demo_result, structure=structure))
    done = _python("-c", _INGEST_FRONT_SCRIPT, str(tmp_path), *MINING_STACK)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [], "the ingest front loaded the miner"


def test_worker_module_runs_once_under_dash_m():
    # An eager ``ShardWorker`` export from ``repro.net`` made ``python
    # -m repro.net.worker`` execute the module body twice; runpy warns.
    done = _python("-W", "error::RuntimeWarning", "-m", "repro.net.worker", "--help")
    assert done.returncode == 0, done.stderr
    assert "shard_dir" in done.stdout


@pytest.mark.parametrize("package", sorted(PUBLIC_NAMES))
def test_lazy_package_keeps_its_public_surface(package):
    done = _python(
        "-c",
        "import importlib, sys\n"
        "package = importlib.import_module(sys.argv[1])\n"
        "print(repr(list(package.__all__)))\n"
        "missing = [n for n in package.__all__ if n not in dir(package)]\n"
        "assert not missing, missing\n"
        "namespace = {}\n"
        "exec(f'from {sys.argv[1]} import *', namespace)\n"
        "unresolved = [n for n in package.__all__\n"
        "              if namespace.get(n) is not getattr(package, n)]\n"
        "assert not unresolved, unresolved\n"
        "try:\n"
        "    package.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise AssertionError('unknown attribute resolved')\n",
        package,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == repr(PUBLIC_NAMES[package])


def test_lazy_names_are_the_objects_their_home_modules_define():
    import repro.core
    import repro.ingest
    from repro.core.pipeline import ClassMiner
    from repro.ingest import executor, runner
    from repro.resilience.retry import RetryPolicy
    from repro.storage.lazy import load_database

    assert repro.ClassMiner is ClassMiner
    assert repro.core.ClassMiner is ClassMiner
    assert repro.ingest.RetryPolicy is RetryPolicy
    assert executor.RetryPolicy is RetryPolicy
    assert repro.ingest.load_database is load_database
    assert runner.load_database is load_database


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    imported, used = {}, set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__" or "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A quoted annotation or an ``__all__`` entry; prose does not parse.
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return [
        f"{path}:{line}: {name}"
        for name, line in imported.items()
        if name not in used and name != "*"
    ]


def test_no_module_imports_a_name_it_does_not_use():
    root = Path(SRC).parent
    scanned = [
        *Path(SRC).rglob("*.py"),
        *(root / "tests").rglob("*.py"),
        *(root / "examples").glob("*.py"),
        *(root / "benchmarks").glob("bench_*.py"),
    ]
    unused = [hit for path in sorted(scanned) for hit in _unused_imports(path)]
    assert unused == []


#: Modules that feed no command, entry point, benchmark or example (a
#: package ``__init__`` re-exporting them is a shop window, not a use).
#: Empty: a module that feeds nothing is deleted, not listed.
FEEDS_NOTHING: set[str] = set()


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _lazy_exports(tree: ast.Module) -> dict[str, str]:
    """``name -> home module`` from a package's ``lazy_exports(__name__, {...})`` call."""
    homes = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lazy_exports":
            for module, names in ast.literal_eval(node.args[1]).items():
                homes.update(dict.fromkeys(names, module))
    return homes


def _reachable_modules() -> tuple[set[str], set[str]]:
    """(every module under ``src/repro``, those some root's imports reach).

    Roots: ``repro.cli``, every module with an ``if __name__ ==
    "__main__"`` block, every file under ``benchmarks/`` and
    ``examples/``.  ``from package import name`` reaches the package and
    the *home* of ``name`` — the module the package's ``__init__`` takes
    it from, eagerly or through ``lazy_exports`` — not everything the
    ``__init__`` re-exports; an ``__init__``'s other imports (what it
    uses itself) count like any module's.  A string constant that spells
    a module (``[sys.executable, "-m", "repro.net.worker"]``) counts as
    an import of it.
    """
    root = Path(SRC).parent
    trees = {_module_name(path): ast.parse(path.read_text()) for path in Path(SRC).rglob("*.py")}
    packages = {_module_name(path) for path in Path(SRC).rglob("__init__.py")}
    exported = {}  # package -> {name: home module}, eager and lazy re-exports alike
    for package in packages:
        public = {
            element.value
            for node in ast.walk(trees[package])
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__"
            for element in node.value.elts
        }
        homes = _lazy_exports(trees[package])
        for node in trees[package].body:
            if isinstance(node, ast.ImportFrom):
                homes.update({a.asname or a.name: node.module for a in node.names if a.name in public})
        exported[package] = homes

    def imports(name: str | None, tree: ast.Module) -> set[str]:
        found = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if exported.get(name, {}).get(alias.asname or alias.name) == node.module:
                        continue  # this __init__ re-exporting: a window, not a use
                    if f"{node.module}.{alias.name}" in trees:
                        found.add(f"{node.module}.{alias.name}")  # a submodule
                    elif alias.name in exported.get(node.module, {}):
                        found.add(exported[node.module][alias.name])
                    else:
                        found.add(node.module)
            elif isinstance(node, ast.Constant) and node.value in trees:
                found.add(node.value)
        return {module for module in found if module in trees}

    scripts = [*root.glob("benchmarks/**/*.py"), *root.glob("examples/**/*.py")]
    frontier = set().union(*(imports(None, ast.parse(path.read_text())) for path in scripts))
    frontier |= {"repro.cli"} | {
        name for name, tree in trees.items() if '__name__ == "__main__"' in ast.unparse(tree)
    }
    reached: set[str] = set()
    while frontier:
        name = frontier.pop()
        reached.add(name)
        parent = name.rpartition(".")[0]
        found = imports(name, trees[name]) | ({parent} if parent else set())
        frontier |= found - reached
    return set(trees), reached


def test_every_module_feeds_something_that_runs():
    modules, reached = _reachable_modules()
    assert len(modules) > 100 and "repro.net.worker" in reached
    assert modules - reached == FEEDS_NOTHING


#: Definitions nothing that runs references, each kept for one of three
#: reasons: a scalar oracle a test holds a kernel to, a seam a test
#: substitutes through, or a name ROADMAP gives its next item.  Like
#: ``FEEDS_NOTHING``, this list may only shrink.
UNREACHED: dict[str, str] = {
    # Scalar oracles.
    "repro.ann.index.build_leaf_ann": "oracle: the from-rows build the trained ANN tier is held to",
    "repro.core.shots.boundary_spans": "oracle: the spans test_color_kernel holds detect_shots' streamed shots to",
    "repro.core.shots.detect_boundaries": "oracle: the whole-signal run detect_shots' boundaries are held to",
    "repro.core.similarity.group_similarity": "oracle: scalar Eq. (9) test_kernels holds the group kernels to",
    "repro.core.similarity.shot_group_similarity": "oracle: scalar Eq. (8) inside group_similarity",
    "repro.core.similarity.shot_similarity": "oracle: scalar Eq. (1) test_kernels holds the batched kernels to",
    "repro.vision.difference.difference_signal": "oracle: the whole-matrix signal the streamed differences are held to",
    "repro.vision.difference.histogram_difference": "oracle: the per-pair difference test_color_kernel holds the signal to",
    "repro.vision.histogram.histogram_intersection": "oracle: the colour term of scalar Eq. (1)",
    "repro.vision.texture.texture_distance_squared": "oracle: the texture term of scalar Eq. (1)",
    # Seams a test substitutes through.
    "repro.obs.export.validate_prometheus_text": "seam: the line-format check every /metrics test reads through",
    "repro.resilience.faults.active_plan": "seam: the armed plan the fault-injection tests read back",
    # Named by ROADMAP for its next item.
    "repro.database.catalog.VideoDatabase.unregister": "ROADMAP item 3(a): delta publish",
    "repro.database.hierarchy.hierarchy_from_dict": "ROADMAP item 8: the subject-area hierarchy",
    "repro.database.hierarchy.hierarchy_to_dict": "ROADMAP item 8: the subject-area hierarchy",
}


def _tutorial_trees() -> list[ast.Module]:
    text = (Path(SRC).parent / "docs" / "TUTORIAL.md").read_text()
    return [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", text, re.S)]


def _references(nodes) -> set[str]:
    """Names a piece of code references, not counting nested definitions' bodies.

    A name, an attribute, an imported name and ``getattr(x, "name")``
    count; so does ``_op_X`` for a ``{"op": "X"}`` / ``dict(op="X")``
    request, which is how a shard worker's handler is reached
    (``getattr(self, f"_op_{op}")``).
    """
    found, stack = set(), list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack += [*node.decorator_list, node.args, *filter(None, [node.returns])]
            continue
        if isinstance(node, ast.ClassDef):
            stack += [*node.decorator_list, *node.bases, *node.keywords]
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Dict):
            found.update(
                f"_op_{value.value}"
                for key, value in zip(node.keys, node.values)
                if isinstance(key, ast.Constant) and key.value == "op" and isinstance(value, ast.Constant)
            )
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("getattr", "hasattr"):
            if len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
                found.add(node.args[1].value)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict":
            found.update(
                f"_op_{kw.value.value}"
                for kw in node.keywords
                if kw.arg == "op" and isinstance(kw.value, ast.Constant)
            )
        stack.extend(ast.iter_child_nodes(node))
    return found


def _overrides_a_stdlib_method(module: str, owner: str, name: str) -> bool:
    """Whether ``module.owner.name`` overrides a method a non-``repro`` base defines."""
    target = importlib.import_module(module)
    for part in owner.split("."):
        target = getattr(target, part, None)
    return isinstance(target, type) and any(
        name in vars(base) for base in target.__mro__[1:] if not base.__module__.startswith("repro")
    )


def _unreached_definitions() -> set[str]:
    """Every ``module.qualname`` under ``src/repro`` no running code names.

    Reached code starts as the roots ``_reachable_modules`` starts from,
    the tutorial's Python blocks, and every reached module's top level; a
    definition is reached when its parent is and reached code names it,
    and its body then joins the reached code, until nothing changes.  A
    package ``__init__``'s re-exports and ``__all__`` name nothing;
    dunders and overrides of a standard-library base method are reached
    with their parent.
    """
    root = Path(SRC).parent
    _, reached_modules = _reachable_modules()
    scripts = [*root.glob("benchmarks/**/*.py"), *root.glob("examples/**/*.py")]
    roots = [ast.parse(path.read_text()) for path in scripts] + _tutorial_trees()
    references = set().union(*(_references(ast.walk(tree)) for tree in roots))
    pending = []  # (qualified name, parent qualified name, node, exempt)
    for path in Path(SRC).rglob("*.py"):
        module = _module_name(path)
        if module not in reached_modules:
            continue
        tree = ast.parse(path.read_text())
        top = tree.body
        if path.name == "__init__.py":
            public = {
                element.value
                for node in top
                if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__"
                for element in node.value.elts
            }
            top = [
                node
                for node in top
                if not (isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__")
                and not (isinstance(node, ast.ImportFrom) and all(a.name in public for a in node.names))
            ]
        references |= _references(top)

        def collect(body, parent: str, owner: str | None) -> None:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    qualname = f"{parent}.{node.name}"
                    dunder = node.name.startswith("__") and node.name.endswith("__")
                    exempt = dunder or (
                        owner is not None and _overrides_a_stdlib_method(module, owner, node.name)
                    )
                    pending.append((qualname, parent, node, exempt))
                    importable = isinstance(node, ast.ClassDef) and (owner or parent == module)
                    collect(node.body, qualname, qualname[len(module) + 1 :] if importable else None)
                elif isinstance(node, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
                    collect(list(ast.iter_child_nodes(node)), parent, owner)

        collect(tree.body, module, None)
    reached = set(reached_modules)
    changed = True
    while changed:
        changed = False
        for qualname, parent, node, exempt in pending:
            name = qualname.rpartition(".")[2]
            if qualname in reached or parent not in reached or not (exempt or name in references):
                continue
            reached.add(qualname)
            changed = True
            references |= _references(node.body)
    return {qualname for qualname, *_ in pending if qualname not in reached}


def test_every_definition_is_reached_from_something_that_runs():
    unreached = _unreached_definitions()
    assert sorted(unreached - set(UNREACHED)) == []
    assert sorted(set(UNREACHED) - unreached) == [], "reached now: drop it from UNREACHED"
