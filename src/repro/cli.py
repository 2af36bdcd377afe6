"""Command-line interface: mine, evaluate, skim and snapshot videos.

Installed as the ``classminer`` console script::

    classminer corpus                       # list available videos
    classminer mine face_repair             # mine and print the hierarchy
    classminer events face_repair           # scenes with mined events
    classminer skim skin_examination        # colour bar + storyboard
    classminer evaluate laparoscopy         # methods A/B/C vs ground truth
    classminer render demo -o demo.npz      # snapshot the rendered stream
    classminer ingest all --db-dir db/      # mine the corpus into a database
    classminer migrate --db-dir db/         # artifacts -> SQL catalog
    classminer search "laser surgery" --db-dir db/  # text search over metadata
    classminer cache list --db-dir db/      # inspect the artifact cache
    classminer serve --db-dir db/           # serving health check + metrics
    classminer health --db-dir db/          # liveness/readiness/degradation
    classminer loadtest --db-dir db/        # closed-loop load generator
    classminer mine demo --trace t.jsonl    # record a span trace while mining
    classminer obs render t.jsonl           # render a recorded trace
    classminer obs slow --url http://127.0.0.1:8080  # a gateway's slowest queries

The special title ``demo`` refers to the compact demo screenplay; the
five corpus titles come from the paper's dataset description.  For
``ingest``, ``corpus`` expands to the five titles and ``all`` to the
corpus plus the demo.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence
from contextlib import contextmanager

from repro.errors import ReproError
from repro.tables import render_table

# Everything else is imported by the command that uses it: the serving
# commands (serve, shard, health, loadtest, obs) must start without
# loading the mining stack, and the mining commands without the servers
# (DESIGN.md §3, "Import layering"; tests/test_import_layers.py).


def _one_blas_thread_each() -> None:
    """One BLAS thread in this process and those it spawns, unless the user said otherwise.

    N worker processes that each start a machine-wide BLAS pool run
    several times slower than one thread apiece (docs/INGESTION.md).
    Must run before anything imports numpy.
    """
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")


def _load(title: str, with_audio: bool = True):
    from repro.video.synthesis import demo_screenplay, generate_video, load_video

    if title == "demo":
        return generate_video(demo_screenplay(), seed=0, with_audio=with_audio)
    return load_video(title, with_audio=with_audio)


def _mine(title: str, mine_events: bool = True):
    """Render ``title`` and mine it; returns ``(video, result)``."""
    from repro.core import ClassMiner

    video = _load(title)
    return video, ClassMiner().mine(video.stream, mine_events=mine_events)


@contextmanager
def _tracing(args: argparse.Namespace):
    """Install a tracer for the command when ``--trace PATH`` was given.

    Yields the tracer (or None when tracing is off); on exit the
    previous tracer is restored and the spans are written as JSONL.
    """
    path = getattr(args, "trace", None)
    if not path:
        yield None
        return
    from repro.obs import Tracer, install_tracer

    tracer = Tracer()
    previous = install_tracer(tracer)
    try:
        yield tracer
    finally:
        install_tracer(previous)
        tracer.write_jsonl(path)
        print(f"trace: wrote {len(tracer.spans())} spans to {path}")


def _cmd_corpus(_args: argparse.Namespace) -> int:
    from repro.video.synthesis import CORPUS_TITLES

    print("Available videos (synthetic corpus, Sec. 6.1 titles):")
    for title in ("demo",) + CORPUS_TITLES:
        print(f"  {title}")
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    with _tracing(args) as tracer:
        video, result = _mine(args.title)
    if tracer is not None:
        from repro.obs import render_spans

        print(render_spans(tracer.spans()))
    sizes = result.structure.level_sizes()
    print(f"{args.title}: {len(video.stream)} frames, {video.stream.duration:.1f}s")
    print(
        f"  hierarchy: {sizes['clustered_scenes']} clustered scenes > "
        f"{sizes['scenes']} scenes > {sizes['groups']} groups > "
        f"{sizes['shots']} shots"
    )
    print(f"  CRF (Eq. 21): {result.structure.compression_rate_factor:.3f}")
    return 0


def _cmd_events(args: argparse.Namespace) -> int:
    video, result = _mine(args.title)
    rows = []
    for scene in result.structure.scenes:
        event = result.event_of_scene(scene.scene_id)
        start, stop = scene.frame_span
        rows.append(
            [
                scene.scene_id,
                f"{start / video.stream.fps:.1f}-{stop / video.stream.fps:.1f}s",
                scene.shot_count,
                event.kind.value,
            ]
        )
    print(render_table(["scene", "time", "shots", "event"], rows, title=args.title))
    return 0


def _cmd_skim(args: argparse.Namespace) -> int:
    from repro.skimming import (
        build_color_bar,
        build_skim,
        render_storyboard,
        render_text_bar,
    )

    _video, result = _mine(args.title)
    skim = build_skim(result.structure, result.events.events)
    bar = build_color_bar(result.structure, result.events.events)
    print(render_text_bar(bar, width=args.width))
    print()
    print(render_storyboard(skim, level=args.level, columns=3))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.baselines import lin_detect_scenes, rui_detect_scenes
    from repro.evaluation import evaluate_scene_partition

    video, result = _mine(args.title, mine_events=False)
    structure = result.structure
    rows = []
    for label, scenes in (
        ("A (ours)", [scene.shot_ids for scene in structure.scenes]),
        ("B (Rui et al.)", rui_detect_scenes(structure.shots).scenes),
        ("C (Lin & Zhang)", lin_detect_scenes(structure.shots).scenes),
    ):
        evaluation = evaluate_scene_partition(
            video.truth, structure.shots, scenes, label
        )
        rows.append([label, evaluation.precision, evaluation.crf])
    print(
        render_table(
            ["method", "precision (Eq.20)", "CRF (Eq.21)"],
            rows,
            title=f"Scene detection on '{args.title}'",
        )
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.skimming.report_html import save_report

    _video, result = _mine(args.title)
    save_report(result, args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_poster(args: argparse.Namespace) -> int:
    from repro.skimming import build_skim
    from repro.skimming.poster import save_poster

    _video, result = _mine(args.title)
    skim = build_skim(result.structure, result.events.events)
    image = save_poster(skim, args.output, level=args.level, columns=args.columns)
    print(f"wrote {args.output}: {image.shape[1]}x{image.shape[0]} PPM")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    if args.workers > 1:
        _one_blas_thread_each()
    from repro.ingest import ProgressTracker, RetryPolicy, ingest_corpus

    tracker = ProgressTracker()

    def progress(event):
        tracker(event)
        if not args.quiet and event.kind != "queued":
            print(event.describe())

    with _tracing(args):
        report = ingest_corpus(
            args.titles,
            args.db_dir,
            workers=args.workers,
            force=args.force,
            seed=args.seed,
            timeout=args.timeout,
            policy=RetryPolicy(retries=args.retries),
            progress=progress,
            strict=False,
        )
    print()
    print(tracker.render_summary())
    print(
        f"\n{len(report.mined)} mined, {len(report.cached)} cached, "
        f"{len(report.failed)} failed; "
        f"{len(report.registered)} videos registered"
        + (
            f"; {len(report.skipped)} unreadable artifacts quarantined and left out"
            if report.skipped
            else ""
        )
    )
    if report.database_path is not None:
        print(f"database: {report.database_path}")
    return 0 if report.ok else 1


def _cmd_migrate(args: argparse.Namespace) -> int:
    from repro.errors import SchemaVersionError, StorageError
    from repro.ingest.runner import publish_catalog, store_for
    from repro.storage import SQLCatalog, catalog_path
    from repro.storage.schema import connect

    db_dir, artifacts = args.db_dir, store_for(args.db_dir).root
    if not artifacts.exists():
        raise StorageError(f"nothing to migrate in {db_dir}: no {artifacts.name}/ store")
    path, refused = catalog_path(db_dir), False
    if path.exists():
        try:
            connect(path).close()
        except SchemaVersionError:  # a version this build cannot open: rebuilt whole
            refused = True
            for suffix in ("", "-wal", "-shm"):
                path.with_name(path.name + suffix).unlink(missing_ok=True)
    report = publish_catalog(db_dir)
    if report.database_path is None:
        raise StorageError(f"{db_dir} migration found no registered videos")
    with SQLCatalog(db_dir) as catalog:
        if refused:  # and so do the blocks only the refused catalog named
            catalog._drop_unreferenced(set(catalog.features.list_blocks()))
        entries, blocks = catalog.entry_count(), len(catalog.features.list_blocks())
    print(f"migrated {db_dir} from artifacts:")
    print(f"  catalog: {report.database_path}")
    print(
        f"  {len(report.registered)} videos, {entries} shot entries, "
        f"{blocks} feature blocks"
    )
    if report.skipped:
        print(f"  skipped {len(report.skipped)} unreadable artifacts")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.storage import SQLCatalog, catalog_path

    if not catalog_path(args.db_dir).exists():
        print(
            f"error: no SQL catalog in {args.db_dir} — run `classminer "
            f"migrate --db-dir {args.db_dir}` first",
            file=sys.stderr,
        )
        return 1
    with SQLCatalog(args.db_dir) as catalog:
        hits = catalog.search_text(args.text, k=args.k)
    if not hits:
        print(f"no matches for {args.text!r}")
        return 0
    rows = [[hit.kind, hit.title, hit.body] for hit in hits]
    print(render_table(["kind", "title", "matched text"], rows, title="search"))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.ingest import store_for

    store = store_for(args.db_dir)
    if args.action == "list":
        infos = store.list()
        if not infos:
            print(f"no artifacts under {store.root}")
            return 0
        rows = [
            [info.title, info.key[:12], f"{info.size_bytes / 1024:.0f} KiB"]
            for info in infos
        ]
        print(render_table(["title", "key", "size"], rows, title="artifact cache"))
        total = sum(info.size_bytes for info in infos)
        print(f"\n{len(infos)} artifacts, {total / 1024:.0f} KiB total")
        return 0
    removed = store.clear()
    print(f"removed {removed} artifacts from {store.root}")
    return 0


def _require_db_dir(args: argparse.Namespace) -> None:
    if not getattr(args, "db_dir", None):
        raise ReproError(
            "--db-dir is required for this mode (or pass --url/--http "
            "to target a running server)"
        )


def _front_config(args: argparse.Namespace):
    """The ``ServerConfig`` the serving flags set, on either front."""
    from repro.serving import ServerConfig

    return ServerConfig(
        queue_depth=args.queue_depth,
        default_timeout=args.timeout,
        ann_nprobe=args.nprobe,
        ann_rerank_k=args.rerank_k,
    )


def _serving_server(args: argparse.Namespace):
    from repro.obs import get_registry
    from repro.serving import QueryServer
    from repro.storage import load_database

    config = _front_config(args)
    # CLI servers report through the process-global registry, so the
    # Prometheus text (``GET /metrics``) covers storage and kernels too.
    return QueryServer(load_database(args.db_dir), config, registry=get_registry())


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.shards or args.shards_dir:
        _one_blas_thread_each()
    from repro.serving import QueryRequest

    if args.http is not None:
        return _cmd_serve_http(args)
    _require_db_dir(args)
    with _tracing(args), _serving_server(args) as server:
        canary = server.sample_features(1)[0]
        cold = server.query(QueryRequest(kind="shot", features=canary, k=5))
        warm = server.query(QueryRequest(kind="shot", features=canary, k=5))
        print(
            f"canary query: cold {cold.elapsed_seconds * 1e3:.3f}ms "
            f"({cold.comparisons} comparisons), "
            f"warm {warm.elapsed_seconds * 1e6:.0f}us "
            f"(cache {'hit' if warm.cache_hit else 'MISS'})"
        )
        ok = bool(cold.hits) and warm.cache_hit
        print(server.describe())
    return 0 if ok else 1


def _cmd_serve_http(args: argparse.Namespace) -> int:
    import signal
    import time as _time
    from contextlib import ExitStack
    from pathlib import Path

    from repro.net import (
        GatewayConfig,
        HttpGateway,
        ShardCluster,
        ShardedQueryService,
        ShardSpec,
        build_shards,
        load_manifest,
    )
    from repro.net.shard import MANIFEST_NAME
    from repro.obs import get_registry

    # A bad serving flag fails here, before a shard worker is spawned.
    config = _front_config(args)

    def _interrupt(_signum, _frame):
        raise KeyboardInterrupt

    # SIGTERM unwinds like Ctrl-C: the ExitStack below stops the gateway
    # and the shard workers instead of leaving them orphaned.
    signal.signal(signal.SIGTERM, _interrupt)
    sharded = bool(args.shards or args.shards_dir)
    with ExitStack() as stack:
        stack.enter_context(_tracing(args))
        if sharded:
            shards_dir = Path(args.shards_dir) if args.shards_dir else None
            if shards_dir is None:
                # The published catalog itself: a republish is what the
                # next refresh or restart serves, and D gains no file.
                _require_db_dir(args)
                shards_dir = Path(args.db_dir)
                spec = ShardSpec(args.shards, shards_dir)
                print(f"serving {args.db_dir} as {args.shards} shards")
            elif (shards_dir / MANIFEST_NAME).exists():
                spec = load_manifest(shards_dir)
                if args.shards and spec.num_shards != args.shards:
                    raise ReproError(
                        f"{shards_dir} holds {spec.num_shards} shards but "
                        f"--shards {args.shards} was requested; pick a "
                        "different --shards-dir"
                    )
                print(f"loaded {spec.num_shards}-shard manifest from {shards_dir}")
            else:
                _require_db_dir(args)
                from repro.storage import load_database

                num_shards = args.shards or 2
                spec = build_shards(
                    load_database(args.db_dir), shards_dir, num_shards
                )
                print(f"published {args.db_dir} into {shards_dir} for {num_shards} shards")
            cluster = stack.enter_context(
                ShardCluster(
                    shards_dir,
                    spec=spec,
                    default_timeout=args.timeout,
                    # With logging on, worker stderr flows through too —
                    # each line prefixed "[shard N]" by the worker itself.
                    inherit_stderr=getattr(args, "access_log", False),
                )
            )
            backend = ShardedQueryService(
                spec,
                cluster.endpoints,
                config=config,
                registry=get_registry(),
            )
            stack.callback(backend.close)
        else:
            _require_db_dir(args)
            cluster = None
            backend = stack.enter_context(_serving_server(args))
        gateway = stack.enter_context(
            HttpGateway(
                backend,
                GatewayConfig(
                    port=args.http,
                    access_log=getattr(args, "access_log", False),
                ),
                cluster=cluster,
            )
        )
        mode = f"{spec.num_shards} shards" if sharded else "single process"
        try:  # from the banner on, a SIGTERM is a clean shutdown
            print(f"serving on {gateway.url} ({mode})")
            print(
                "endpoints: POST /query"
                + (" /admin/restart" if sharded else "")
                + "; GET /skim/{video_id} /health /metrics /debug/slow /workload"
            )
            while True:
                _time.sleep(3600)
        except KeyboardInterrupt:
            print("shutting down")
    return 0


def _cmd_shard(args: argparse.Namespace) -> int:
    from repro.net import load_manifest

    if args.shard_command == "restart":
        from repro.net import HttpFront

        if args.rolling == (args.shard is not None):
            raise ReproError(
                "pick exactly one of --rolling or --shard N"
            )
        # A rolling restart waits for every replacement to answer pings.
        result = HttpFront(args.url, args.token, timeout=120.0).restart(
            rolling=args.rolling, shard=args.shard, graceful=not args.hard
        )
        for entry in result.get("restarted", []):
            mode = "graceful" if entry.get("graceful") else "hard"
            print(
                f"shard {entry.get('shard')}: {mode} restart "
                f"in {entry.get('seconds')}s"
            )
        return 0
    print(load_manifest(args.dir).describe())
    return 0


def _cmd_health(args: argparse.Namespace) -> int:
    if args.url:
        from repro.net import HttpFront

        report = HttpFront(args.url).health_report()
    else:
        _require_db_dir(args)
        with _serving_server(args) as server:
            report = server.health_report()
    print(report.render())
    return report.exit_code


def _cmd_loadtest(args: argparse.Namespace) -> int:
    from contextlib import ExitStack

    from repro.serving import LoadgenConfig, run_load

    timeout = args.timeout if args.deadline_ms is None else args.deadline_ms / 1000.0
    config = LoadgenConfig(
        clients=args.clients,
        duration=args.duration,
        k=args.k,
        timeout=timeout,
        unique_fraction=args.unique_fraction,
        seed=args.seed,
        nprobe=getattr(args, "nprobe", None),
        rerank_k=getattr(args, "rerank_k", None),
    )
    with ExitStack() as stack:
        stack.enter_context(_tracing(args))
        if args.http:
            from repro.net import HttpFront

            # The socket outlasts the deadline: the gateway answers 504 first.
            front, target = HttpFront(args.http, args.token, timeout + 5.0), args.http
        else:
            _require_db_dir(args)
            front, target = stack.enter_context(_serving_server(args)), args.db_dir
        report = run_load(front, config)
        text = report.render(f"loadtest against {target}")
        print(text)
        if not args.http:
            status = front.describe()
            print()
            print(status)
            text += "\n" + status
        if args.output:
            from pathlib import Path

            Path(args.output).write_text(text + "\n")
            print(f"\nwrote {args.output}")
        for failure in report.failures:
            print(f"failure: {failure}", file=sys.stderr)
    return 0 if report.completed and not report.errors and not report.failures else 1


def _cmd_obs_render(args: argparse.Namespace) -> int:
    from repro.obs import load_trace, render_spans

    print(render_spans(load_trace(args.trace_file), max_spans=args.max_spans))
    return 0


def _cmd_obs_slow(args: argparse.Namespace) -> int:
    from repro.net import HttpFront
    from repro.obs import SlowQuery, SlowQueryLog

    front = HttpFront(args.url)
    payload = front.slow_log()
    log = SlowQueryLog(capacity=max(1, int(payload.get("capacity", 32))))
    for entry in payload.get("slow", []):
        log.record(SlowQuery.from_json(entry))
    print(f"{front.url}/debug/slow: {payload.get('recorded', 0)} queries recorded")
    print(log.render())
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from repro.video.io import save_stream

    video = _load(args.title)
    save_stream(video.stream, args.output)
    print(
        f"wrote {args.output}: {len(video.stream)} frames @ {video.stream.fps} fps"
        + (" + audio" if video.stream.audio is not None else "")
    )
    return 0


def _at_least_one(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="classminer",
        description="ClassMiner: medical video mining (ICDE 2003 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("corpus", help="list available videos").set_defaults(
        func=_cmd_corpus
    )

    def _trace_arg(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "--trace",
            default=None,
            metavar="PATH",
            help="write a JSONL trace of this run to PATH",
        )

    mine = sub.add_parser("mine", help="mine a video's content structure")
    mine.add_argument("title")
    _trace_arg(mine)
    mine.set_defaults(func=_cmd_mine)

    events = sub.add_parser("events", help="mined scene events of a video")
    events.add_argument("title")
    events.set_defaults(func=_cmd_events)

    skim = sub.add_parser("skim", help="colour bar and storyboard")
    skim.add_argument("title")
    skim.add_argument("--level", type=int, default=3, choices=(1, 2, 3, 4))
    skim.add_argument("--width", type=int, default=72)
    skim.set_defaults(func=_cmd_skim)

    evaluate = sub.add_parser("evaluate", help="methods A/B/C vs ground truth")
    evaluate.add_argument("title")
    evaluate.set_defaults(func=_cmd_evaluate)

    report = sub.add_parser("report", help="write a standalone HTML summary")
    report.add_argument("title")
    report.add_argument("-o", "--output", required=True)
    report.set_defaults(func=_cmd_report)

    poster = sub.add_parser("poster", help="write a pictorial-summary PPM")
    poster.add_argument("title")
    poster.add_argument("-o", "--output", required=True)
    poster.add_argument("--level", type=int, default=3, choices=(1, 2, 3, 4))
    poster.add_argument("--columns", type=int, default=4)
    poster.set_defaults(func=_cmd_poster)

    render = sub.add_parser("render", help="snapshot the rendered stream")
    render.add_argument("title")
    render.add_argument("-o", "--output", required=True)
    render.set_defaults(func=_cmd_render)

    ingest = sub.add_parser(
        "ingest",
        help="mine titles into a persistent database directory",
        description=(
            "Mine each title (shots, scenes, cues, audio, events) into a "
            "content-addressed artifact cache under --db-dir, then build "
            "the queryable catalog (catalog.sqlite + features/) from the "
            "artifacts. A valid artifact is what marks its job done, so an "
            "interrupted ingest resumes without redoing work, and a re-run "
            "hits the cache entirely."
        ),
    )
    ingest.add_argument(
        "titles",
        nargs="+",
        help="corpus titles, 'demo', 'corpus' (five titles) or 'all'",
    )
    ingest.add_argument(
        "--db-dir",
        required=True,
        help="database directory (artifacts/, catalog.sqlite, features/)",
    )
    ingest.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "jobs in flight at once, each in its own worker process; 1 mines "
            "one job at a time on the calling thread (default: 1)"
        ),
    )
    ingest.add_argument(
        "--force",
        action="store_true",
        help=(
            "skip the cache check and re-mine; an artifact is replaced when "
            "its re-mine succeeds, never deleted first"
        ),
    )
    ingest.add_argument("--seed", type=int, default=0, help="render seed (default: 0)")
    ingest.add_argument(
        "--timeout",
        type=float,
        default=None,
        help=(
            "limit in seconds on each job's own running time, counted from "
            "when a worker starts it (needs --workers > 1)"
        ),
    )
    ingest.add_argument(
        "--retries",
        type=int,
        default=2,
        help="retry attempts per job after the first failure (default: 2)",
    )
    ingest.add_argument(
        "--quiet", action="store_true", help="only print the final summary"
    )
    _trace_arg(ingest)
    ingest.set_defaults(func=_cmd_ingest)

    migrate = sub.add_parser(
        "migrate",
        help="rebuild a database directory's SQL catalog from its artifacts",
        description=(
            "Rebuild the catalog of a directory that holds an artifact "
            "store but no (or a lost) SQL catalog, or one whose schema "
            "version this build does not read: write catalog.sqlite "
            "plus the content-addressed feature blocks under features/. "
            "Idempotent."
        ),
    )
    migrate.add_argument("--db-dir", required=True, help="database directory")
    migrate.set_defaults(func=_cmd_migrate)

    search = sub.add_parser(
        "search",
        help="text search over catalog metadata (videos/scenes/concepts)",
        description=(
            "Search the SQL catalog's video titles, scene events and concept "
            "names: a hit contains every term as a case-insensitive "
            "substring; hits come in catalog order (videos, scenes, concepts)."
        ),
    )
    search.add_argument("text", help="search text (all terms must match)")
    search.add_argument("--db-dir", required=True, help="database directory")
    search.add_argument(
        "-k", type=_at_least_one, default=10, help="maximum hits (default: 10)"
    )
    search.set_defaults(func=_cmd_search)

    cache = sub.add_parser(
        "cache", help="inspect or clear the ingest artifact cache"
    )
    cache.add_argument("action", choices=("list", "clear"))
    cache.add_argument("--db-dir", required=True, help="database directory")
    cache.set_defaults(func=_cmd_cache)

    def _serving_args(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "--db-dir",
            default=None,
            help="ingested database directory (required unless targeting "
            "a running server via --url/--http)",
        )
        sub_parser.add_argument(
            "--queue-depth",
            type=int,
            default=64,
            help="concurrent queries admitted (default: 64)",
        )
        sub_parser.add_argument(
            "--timeout",
            type=float,
            default=5.0,
            help="per-query deadline in seconds (default: 5.0)",
        )
        sub_parser.add_argument(
            "--nprobe",
            type=int,
            default=None,
            help="ANN cells probed per leaf for shot queries "
            "(default: exact scans)",
        )
        sub_parser.add_argument(
            "--rerank-k",
            type=int,
            default=None,
            help="exact re-rank tail used with --nprobe "
            "(default: re-rank every survivor)",
        )

    serve = sub.add_parser(
        "serve",
        help="stand up the query server and run a serving health check",
        description=(
            "Load an ingested database, start the in-process QueryServer, "
            "answer a cold and a warm canary query, and print the metrics "
            "dump (generation, cache hit rate, latency percentiles)."
        ),
    )
    _serving_args(serve)
    serve.add_argument(
        "--http",
        type=int,
        default=None,
        metavar="PORT",
        help="serve JSON over HTTP on this port (0 = ephemeral) instead "
        "of running the canary check",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="serve --db-dir's catalog from N shard worker processes, each "
        "opening it and serving its own leaves, and answer via "
        "scatter-gather (requires --http)",
    )
    serve.add_argument(
        "--shards-dir",
        default=None,
        metavar="DIR",
        help="serve the catalog published into DIR with its manifest "
        "instead (published there from --db-dir when no manifest exists yet)",
    )
    serve.add_argument(
        "--access-log",
        action="store_true",
        help="emit one structured JSON access-log line per HTTP request "
        "on stderr (trace id, path, status, fleet shard count, latency)",
    )
    _trace_arg(serve)
    serve.set_defaults(func=_cmd_serve)

    shard = sub.add_parser(
        "shard",
        help="inspect or restart the shards serving a catalog",
        description=(
            "Shards are views of one published catalog: each worker of "
            "'classminer serve --http --shards N' opens it and serves the "
            "leaves a greedy pack by row count gives it."
        ),
    )
    shard_sub = shard.add_subparsers(dest="shard_command", required=True)
    shard_inspect = shard_sub.add_parser(
        "inspect", help="print which leaves and scene rows each shard serves"
    )
    shard_inspect.add_argument(
        "--dir", required=True, help="shard directory (its manifest.json)"
    )
    shard_inspect.set_defaults(func=_cmd_shard)
    shard_restart = shard_sub.add_parser(
        "restart",
        help="restart shard workers behind a running gateway",
        description=(
            "Cycle shard worker processes through the gateway's "
            "/admin/restart endpoint.  --rolling drains and restarts "
            "workers one at a time, waiting for each replacement to "
            "answer pings before moving on, so in-flight and new "
            "queries keep completing throughout."
        ),
    )
    shard_restart.add_argument(
        "--url", required=True, help="gateway base URL, e.g. http://host:port"
    )
    shard_restart.add_argument(
        "--rolling",
        action="store_true",
        help="restart every shard, one at a time",
    )
    shard_restart.add_argument(
        "--shard", type=int, default=None, help="restart one shard by id"
    )
    shard_restart.add_argument(
        "--hard",
        action="store_true",
        help="skip the drain and terminate workers outright",
    )
    shard_restart.add_argument(
        "--token", default=None, help="X-Auth-Token for the gateway"
    )
    shard_restart.set_defaults(func=_cmd_shard)

    health = sub.add_parser(
        "health",
        help="liveness/readiness/degradation report for a database dir",
        description=(
            "Load an ingested database, start the query server, and print "
            "the combined health report: worker liveness, snapshot "
            "readiness, shard circuit-breaker states, degraded corpus entries "
            "and quarantine history.  Exit code 0 ok, 1 degraded, 2 down."
        ),
    )
    _serving_args(health)
    health.add_argument(
        "--url",
        default=None,
        help="probe a running HTTP gateway (e.g. http://127.0.0.1:8080) "
        "instead of standing up an in-process server",
    )
    health.set_defaults(func=_cmd_health)

    loadtest = sub.add_parser(
        "loadtest",
        help="drive a closed-loop mixed query load and report latency/QPS",
        description=(
            "Replay a deterministic mix of shot, flat-baseline, scene and "
            "event queries against the query server from N closed-loop "
            "clients, then report sustained QPS, cache hit rate and "
            "client-side latency percentiles."
        ),
    )
    _serving_args(loadtest)
    loadtest.add_argument(
        "--clients", type=int, default=4, help="concurrent clients (default: 4)"
    )
    loadtest.add_argument(
        "--duration",
        type=float,
        default=2.0,
        help="run length in seconds (default: 2.0)",
    )
    loadtest.add_argument("--k", type=int, default=5, help="hits per query")
    loadtest.add_argument(
        "--unique-fraction",
        type=float,
        default=0.25,
        help="fraction of queries perturbed to defeat the cache (default: 0.25)",
    )
    loadtest.add_argument("--seed", type=int, default=0, help="workload seed")
    loadtest.add_argument(
        "--http",
        default=None,
        metavar="URL",
        help="drive a running HTTP gateway over real sockets instead of "
        "the in-process server",
    )
    loadtest.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-query deadline in milliseconds (overrides --timeout; "
        "travels as X-Deadline-Ms with --http)",
    )
    loadtest.add_argument(
        "--token", default=None, help="X-Auth-Token for scoped HTTP access"
    )
    loadtest.add_argument(
        "-o", "--output", default=None, help="also write the report to a file"
    )
    _trace_arg(loadtest)
    loadtest.set_defaults(func=_cmd_loadtest)

    obs = sub.add_parser(
        "obs",
        help="observability: trace rendering and a gateway's slow-query log",
        description=(
            "Render a JSONL trace file written by a --trace run as a "
            "flame-style tree, or list the slowest queries a running "
            "gateway has answered.  (Metrics are read from the server that "
            "counts them: GET /metrics.)"
        ),
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_render = obs_sub.add_parser(
        "render", help="render a --trace JSONL file as a span tree"
    )
    obs_render.add_argument("trace_file")
    obs_render.add_argument(
        "--max-spans",
        type=int,
        default=200,
        help="elide children beyond this many rendered spans (default: 200)",
    )
    obs_render.set_defaults(func=_cmd_obs_render)
    obs_slow = obs_sub.add_parser(
        "slow",
        help="show a running gateway's slow-query log",
    )
    obs_slow.add_argument(
        "--url",
        required=True,
        help="the gateway whose GET /debug/slow to fetch "
        "(e.g. http://127.0.0.1:8080)",
    )
    obs_slow.set_defaults(func=_cmd_obs_slow)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
