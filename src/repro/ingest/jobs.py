"""Ingest jobs and their deterministic cache keys.

One :class:`IngestJob` describes everything needed to mine one video:
the screenplay, the render seed and the :class:`MiningConfig`.  The
job's :attr:`~IngestJob.key` is a SHA-256 digest over a canonical JSON
encoding of exactly those inputs (plus the artifact format version), so

* the same screenplay/seed/config always maps to the same artifact,
  across processes and machines; and
* any change to the inputs — an edited screenplay, a different seed, a
  tweaked threshold — maps to a *different* artifact instead of
  silently reusing a stale one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from functools import cached_property

from repro.core.config import MiningConfig
from repro.errors import IngestError
from repro.video.synthesis.corpus import CORPUS_TITLES, build_screenplay, demo_screenplay
from repro.video.synthesis.script import Screenplay

#: Bumped whenever the artifact layout changes; part of every cache key
#: so old artifacts are never misread by newer code.  2: a shot's
#: representative audio clip is stored as its window, not its samples.
ARTIFACT_FORMAT = 2


def cache_key(
    screenplay: Screenplay,
    seed: int,
    config: MiningConfig,
    mine_events: bool = True,
) -> str:
    """Deterministic SHA-256 cache key for one mining run.

    :func:`dataclasses.asdict` recurses through scenes, shots and shot
    parameters, so every field that influences rendering is hashed.
    """
    payload = {
        "format": ARTIFACT_FORMAT,
        "screenplay": asdict(screenplay),
        "seed": int(seed),
        "config": config.to_dict(),
        "mine_events": bool(mine_events),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def screenplay_for_title(title: str) -> Screenplay:
    """Resolve a CLI title (``demo`` or a corpus title) to a screenplay."""
    if title == "demo":
        return demo_screenplay()
    if title in CORPUS_TITLES:
        return build_screenplay(title)
    raise IngestError(f"unknown title {title!r}; known: demo, {', '.join(CORPUS_TITLES)}")


@dataclass(frozen=True)
class IngestJob:
    """One unit of ingestion work: mine one screenplay into an artifact.

    Attributes
    ----------
    screenplay:
        The video to render and mine.
    seed:
        Render seed passed to the synthetic generator.
    config:
        Mining configuration.
    mine_events:
        Whether to run cue extraction, audio analysis and event mining
        (matches ``ClassMiner.mine``'s flag).
    """

    screenplay: Screenplay
    seed: int = 0
    config: MiningConfig = field(default_factory=MiningConfig)
    mine_events: bool = True

    @classmethod
    def for_title(
        cls,
        title: str,
        seed: int = 0,
        config: MiningConfig | None = None,
        mine_events: bool = True,
    ) -> "IngestJob":
        """Build the job for a known title (``demo`` or a corpus title)."""
        return cls(
            screenplay=screenplay_for_title(title),
            seed=seed,
            config=config if config is not None else MiningConfig(),
            mine_events=mine_events,
        )

    @property
    def title(self) -> str:
        """The screenplay title."""
        return self.screenplay.title

    @cached_property
    def key(self) -> str:
        """The job's deterministic artifact cache key.

        Hashed once per job: the fields it covers are frozen, and the
        screenplay fingerprint is the costly part of a warm ingest.
        """
        return cache_key(self.screenplay, self.seed, self.config, self.mine_events)


def jobs_for_titles(
    titles: list[str],
    seed: int = 0,
    config: MiningConfig | None = None,
    mine_events: bool = True,
) -> list[IngestJob]:
    """Expand a title list into jobs.

    ``corpus`` expands to the five paper titles and ``all`` to the
    corpus plus the demo; duplicates (after expansion) are dropped while
    preserving order.
    """
    expanded: list[str] = []
    for title in titles:
        if title == "corpus":
            expanded.extend(CORPUS_TITLES)
        elif title == "all":
            expanded.extend(("demo",) + CORPUS_TITLES)
        else:
            expanded.append(title)
    seen: set[str] = set()
    unique = [t for t in expanded if not (t in seen or seen.add(t))]
    return [
        IngestJob.for_title(title, seed=seed, config=config, mine_events=mine_events)
        for title in unique
    ]
