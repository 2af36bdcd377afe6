"""Speaker diarization across shots, built on the ΔBIC test.

The paper's dialog rule needs to know that "at least one speaker should
be duplicated more than once" — which is a diarization question.  This
module exposes the general machinery: agglomeratively link shots whose
representative clips the ΔBIC test judges to be the *same* speaker, and
label the connected components.  Shots without usable speech stay
unlabelled.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.audio.speaker import ShotAudio, SpeakerAnalyzer
from repro.errors import AudioError


@dataclass(frozen=True)
class Diarization:
    """Speaker labelling of a shot sequence.

    Attributes
    ----------
    labels:
        ``shot_id -> speaker index`` for every shot with usable speech;
        indices are dense, ordered by first appearance.
    num_speakers:
        Number of distinct speaker clusters found.
    unlabelled:
        Shot ids without usable speech (too short, no clean-speech clip).
    """

    labels: dict[int, int]
    num_speakers: int
    unlabelled: tuple[int, ...]

    def shots_of_speaker(self, speaker: int) -> list[int]:
        """Shot ids attributed to one speaker, in temporal order."""
        if not 0 <= speaker < self.num_speakers:
            raise AudioError(f"speaker index {speaker} out of range")
        return sorted(
            shot_id for shot_id, label in self.labels.items() if label == speaker
        )


class _UnionFind:
    def __init__(self, items: list[int]) -> None:
        self._parent = {item: item for item in items}

    def find(self, x: int) -> int:
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[max(ra, rb)] = min(ra, rb)


def diarize_shots(
    analyses: list[ShotAudio],
    analyzer: SpeakerAnalyzer | None = None,
    max_gap: int | None = None,
) -> Diarization:
    """Cluster shots by speaker identity.

    Every pair of speech-bearing shots (optionally restricted to pairs
    at most ``max_gap`` positions apart — diarization of long videos
    rarely needs long-range links) is tested with ΔBIC; *same-speaker*
    verdicts become links and connected components become speakers.

    Parameters
    ----------
    analyses:
        Per-shot audio analyses (from :class:`SpeakerAnalyzer`).
    analyzer:
        The analyzer whose ΔBIC configuration to use.
    max_gap:
        Maximum index distance between compared shots (None = all pairs).
    """
    if analyzer is None:
        analyzer = SpeakerAnalyzer()
    speech_shots = [a for a in analyses if a.has_speech and a.mfcc_vectors.shape[0] >= 20]
    unlabelled = tuple(
        a.shot_id for a in analyses if a not in speech_shots
    )
    if not speech_shots:
        return Diarization(labels={}, num_speakers=0, unlabelled=unlabelled)

    uf = _UnionFind([a.shot_id for a in speech_shots])
    for i, first in enumerate(speech_shots):
        for j in range(i + 1, len(speech_shots)):
            if max_gap is not None and j - i > max_gap:
                break
            second = speech_shots[j]
            result = analyzer.speaker_change(first, second)
            if result is not None and not result.is_change:
                uf.union(first.shot_id, second.shot_id)

    # Dense labels ordered by first appearance.
    label_of_root: dict[int, int] = {}
    labels: dict[int, int] = {}
    for analysis in speech_shots:
        root = uf.find(analysis.shot_id)
        if root not in label_of_root:
            label_of_root[root] = len(label_of_root)
        labels[analysis.shot_id] = label_of_root[root]
    return Diarization(
        labels=labels,
        num_speakers=len(label_of_root),
        unlabelled=unlabelled,
    )
