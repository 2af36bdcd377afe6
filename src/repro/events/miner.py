"""Event miner: orchestrates cue extraction and rule evaluation (Sec. 4).

:class:`EventMiner` owns the expensive per-shot work — visual cue
extraction on representative frames and audio speaker analysis — and
caches it so several scenes (or repeated calls) reuse it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.audio.speaker import ShotAudio, SpeakerAnalyzer
from repro.audio.waveform import AudioSource
from repro.core.features import Shot
from repro.core.scenes import Scene
from repro.errors import EventMiningError
from repro.events.model import SceneEvent
from repro.events.rules import SceneEvidence, classify_scene, gather_evidence
from repro.vision.cues import VisualCues, extract_cues


@dataclass
class EventMiningResult:
    """Per-scene events plus the evidence that produced them."""

    events: list[SceneEvent]
    evidence: list[SceneEvidence] = field(repr=False)

    def event_of_scene(self, scene_id: int) -> SceneEvent:
        """The event assigned to ``scene_id``."""
        for event in self.events:
            if event.scene_index == scene_id:
                return event
        raise EventMiningError(f"no event recorded for scene {scene_id}")


class EventMiner:
    """Mines presentation / dialog / clinical-operation events."""

    def __init__(self, analyzer: SpeakerAnalyzer | None = None) -> None:
        self._analyzer = analyzer if analyzer is not None else SpeakerAnalyzer()
        self._cue_cache: dict[int, VisualCues] = {}
        self._audio_cache: dict[int, ShotAudio] = {}

    @property
    def analyzer(self) -> SpeakerAnalyzer:
        """The speaker analyzer in use."""
        return self._analyzer

    def visual_cues(self, shots: list[Shot]) -> dict[int, VisualCues]:
        """Extract (and cache) visual cues for each shot's rep frame."""
        for shot in shots:
            if shot.shot_id not in self._cue_cache:
                self._cue_cache[shot.shot_id] = extract_cues(
                    shot.representative_frame, shot.histogram
                )
        return {shot.shot_id: self._cue_cache[shot.shot_id] for shot in shots}

    def shot_audio(
        self, shots: list[Shot], audio: AudioSource | None
    ) -> dict[int, ShotAudio]:
        """Analyse (and cache) each shot's audio window.

        With no audio track every shot gets an empty analysis, which the
        rules treat as "no observable speaker activity".
        """
        import numpy as np

        results: dict[int, ShotAudio] = {}
        for shot in shots:
            if shot.shot_id not in self._audio_cache:
                if audio is None:
                    self._audio_cache[shot.shot_id] = ShotAudio(
                        shot_id=shot.shot_id,
                        clip_window=None,
                        has_speech=False,
                        mfcc_vectors=np.zeros((0, 14)),
                    )
                else:
                    start, stop = shot.time_window
                    self._audio_cache[shot.shot_id] = self._analyzer.analyze_shot(
                        audio, shot.shot_id, start, stop
                    )
            results[shot.shot_id] = self._audio_cache[shot.shot_id]
        return results

    def mine(
        self,
        scenes: list[Scene],
        audio: AudioSource | None = None,
    ) -> EventMiningResult:
        """Classify every scene's event.

        Parameters
        ----------
        scenes:
            Mined scenes (from :mod:`repro.core.scenes`).
        audio:
            The video's audio track; ``None`` disables speaker tests.
        """
        events: list[SceneEvent] = []
        evidences: list[SceneEvidence] = []
        for scene in scenes:
            cues = self.visual_cues(scene.shots)
            shot_audio = self.shot_audio(scene.shots, audio)
            evidence = gather_evidence(scene, cues, shot_audio, self._analyzer)
            events.append(classify_scene(evidence))
            evidences.append(evidence)
        return EventMiningResult(events=events, evidence=evidences)
