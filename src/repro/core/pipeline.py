"""The ClassMiner facade: the paper's full system in one object.

``ClassMiner.mine`` takes a video stream and returns everything the
database, skimming and evaluation layers consume: the content-structure
hierarchy, per-shot visual cues, per-shot audio analyses, and per-scene
events.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.audio.speaker import ShotAudio, SpeakerAnalyzer
from repro.core.structure import (
    ContentStructure,
    MiningConfig,
    degrade_stage,
    mine_content_structure,
)
from repro.errors import MiningError
from repro.events.miner import EventMiner, EventMiningResult
from repro.events.model import SceneEvent
from repro.obs.trace import span as obs_span
from repro.resilience.faults import fault_point
from repro.types import EventKind
from repro.video.stream import FrameStream
from repro.vision.cues import VisualCues


@dataclass
class ClassMinerResult:
    """Everything ClassMiner mined from one video.

    ``degraded_stages`` names every pipeline stage that fell back
    instead of completing (``"cues"``, ``"audio"``, ``"events"``, or a
    structure stage like ``"scenes"``); an empty tuple means the full
    pipeline succeeded.  The flags survive artifact serialisation and
    database registration, so query results can say which answers come
    from weakened evidence.
    """

    structure: ContentStructure
    cues: dict[int, VisualCues] = field(repr=False)
    audio: dict[int, ShotAudio] = field(repr=False)
    events: EventMiningResult | None = field(default=None, repr=False)
    degraded_stages: tuple[str, ...] = ()

    @property
    def degraded(self) -> bool:
        """True when any mining stage fell back instead of completing."""
        return bool(self.degraded_stages)

    @property
    def title(self) -> str:
        """Video title."""
        return self.structure.title

    def event_of_scene(self, scene_id: int) -> SceneEvent:
        """Mined event of scene ``scene_id``."""
        if self.events is None:
            raise MiningError("event mining was disabled for this run")
        return self.events.event_of_scene(scene_id)

    def scene_events(self) -> dict[int, EventKind]:
        """Scene id -> mined event kind (empty when events disabled)."""
        if self.events is None:
            return {}
        return {event.scene_index: event.kind for event in self.events.events}


class ClassMiner:
    """The paper's prototype system: structure + event mining.

    Parameters
    ----------
    config:
        Content-structure mining configuration.
    analyzer:
        Speaker analyzer (owns the speech/non-speech GMM); built lazily
        with defaults when omitted.
    """

    def __init__(
        self,
        config: MiningConfig | None = None,
        analyzer: SpeakerAnalyzer | None = None,
    ) -> None:
        self._config = config if config is not None else MiningConfig()
        self._analyzer = analyzer

    @property
    def config(self) -> MiningConfig:
        """The active mining configuration."""
        return self._config

    def mine(
        self,
        stream: FrameStream,
        mine_events: bool = True,
        oracle_shot_spans: list[tuple[int, int]] | None = None,
    ) -> ClassMinerResult:
        """Run the full pipeline on one video.

        Parameters
        ----------
        stream:
            The video (audio attached when speaker tests are wanted);
            its frames are read once, so it need not be held whole.
        mine_events:
            Disable to skip cue extraction and audio analysis (cheaper,
            used when only the structure is needed).
        oracle_shot_spans:
            Bypass shot detection with known spans (evaluation only).

        Failure containment: after a structure exists, no stage failure
        raises.  A cue-extraction failure yields a structure-only
        result (events cannot be mined without visual evidence); an
        audio failure falls back to visual-only event rules; an
        event-mining failure keeps structure, cues and audio.  Every
        fallback is named in :attr:`ClassMinerResult.degraded_stages`
        and announced with a :class:`~repro.errors.DegradedResultWarning`.
        """
        with obs_span("mine", title=stream.title) as root:
            structure = mine_content_structure(
                stream, self._config, oracle_shot_spans=oracle_shot_spans
            )
            root.set(
                frames=structure.shots[-1].stop,
                shots=structure.shot_count,
                scenes=structure.scene_count,
            )
            degraded = list(structure.degraded_stages)
            if not mine_events:
                return ClassMinerResult(
                    structure=structure,
                    cues={},
                    audio={},
                    degraded_stages=tuple(degraded),
                )

            miner = EventMiner(analyzer=self._analyzer)
            with obs_span("mine.cues") as sp:
                try:
                    fault_point("mine.cues")
                    cues = miner.visual_cues(structure.shots)
                except Exception as exc:
                    degrade_stage(stream.title, "cues", exc)
                    degraded += ["cues", "events"]
                    sp.set(degraded=True)
                    return ClassMinerResult(
                        structure=structure,
                        cues={},
                        audio={},
                        degraded_stages=tuple(degraded),
                    )
                sp.set(shots=len(cues))

            audio_source = stream.audio
            with obs_span("mine.audio") as sp:
                try:
                    fault_point("mine.audio")
                    audio = miner.shot_audio(structure.shots, audio_source)
                except Exception as exc:
                    degrade_stage(stream.title, "audio", exc)
                    degraded.append("audio")
                    audio = {}
                    audio_source = None  # events fall back to visual rules
                    sp.set(degraded=True)
                sp.set(shots=len(audio))

            with obs_span("mine.events") as sp:
                try:
                    fault_point("mine.events")
                    events = miner.mine(structure.scenes, audio_source)
                    sp.set(events=len(events.events))
                except Exception as exc:
                    degrade_stage(stream.title, "events", exc)
                    degraded.append("events")
                    events = None
                    sp.set(degraded=True)

            return ClassMinerResult(
                structure=structure,
                cues=cues,
                audio=audio,
                events=events,
                degraded_stages=tuple(degraded),
            )
