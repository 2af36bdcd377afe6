"""Per-shot speaker analysis (Sec. 4.2).

Two steps, as in the paper:

1. **Representative clip selection** — each shot's audio is cut into
   ~2-second clips, each clip is classified *speech* vs *non-speech* by
   a GMM over the 14 clip features, and the clip most like clean speech
   becomes the shot's representative clip.
2. **Speaker-change testing** — 14-dim MFCC sequences of two shots'
   representative clips go through the Delta-BIC test (Eqs. 17-19).

:func:`default_speech_classifier` trains the speech/non-speech GMM on
synthesised material from the voice bank, mirroring how the original
system would have been trained on labelled broadcast audio.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.audio.bic import DEFAULT_PENALTY, BicResult, bic_speaker_change
from repro.audio.clips import CLIP_SECONDS, segment_clips
from repro.audio.features import clip_features
from repro.audio.gmm import GmmClassifier
from repro.audio.mfcc import mfcc
from repro.audio.synthesis import (
    VOICE_BANK,
    synthesize_ambient,
    synthesize_music,
    synthesize_speech,
)
from repro.audio.waveform import DEFAULT_SAMPLE_RATE, AudioSource, Waveform

SPEECH_LABEL = "speech"
NON_SPEECH_LABEL = "non_speech"


@dataclass
class ShotAudio:
    """Audio analysis result for one shot: its clip's window and MFCCs, not samples.

    Attributes
    ----------
    shot_id:
        Shot index within the video.
    clip_window:
        ``(start, stop)`` seconds of the clip most like clean speech, or
        ``None`` when the shot is shorter than 2 s.
    has_speech:
        Whether any clip classified as clean speech.
    mfcc_vectors:
        MFCC sequence of the representative clip (``(N, 14)``), or an
        empty array when there is none.
    sample_rate:
        Sample rate of the clip the MFCCs were computed from.
    """

    shot_id: int
    clip_window: tuple[float, float] | None
    has_speech: bool
    mfcc_vectors: np.ndarray
    sample_rate: int = DEFAULT_SAMPLE_RATE


@lru_cache(maxsize=1)
def default_speech_classifier() -> GmmClassifier:
    """Train the clean-speech vs non-speech GMM on synthesised audio.

    Training material: 2-second snippets of every bank voice (speech
    class) and of music, ambience and near-silence (non-speech class).
    The classifier is cached — training takes a moment and the result is
    deterministic.
    """
    samples: list[np.ndarray] = []
    labels: list[str] = []
    for seed in range(3):
        for voice in VOICE_BANK.values():
            clip = synthesize_speech(voice, CLIP_SECONDS, seed=seed)
            samples.append(clip_features(clip))
            labels.append(SPEECH_LABEL)
        samples.append(clip_features(synthesize_music(CLIP_SECONDS, seed=seed)))
        labels.append(NON_SPEECH_LABEL)
        samples.append(clip_features(synthesize_ambient(CLIP_SECONDS, seed=seed)))
        labels.append(NON_SPEECH_LABEL)
        rng = np.random.default_rng(seed)
        hiss = Waveform(samples=np.clip(rng.normal(0.0, 0.003, 16000), -1, 1))
        samples.append(clip_features(hiss))
        labels.append(NON_SPEECH_LABEL)
    return GmmClassifier.fit(np.array(samples), labels, num_components=2, seed=7)


class SpeakerAnalyzer:
    """Selects representative clips and tests shots for speaker changes."""

    def __init__(
        self,
        classifier: GmmClassifier | None = None,
        penalty_factor: float = DEFAULT_PENALTY,
        clip_seconds: float = CLIP_SECONDS,
    ) -> None:
        self._classifier = classifier if classifier is not None else default_speech_classifier()
        self._penalty = penalty_factor
        self._clip_seconds = clip_seconds

    def analyze_shot(
        self, audio: AudioSource, shot_id: int, start: float, stop: float
    ) -> ShotAudio:
        """Analyse one shot's audio window ``[start, stop)`` seconds."""
        clips = segment_clips(audio, start, stop, clip_seconds=self._clip_seconds)
        if not clips:
            return ShotAudio(
                shot_id=shot_id,
                clip_window=None,
                has_speech=False,
                mfcc_vectors=np.zeros((0, 14)),
            )
        features = np.array([clip_features(clip.waveform) for clip in clips])
        predictions = self._classifier.predict(features)
        margins = self._classifier.score_margin(features, SPEECH_LABEL)
        representative = clips[int(np.argmax(margins))]
        return ShotAudio(
            shot_id=shot_id,
            clip_window=(representative.start, representative.stop),
            has_speech=SPEECH_LABEL in predictions,
            mfcc_vectors=mfcc(representative.waveform),
            sample_rate=representative.waveform.sample_rate,
        )

    def speaker_change(self, a: ShotAudio, b: ShotAudio) -> BicResult | None:
        """Delta-BIC test between two shots' representative clips.

        Returns ``None`` when either shot lacks usable speech — the
        paper's rules treat such pairs as "no observable change".
        """
        if a.mfcc_vectors.shape[0] < 20 or b.mfcc_vectors.shape[0] < 20:
            return None
        if not (a.has_speech and b.has_speech):
            return None
        return bic_speaker_change(
            a.mfcc_vectors, b.mfcc_vectors, penalty_factor=self._penalty
        )
