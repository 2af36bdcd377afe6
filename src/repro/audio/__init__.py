"""Audio substrate: waveforms, synthesis, features, MFCC, GMM, BIC, speakers."""

from repro.audio.bic import BicResult, bic_speaker_change
from repro.audio.clips import CLIP_SECONDS, AudioClip, segment_clips
from repro.audio.diarization import Diarization, diarize_shots
from repro.audio.features import FEATURE_DIM, FEATURE_NAMES, clip_features
from repro.audio.gmm import GaussianMixture, GmmClassifier
from repro.audio.mfcc import mfcc, mel_filterbank
from repro.audio.speaker import (
    NON_SPEECH_LABEL,
    SPEECH_LABEL,
    ShotAudio,
    SpeakerAnalyzer,
    default_speech_classifier,
)
from repro.audio.synthesis import (
    VOICE_BANK,
    SpeakerVoice,
    synthesize_ambient,
    synthesize_music,
    synthesize_speech,
)
from repro.audio.waveform import DEFAULT_SAMPLE_RATE, Waveform

__all__ = [
    "AudioClip",
    "BicResult",
    "CLIP_SECONDS",
    "Diarization",
    "DEFAULT_SAMPLE_RATE",
    "FEATURE_DIM",
    "FEATURE_NAMES",
    "GaussianMixture",
    "GmmClassifier",
    "NON_SPEECH_LABEL",
    "SPEECH_LABEL",
    "ShotAudio",
    "SpeakerAnalyzer",
    "SpeakerVoice",
    "VOICE_BANK",
    "Waveform",
    "bic_speaker_change",
    "clip_features",
    "diarize_shots",
    "default_speech_classifier",
    "mel_filterbank",
    "mfcc",
    "segment_clips",
    "synthesize_ambient",
    "synthesize_music",
    "synthesize_speech",
]
