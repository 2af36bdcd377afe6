"""Tests for BIC-based speaker diarization."""

import pytest

from repro.audio.diarization import diarize_shots
from repro.audio.speaker import SpeakerAnalyzer, default_speech_classifier
from repro.audio.synthesis import VOICE_BANK, synthesize_ambient, synthesize_speech
from repro.audio.waveform import Waveform
from repro.errors import AudioError


@pytest.fixture(scope="module")
def analyzer():
    return SpeakerAnalyzer(classifier=default_speech_classifier())


def _dialog_track(pattern, seconds=3.0):
    """Audio of alternating speakers; 'a'/'b' letters, '.' = ambience."""
    voices = {"a": VOICE_BANK["dr_adams"], "b": VOICE_BANK["dr_baker"]}
    parts = []
    for i, letter in enumerate(pattern):
        if letter == ".":
            parts.append(synthesize_ambient(seconds, seed=i))
        else:
            parts.append(synthesize_speech(voices[letter], seconds, seed=i))
    return Waveform.concatenate(parts)


def _analyses(analyzer, track, count, seconds=3.0):
    return [
        analyzer.analyze_shot(track, i, i * seconds, (i + 1) * seconds)
        for i in range(count)
    ]


class TestDiarizeShots:
    def test_alternating_dialog(self, analyzer):
        track = _dialog_track("abab")
        analyses = _analyses(analyzer, track, 4)
        result = diarize_shots(analyses, analyzer)
        assert result.num_speakers == 2
        assert result.labels[0] == result.labels[2]
        assert result.labels[1] == result.labels[3]
        assert result.labels[0] != result.labels[1]

    def test_recurring_speakers(self, analyzer):
        track = _dialog_track("aba")
        analyses = _analyses(analyzer, track, 3)
        result = diarize_shots(analyses, analyzer)
        assert result.shots_of_speaker(result.labels[0]) == [0, 2]
        assert result.shots_of_speaker(result.labels[1]) == [1]

    def test_monologue(self, analyzer):
        track = _dialog_track("aaa")
        analyses = _analyses(analyzer, track, 3)
        result = diarize_shots(analyses, analyzer)
        assert result.num_speakers == 1
        assert result.shots_of_speaker(0) == [0, 1, 2]

    def test_ambient_shots_unlabelled(self, analyzer):
        track = _dialog_track("a.b")
        analyses = _analyses(analyzer, track, 3)
        result = diarize_shots(analyses, analyzer)
        assert 1 in result.unlabelled
        assert 1 not in result.labels

    def test_empty_input(self, analyzer):
        result = diarize_shots([], analyzer)
        assert result.num_speakers == 0
        assert result.labels == {}

    def test_max_gap_limits_links(self, analyzer):
        # Same speaker in shots 0 and 3 with others between; a gap limit
        # of 1 prevents the long-range link.
        track = _dialog_track("abba")
        analyses = _analyses(analyzer, track, 4)
        unlimited = diarize_shots(analyses, analyzer)
        limited = diarize_shots(analyses, analyzer, max_gap=1)
        assert unlimited.num_speakers <= limited.num_speakers

    def test_speaker_index_bounds(self, analyzer):
        track = _dialog_track("ab")
        result = diarize_shots(_analyses(analyzer, track, 2), analyzer)
        with pytest.raises(AudioError):
            result.shots_of_speaker(result.num_speakers)


class TestAgainstGroundTruth:
    def test_demo_video_diarization(self, analyzer, demo_video, demo_result):
        """Labels must be consistent with the scripted speakers."""
        analyses = list(demo_result.audio.values())
        result = diarize_shots(analyses, analyzer)

        truth = demo_video.truth
        # Map each detected shot to the scripted speaker by midpoint.
        def scripted_speaker(shot_id):
            shot = next(s for s in demo_result.structure.shots if s.shot_id == shot_id)
            mid = (shot.start + shot.stop) // 2
            for span in truth.shots:
                if span.contains(mid):
                    return span.speaker
            return None

        by_label: dict[int, set] = {}
        for shot_id, label in result.labels.items():
            speaker = scripted_speaker(shot_id)
            if speaker is not None:
                by_label.setdefault(label, set()).add(speaker)
        # Each diarized cluster maps to exactly one scripted voice.
        assert by_label
        for voices in by_label.values():
            assert len(voices) == 1
