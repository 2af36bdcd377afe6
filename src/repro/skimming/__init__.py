"""Scalable video skimming: levels, playback, colour bar, quality panel."""

from repro.skimming.browser import BrowseEntry, BrowseLevel, HierarchyBrowser
from repro.skimming.colorbar import (
    ColorBarSpan,
    EVENT_GLYPHS,
    build_color_bar,
    event_at_frame,
    render_text_bar,
)
from repro.skimming.levels import SKIM_LEVELS, build_level_shots
from repro.skimming.poster import compose_poster, save_poster, write_ppm
from repro.skimming.report_html import encode_bmp, render_report, save_report
from repro.skimming.quality import (
    QualityScores,
    evaluate_all_levels,
    objective_scores,
    panel_scores,
)
from repro.skimming.skim import ScalableSkim, SkimSegment, build_skim
from repro.skimming.summary import (
    StoryboardCell,
    fcr_by_level,
    frame_compression_ratio,
    pictorial_summary,
    render_storyboard,
)

__all__ = [
    "BrowseEntry",
    "BrowseLevel",
    "ColorBarSpan",
    "HierarchyBrowser",
    "EVENT_GLYPHS",
    "QualityScores",
    "SKIM_LEVELS",
    "ScalableSkim",
    "SkimSegment",
    "StoryboardCell",
    "build_color_bar",
    "build_level_shots",
    "build_skim",
    "compose_poster",
    "encode_bmp",
    "evaluate_all_levels",
    "event_at_frame",
    "fcr_by_level",
    "frame_compression_ratio",
    "objective_scores",
    "panel_scores",
    "pictorial_summary",
    "render_report",
    "render_storyboard",
    "save_poster",
    "save_report",
    "render_text_bar",
    "write_ppm",
]
