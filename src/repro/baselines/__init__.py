"""Published comparison methods reimplemented for Figs. 12-13."""

from repro.baselines.lin_grouping import coherence_signal, lin_detect_scenes
from repro.baselines.stg import (
    build_transition_graph,
    stg_detect_scenes,
    story_units_from_graph,
    time_constrained_clusters,
)
from repro.baselines.rui_toc import (
    BaselineScenes,
    rui_detect_scenes,
    rui_group_shots,
)

__all__ = [
    "BaselineScenes",
    "coherence_signal",
    "lin_detect_scenes",
    "rui_detect_scenes",
    "rui_group_shots",
    "stg_detect_scenes",
    "story_units_from_graph",
    "build_transition_graph",
    "time_constrained_clusters",
]
