"""ClassMiner: medical video mining for database indexing, management
and access — a full reproduction of Zhu et al., ICDE 2003.

Public API tour
---------------

* :mod:`repro.video` — frames, streams, ground truth, and the synthetic
  medical corpus (``repro.video.synthesis``).
* :mod:`repro.vision` / :mod:`repro.audio` — the from-scratch feature
  substrates (HSV histograms, Tamura texture, skin/face/blood
  detectors; MFCC, GMM, Delta-BIC speaker analysis).
* :mod:`repro.core` — the paper's contribution: content-structure
  mining (shots -> groups -> scenes -> clustered scenes) and the
  :class:`~repro.core.pipeline.ClassMiner` facade.
* :mod:`repro.events` — presentation / dialog / clinical-operation
  event mining.
* :mod:`repro.database` — the hierarchical, access-controlled video
  database with hash-table leaves and multi-centre internal nodes.
* :mod:`repro.skimming` — the four-level scalable skim, colour bar and
  quality panel.
* :mod:`repro.baselines` / :mod:`repro.evaluation` — comparison methods
  and the paper's metrics.

Quickstart::

    from repro.video.synthesis import load_video
    from repro.core import ClassMiner

    video = load_video("face_repair")
    result = ClassMiner().mine(video.stream)
    print(result.structure.level_sizes())
"""

from repro._lazy import lazy_exports
from repro.errors import ReproError
from repro.types import EventKind

__version__ = "1.0.0"

# Exported lazily (PEP 562): ``import repro.<anything>`` runs this file,
# and the serving processes must not load the mining stack to do so.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.pipeline": ("ClassMiner", "ClassMinerResult"),
        "repro.core.config": ("MiningConfig",),
        "repro.core.structure": ("ContentStructure",),
        "repro.database.catalog": ("VideoDatabase",),
        "repro.skimming.skim": ("ScalableSkim", "build_skim"),
    },
)

__all__ = [
    "ClassMiner",
    "ClassMinerResult",
    "ContentStructure",
    "EventKind",
    "MiningConfig",
    "ReproError",
    "ScalableSkim",
    "VideoDatabase",
    "build_skim",
    "__version__",
]
