"""Region-of-interest extraction: the object-based access path.

The paper opens by noting the two accepted access approaches —
shot-based (its focus) and *object-based* — and its intro lists ROI
segmentation among the available parsing tools.  This module supplies
that substrate: salient foreground regions are segmented from each
representative frame by colour distinctness against the frame's
dominant background, and each region is summarised by a compact
descriptor (colour + shape + position) suitable for object-level
indexing and matching.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import VisionError
from repro.video.frame import Frame
from repro.vision.color import TOTAL_BINS, hsv_bins
from repro.vision.morphology import close_mask, open_mask
from repro.vision.regions import Region, label_regions

#: Minimum fraction of the frame a region must cover to be an ROI.
MIN_ROI_FRACTION = 0.02
#: Maximum ROIs returned per frame, largest first.
MAX_ROIS = 4
#: Histogram bins treated as "background": the most populated bins up
#: to this cumulative mass.
BACKGROUND_MASS = 0.5


@dataclass(frozen=True)
class RegionOfInterest:
    """One salient region with its descriptor.

    Attributes
    ----------
    region:
        Geometry (bbox, area, centroid) from connected components.
    mean_color:
        Mean RGB of member pixels, in ``[0, 1]``.
    area_fraction:
        Region area over frame area.
    center:
        Centroid in fractional ``(y, x)`` coordinates.
    """

    region: Region
    mean_color: tuple[float, float, float]
    area_fraction: float
    center: tuple[float, float]

    def descriptor(self) -> np.ndarray:
        """8-dim descriptor: RGB, area, centre, aspect, fill."""
        return np.array(
            [
                *self.mean_color,
                self.area_fraction,
                self.center[0],
                self.center[1],
                min(self.region.aspect_ratio, 4.0) / 4.0,
                self.region.fill_ratio,
            ]
        )


def background_mask(frame: Frame, background_mass: float = BACKGROUND_MASS) -> np.ndarray:
    """Boolean mask of background pixels.

    Background = the most common HSV bins, accumulated until they cover
    ``background_mass`` of the frame.  Everything else is foreground
    candidate material.
    """
    if not 0.0 < background_mass < 1.0:
        raise VisionError("background_mass must be in (0, 1)")
    bins = hsv_bins(frame.pixels)
    counts = np.bincount(bins.ravel(), minlength=TOTAL_BINS).astype(np.float64)
    order = np.argsort(counts)[::-1]
    total = counts.sum()
    background_bins = []
    mass = 0.0
    for bin_index in order:
        if mass >= background_mass * total:
            break
        if counts[bin_index] == 0:
            break
        background_bins.append(bin_index)
        mass += counts[bin_index]
    lookup = np.zeros(TOTAL_BINS, dtype=bool)
    lookup[background_bins] = True
    return lookup[bins]


def extract_rois(
    frame: Frame,
    min_fraction: float = MIN_ROI_FRACTION,
    max_rois: int = MAX_ROIS,
) -> list[RegionOfInterest]:
    """Extract up to ``max_rois`` salient regions, largest first."""
    if max_rois < 1:
        raise VisionError("max_rois must be >= 1")
    foreground = ~background_mask(frame)
    foreground = open_mask(foreground, 1)
    foreground = close_mask(foreground, 1)
    labelled, regions = label_regions(foreground, connectivity=8)

    height, width = frame.height, frame.width
    rgb = frame.as_float()
    labels_needed = [
        region for region in regions
        if region.area_fraction(frame.shape) >= min_fraction
    ][:max_rois]

    rois = []
    for region in labels_needed:
        member = labelled == region.label
        mean_color = tuple(float(c) for c in rgb[member].mean(axis=0))
        rois.append(
            RegionOfInterest(
                region=region,
                mean_color=mean_color,  # type: ignore[arg-type]
                area_fraction=region.area_fraction(frame.shape),
                center=(
                    region.centroid[0] / height,
                    region.centroid[1] / width,
                ),
            )
        )
    return rois


def roi_similarity(a: RegionOfInterest, b: RegionOfInterest) -> float:
    """Similarity of two ROIs in ``[0, 1]`` (1 = identical descriptor).

    A Gaussian kernel over descriptor distance, with colour weighted
    double — object identity is mostly a colour question at this scale.
    """
    da, db = a.descriptor(), b.descriptor()
    weights = np.array([2.0, 2.0, 2.0, 1.0, 0.5, 0.5, 0.5, 0.5])
    distance = float(np.sqrt((weights * (da - db) ** 2).sum()))
    return float(np.exp(-3.0 * distance))


def match_rois(
    query: RegionOfInterest,
    candidates: list[RegionOfInterest],
    threshold: float = 0.5,
) -> list[tuple[RegionOfInterest, float]]:
    """Rank candidate ROIs against a query, filtered by ``threshold``."""
    scored = [
        (candidate, roi_similarity(query, candidate)) for candidate in candidates
    ]
    scored = [(c, s) for c, s in scored if s >= threshold]
    scored.sort(key=lambda item: item[1], reverse=True)
    return scored
