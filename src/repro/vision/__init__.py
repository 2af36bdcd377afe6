"""Vision substrate: colour, histograms, texture, regions, and cue detectors."""

from repro.vision.blood import BloodDetection, detect_blood
from repro.vision.color import hsv_bins, hsv_histograms
from repro.vision.colormodel import GaussianColorModel, chromaticity
from repro.vision.cues import VisualCues, extract_cues
from repro.vision.difference import (
    difference_signal,
    histogram_difference,
)
from repro.vision.face import FaceDetection, detect_faces
from repro.vision.frames import SpecialFrameKind, classify_special_frame
from repro.vision.histogram import (
    frame_histograms,
    histogram_intersection,
    hsv_histogram,
)
from repro.vision.compressed import dc_image
from repro.vision.morphology import close_mask, dilate, erode, open_mask
from repro.vision.roi import (
    RegionOfInterest,
    extract_rois,
    match_rois,
    roi_similarity,
)
from repro.vision.regions import Region, filter_regions, label_regions
from repro.vision.skin import SkinDetection, detect_skin
from repro.vision.texture import tamura_coarseness, texture_distance_squared

__all__ = [
    "BloodDetection",
    "FaceDetection",
    "GaussianColorModel",
    "Region",
    "RegionOfInterest",
    "SkinDetection",
    "SpecialFrameKind",
    "VisualCues",
    "chromaticity",
    "classify_special_frame",
    "close_mask",
    "dc_image",
    "detect_blood",
    "detect_faces",
    "detect_skin",
    "difference_signal",
    "dilate",
    "erode",
    "extract_cues",
    "extract_rois",
    "filter_regions",
    "frame_histograms",
    "histogram_difference",
    "histogram_intersection",
    "hsv_bins",
    "hsv_histogram",
    "hsv_histograms",
    "label_regions",
    "match_rois",
    "open_mask",
    "roi_similarity",
    "tamura_coarseness",
    "texture_distance_squared",
]
