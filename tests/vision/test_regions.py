"""Tests for connected components and shape analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import VisionError
from repro.vision.regions import filter_regions, label_regions


class TestLabelRegions:
    def test_two_separate_blobs(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[1:3, 1:3] = True
        mask[6:9, 6:9] = True
        labels, regions = label_regions(mask)
        assert len(regions) == 2
        assert regions[0].area == 9  # sorted by area, largest first
        assert regions[1].area == 4
        assert labels.max() == 2

    def test_diagonal_connectivity(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = True
        mask[1, 1] = True
        _, four = label_regions(mask, connectivity=4)
        _, eight = label_regions(mask, connectivity=8)
        assert len(four) == 2
        assert len(eight) == 1

    def test_u_shape_merges_via_union_find(self):
        # A U-shape forces label equivalences to be resolved.
        mask = np.zeros((5, 5), dtype=bool)
        mask[:, 0] = True
        mask[:, 4] = True
        mask[4, :] = True
        _, regions = label_regions(mask)
        assert len(regions) == 1

    def test_empty_mask(self):
        labels, regions = label_regions(np.zeros((5, 5), dtype=bool))
        assert regions == []
        assert labels.sum() == 0

    def test_rejects_bad_connectivity(self):
        with pytest.raises(VisionError):
            label_regions(np.zeros((3, 3), dtype=bool), connectivity=6)

    def test_rejects_non_2d(self):
        with pytest.raises(VisionError):
            label_regions(np.zeros((2, 2, 2), dtype=bool))


class TestRegionGeometry:
    def test_bbox_and_centroid(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[2:5, 3:7] = True
        _, regions = label_regions(mask)
        region = regions[0]
        assert region.bbox == (2, 3, 5, 7)
        assert region.height == 3
        assert region.width == 4
        assert region.centroid == pytest.approx((3.0, 4.5))
        assert region.fill_ratio == pytest.approx(1.0)
        assert region.aspect_ratio == pytest.approx(0.75)

    def test_area_fraction(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[0:5, 0:10] = True
        _, regions = label_regions(mask)
        assert regions[0].area_fraction((10, 10, 3)) == pytest.approx(0.5)


class TestFilterRegions:
    def _regions(self):
        mask = np.zeros((20, 20), dtype=bool)
        mask[1:3, 1:3] = True  # tiny
        mask[5:15, 5:15] = True  # big
        _, regions = label_regions(mask)
        return regions

    def test_min_area(self):
        kept = filter_regions(self._regions(), (20, 20), min_area_fraction=0.1)
        assert len(kept) == 1
        assert kept[0].area == 100

    def test_min_dimensions(self):
        kept = filter_regions(self._regions(), (20, 20), min_height=5, min_width=5)
        assert len(kept) == 1

    def test_min_fill(self):
        ring = np.zeros((10, 10), dtype=bool)
        ring[2:8, 2:8] = True
        ring[4:6, 4:6] = False
        _, regions = label_regions(ring)
        assert filter_regions(regions, (10, 10), min_fill_ratio=0.95) == []
        assert len(filter_regions(regions, (10, 10), min_fill_ratio=0.5)) == 1


@given(mask=arrays(bool, (10, 10), elements=st.booleans()))
@settings(max_examples=30, deadline=None)
def test_labels_partition_the_mask(mask):
    """Label image invariants: areas sum to mask size, labels contiguous."""
    labels, regions = label_regions(mask, connectivity=8)
    assert sum(region.area for region in regions) == int(mask.sum())
    assert set(np.unique(labels)) - {0} == {region.label for region in regions}
    # every foreground pixel is labelled, background never is
    assert np.array_equal(labels > 0, mask)
