import math

import numpy as np
import pytest

from segkit.errors import EmptySeeds, IncompleteLabels, NoSeeds, PreconditionError
from segkit.raster import UNLABELED, GrayImage, LabelMap
from segkit.region import (
    RegionParams,
    grow_regions,
    merge_small_regions,
    primary_segment,
    region_stats,
    select_seeds,
)

from fixture_builders import misclassified, noisy_half_image


def gray(rows):
    return GrayImage(np.array(rows, dtype=np.uint8))


def half_8x8():
    img = np.full((8, 8), 10, dtype=np.uint8)
    img[:, 4:] = 200
    return GrayImage(img)


class TestSelectSeeds:
    def test_constant_image_single_seed(self):
        seeds = select_seeds(GrayImage(np.full((5, 5), 9, dtype=np.uint8)), RegionParams())
        assert seeds.k == 1
        assert (seeds.labels == 0).all()

    def test_half_fixture_two_seeds_with_unlabeled_step(self):
        params = RegionParams(variance_threshold=25.0, min_seed_size=4)
        seeds = select_seeds(half_8x8(), params)
        assert seeds.k == 2
        # oracle: recompute every 3x3 clamped-window variance directly
        img = half_8x8().pixels.astype(float)
        for y in range(8):
            for x in range(8):
                ys = np.clip(np.arange(y - 1, y + 2), 0, 7)
                xs = np.clip(np.arange(x - 1, x + 2), 0, 7)
                patch = img[np.ix_(ys, xs)]
                var = patch.var()
                if var <= 25.0:
                    assert seeds.labels[y, x] != UNLABELED
                else:
                    assert seeds.labels[y, x] == UNLABELED
        # the two columns adjacent to the step stay unlabeled
        assert (seeds.labels[:, 3] == UNLABELED).all()
        assert (seeds.labels[:, 4] == UNLABELED).all()
        assert (seeds.labels[:, :3] == 0).all()
        assert (seeds.labels[:, 5:] == 1).all()

    def test_checkerboard_has_no_seeds(self):
        # every 3x3 window mixes 0 and 255: variance far above threshold
        img = np.zeros((8, 8), dtype=np.uint8)
        img[::2, 1::2] = 255
        img[1::2, ::2] = 255
        with pytest.raises(NoSeeds):
            select_seeds(GrayImage(img), RegionParams(min_seed_size=9))

    def test_labels_in_raster_order(self):
        img = np.full((4, 9), 0, dtype=np.uint8)
        img[:, 4] = 200  # high-variance separator column
        seeds = select_seeds(GrayImage(img), RegionParams(min_seed_size=4))
        assert seeds.labels[0, 0] == 0
        assert seeds.labels[0, 8] == 1


    def test_variance_threshold_is_exact(self):
        # the centre window holds three 1s and six 0s: variance exactly 2/9,
        # just above the double 2/9 rounds to
        img = gray([[1, 1, 1], [0, 0, 0], [0, 0, 0]])
        seeds = select_seeds(img, RegionParams(variance_threshold=2 / 9, min_seed_size=1))
        assert seeds.labels[1, 1] == UNLABELED
        assert (seeds.labels[2] == 0).all()
        seeds = select_seeds(img, RegionParams(variance_threshold=0.23, min_seed_size=1))
        assert (seeds.labels == 0).all()

    @pytest.mark.parametrize("threshold", [math.inf, math.nan])
    def test_non_finite_variance_threshold_rejected(self, threshold):
        with pytest.raises(PreconditionError):
            RegionParams(variance_threshold=threshold)


class TestGrowRegions:
    def test_already_complete_is_identity(self):
        labels = LabelMap(np.zeros((3, 3), dtype=np.int32), k=1, complete=False)
        img = GrayImage(np.full((3, 3), 5, dtype=np.uint8))
        grown = grow_regions(img, labels)
        assert (grown.labels == 0).all() and grown.complete

    def test_single_seed_fills_image(self):
        lab = np.full((4, 4), UNLABELED, dtype=np.int32)
        lab[0, 0] = 0
        seeds = LabelMap(lab, k=1, complete=False)
        img = GrayImage(np.arange(16, dtype=np.uint8).reshape(4, 4))
        grown = grow_regions(img, seeds)
        assert grown.complete and (grown.labels == 0).all()

    def test_half_fixture_grows_to_ground_truth(self):
        img = half_8x8()
        seeds = select_seeds(img, RegionParams(variance_threshold=25.0, min_seed_size=4))
        grown = grow_regions(img, seeds)
        expected = np.zeros((8, 8), dtype=np.int32)
        expected[:, 4:] = 1
        assert np.array_equal(grown.labels, expected)

    def test_seed_pixels_unchanged(self):
        img = half_8x8()
        seeds = select_seeds(img, RegionParams(variance_threshold=25.0, min_seed_size=4))
        grown = grow_regions(img, seeds)
        mask = seeds.labels != UNLABELED
        assert np.array_equal(grown.labels[mask], seeds.labels[mask])

    def test_priorities_order_close_rationals(self):
        # pixel 11 scores 1/11 against region 0 and pixel 12 scores 1/12
        # against region 1; pixel 12 goes first although its index is higher,
        # and pulls region 1's mean to 1/13, so pixel 11 follows it
        pix = np.zeros((1, 25), dtype=np.uint8)
        pix[0, [0, 24]] = 1
        lab = np.full((1, 25), UNLABELED, dtype=np.int32)
        lab[0, :11] = 0
        lab[0, 13:] = 1
        grown = grow_regions(GrayImage(pix), LabelMap(lab, k=2, complete=False))
        assert (grown.labels[0, 11:] == 1).all()

    def test_empty_seeds_rejected(self):
        lab = np.full((2, 2), UNLABELED, dtype=np.int32)
        with pytest.raises(EmptySeeds):
            grow_regions(gray([[1, 2], [3, 4]]), LabelMap(lab, k=1, complete=False))


class TestMergeSmallRegions:
    def test_no_small_regions_is_identity(self):
        lab = np.zeros((6, 6), dtype=np.int32)
        lab[:, 3:] = 1
        labels = LabelMap(lab, k=2)
        img = GrayImage(np.full((6, 6), 7, dtype=np.uint8))
        out = merge_small_regions(labels, img, RegionParams(min_region_size=16))
        assert np.array_equal(out.labels, lab)

    def test_low_contrast_small_region_merged(self):
        img = np.full((6, 6), 10, dtype=np.uint8)
        img[2, 2:4] = 12
        lab = np.zeros((6, 6), dtype=np.int32)
        lab[2, 2:4] = 1
        out = merge_small_regions(LabelMap(lab, k=2), GrayImage(img), RegionParams())
        assert out.k == 1
        assert (out.labels == 0).all()

    def test_high_contrast_small_region_kept(self):
        img = np.full((6, 6), 10, dtype=np.uint8)
        img[2, 2:4] = 250
        lab = np.zeros((6, 6), dtype=np.int32)
        lab[2, 2:4] = 1
        out = merge_small_regions(LabelMap(lab, k=2), GrayImage(img), RegionParams(contrast_guard=40.0))
        assert out.k == 2

    def test_smallest_first_and_compaction(self):
        # region 1 (2 px) merges into region 0; region 2 (3 px) then also
        # merges; final map is one compact label
        img = np.full((4, 8), 50, dtype=np.uint8)
        img[0, 6:] = 55
        img[3, 5:] = 52
        lab = np.zeros((4, 8), dtype=np.int32)
        lab[0, 6:] = 1
        lab[3, 5:] = 2
        out = merge_small_regions(LabelMap(lab, k=3), GrayImage(img), RegionParams(min_region_size=4))
        assert out.k == 1


class TestRegionStats:
    def test_constant_single_region(self):
        img = GrayImage(np.full((4, 4), 33, dtype=np.uint8))
        labels = LabelMap(np.zeros((4, 4), dtype=np.int32), k=1)
        (s,) = region_stats(labels, img)
        assert s.mean == 33.0 and s.variance == 0.0
        assert s.size_fraction == 1.0 and s.boundary_fraction == 0.0
        assert s.bbox == (0, 0, 3, 3)

    def test_mean_variance_example(self):
        img = gray([[10, 10], [10, 14]])
        labels = LabelMap(np.zeros((2, 2), dtype=np.int32), k=1)
        (s,) = region_stats(labels, img)
        assert s.mean == 11.0 and s.variance == 3.0

    def test_vertical_split_boundary_fraction(self):
        img = GrayImage(np.zeros((4, 4), dtype=np.uint8))
        lab = np.zeros((4, 4), dtype=np.int32)
        lab[:, 2:] = 1
        stats = region_stats(LabelMap(lab, k=2), img)
        for s in stats:
            assert s.size == 8
            assert s.boundary_fraction == 0.5  # 4 boundary pixels of 8

    def test_sizes_sum_to_pixel_count(self):
        lab = np.zeros((5, 6), dtype=np.int32)
        lab[2:, 3:] = 1
        stats = region_stats(LabelMap(lab, k=2), GrayImage(np.zeros((5, 6), dtype=np.uint8)))
        assert sum(s.size for s in stats) == 30

    def test_incomplete_rejected(self):
        lab = np.full((2, 2), UNLABELED, dtype=np.int32)
        lab[0, 0] = 0
        with pytest.raises(IncompleteLabels):
            region_stats(LabelMap(lab, k=1, complete=False), gray([[1, 2], [3, 4]]))

    def test_unused_label_value_skipped(self):
        # a complete map may declare k labels while one never occurs
        lab = np.zeros((3, 3), dtype=np.int32)
        lab[2, 2] = 2
        stats = region_stats(LabelMap(lab, k=3), GrayImage(np.zeros((3, 3), dtype=np.uint8)))
        assert [s.label for s in stats] == [0, 2]
        assert sum(s.size for s in stats) == 9

    @pytest.mark.parametrize("shape", [(12, 8), (8, 11)])
    def test_label_map_of_other_shape_rejected(self, shape):
        # (12, 8) is the 8x12 image's shape transposed: same pixel count
        labels = LabelMap(np.zeros(shape, dtype=np.int32), k=1)
        with pytest.raises(PreconditionError):
            region_stats(labels, GrayImage(np.zeros((8, 12), dtype=np.uint8)))


class TestPrimarySegment:
    def test_constant_image(self):
        result = primary_segment(GrayImage(np.full((8, 8), 77, dtype=np.uint8)))
        assert result.labels.k == 1
        (s,) = result.stats
        assert s.variance == 0.0 and s.size_fraction == 1.0

    def test_noise_free_halves(self):
        img = np.full((16, 16), 10, dtype=np.uint8)
        img[:, 8:] = 200
        result = primary_segment(GrayImage(img), RegionParams(min_seed_size=4))
        assert result.labels.k == 2
        expected = np.zeros((16, 16), dtype=np.int32)
        expected[:, 8:] = 1
        assert np.array_equal(result.labels.labels, expected)
        # within-region variation is zero while the border contrast is 190
        assert all(s.variance == 0.0 for s in result.stats)
        means = sorted(s.mean for s in result.stats)
        assert means[1] - means[0] == 190.0

    def test_noisy_fixture_two_regions_99pct(self):
        pix, truth = noisy_half_image()
        result = primary_segment(GrayImage(pix))
        assert result.labels.k == 2
        assert misclassified(result.labels.labels, truth) <= truth.size * 0.01

    def test_stats_use_original_image(self):
        # smoothing would change the means near the step; stats must not
        pix, _ = noisy_half_image()
        result = primary_segment(GrayImage(pix))
        sizes = {s.label: s.size for s in result.stats}
        means = sorted(s.mean for s in result.stats)
        raw_left = pix[:, :32].astype(float).mean()
        raw_right = pix[:, 32:].astype(float).mean()
        assert means[0] == pytest.approx(raw_left, abs=2.0)
        assert means[1] == pytest.approx(raw_right, abs=2.0)
        assert sum(sizes.values()) == pix.size

    def test_deterministic(self):
        pix, _ = noisy_half_image()
        a = primary_segment(GrayImage(pix))
        b = primary_segment(GrayImage(pix))
        assert np.array_equal(a.labels.labels, b.labels.labels)
        assert a.stats == b.stats
