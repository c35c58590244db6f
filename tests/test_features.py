import numpy as np
import pytest

from segkit.errors import EvenWindow, NoExemplars, PreconditionError
from segkit.features import (
    Exemplar,
    FeatureVector,
    classify_windows,
    global_feature,
    local_histogram,
    refine_boundaries,
)
from segkit.raster import GrayImage, LabelMap, RgbImage

from fixture_builders import lcg_bytes, misclassified, noisy_half_image


def delta_feature(value, dim=256):
    bins = np.zeros(dim)
    bins[value] = 1.0
    return FeatureVector(bins)


def half_16x16():
    img = np.full((16, 16), 10, dtype=np.uint8)
    img[:, 8:] = 200
    return GrayImage(img)


class TestFeatureVector:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(PreconditionError):
            FeatureVector(np.array([0.5, bad]), normalized=False)


class TestLocalHistogram:
    def test_constant_area(self):
        img = GrayImage(np.full((5, 5), 7, dtype=np.uint8))
        f = local_histogram(img, 2, 2, 3)
        assert f.bins[7] == 1.0 and f.bins.sum() == 1.0

    def test_window_one_is_delta(self):
        img = GrayImage(np.arange(9, dtype=np.uint8).reshape(3, 3))
        f = local_histogram(img, 1, 2, 1)
        assert f.bins[img.pixels[2, 1]] == 1.0

    def test_bins_sum_to_one(self):
        img = GrayImage(lcg_bytes(1, 49).reshape(7, 7))
        for window in (1, 3, 5):
            f = local_histogram(img, 3, 3, window)
            assert f.bins.sum() == pytest.approx(1.0, abs=1e-12)

    def test_border_clamping(self):
        img = GrayImage(np.array([[0, 255]], dtype=np.uint8))
        f = local_histogram(img, 0, 0, 3)
        # window samples clamp: 6 copies of pixel 0, 3 of pixel 1
        assert f.bins[0] == pytest.approx(6 / 9)
        assert f.bins[255] == pytest.approx(3 / 9)

    def test_even_window_rejected(self):
        with pytest.raises(EvenWindow):
            local_histogram(half_16x16(), 1, 1, 4)

    def test_disjoint_constant_areas_orthogonal(self):
        img = half_16x16()
        left = local_histogram(img, 2, 8, 3)
        right = local_histogram(img, 13, 8, 3)
        assert np.abs(left.bins - right.bins).sum() == 2.0


class TestClassifyWindows:
    def test_single_exemplar_labels_everything(self):
        img = half_16x16()
        labels = classify_windows(img, [Exemplar(0, delta_feature(50))], window=3)
        assert (labels.labels == 0).all() and labels.complete

    def test_uniform_image_matches_own_delta(self):
        img = GrayImage(np.full((6, 6), 40, dtype=np.uint8))
        exemplars = [Exemplar(0, delta_feature(200)), Exemplar(1, delta_feature(40))]
        labels = classify_windows(img, exemplars, window=3)
        assert (labels.labels == 1).all()

    def test_half_fixture_away_from_step(self):
        img = half_16x16()
        exemplars = [Exemplar(0, delta_feature(10)), Exemplar(1, delta_feature(200))]
        labels = classify_windows(img, exemplars, window=3)
        # pixels two or more columns from the step have pure windows
        assert (labels.labels[:, :6] == 0).all()
        assert (labels.labels[:, 10:] == 1).all()
        # even mixed windows resolve to the majority side
        assert (labels.labels[:, :8] == 0).all()
        assert (labels.labels[:, 8:] == 1).all()

    def test_no_exemplars_rejected(self):
        with pytest.raises(NoExemplars):
            classify_windows(half_16x16(), [], window=3)

    def test_tie_goes_to_lowest_label(self):
        img = GrayImage(np.full((3, 3), 100, dtype=np.uint8))
        exemplars = [Exemplar(1, delta_feature(90)), Exemplar(0, delta_feature(110))]
        labels = classify_windows(img, exemplars, window=1)
        assert (labels.labels == 0).all()

    def test_large_window_counts_do_not_wrap(self):
        # a 257x257 window holds 66049 samples, more than uint16 can count
        pix = np.full((10, 10), 50, dtype=np.uint8)
        pix[0, 4] = pix[0, 5] = 200
        exemplars = [Exemplar(0, delta_feature(50)), Exemplar(1, delta_feature(200))]
        labels = classify_windows(GrayImage(pix), exemplars, window=257)
        assert (labels.labels == 0).all()


class TestRefineBoundaries:
    def test_zero_iterations_identity(self):
        img = half_16x16()
        exemplars = [Exemplar(0, delta_feature(10)), Exemplar(1, delta_feature(200))]
        labels = classify_windows(img, exemplars, window=3)
        out = refine_boundaries(labels, img, 3, 0)
        assert np.array_equal(out.labels, labels.labels)

    def test_perfect_segmentation_is_fixed_point(self):
        img = half_16x16()
        lab = np.zeros((16, 16), dtype=np.int32)
        lab[:, 8:] = 1
        from segkit.raster import LabelMap

        perfect = LabelMap(lab, k=2)
        out = refine_boundaries(perfect, img, 3, 5)
        assert np.array_equal(out.labels, lab)

    def test_misassigned_column_flips_back(self):
        img = half_16x16()
        lab = np.zeros((16, 16), dtype=np.int32)
        lab[:, 7:] = 1  # column 7 wrongly assigned to class 1
        from segkit.raster import LabelMap

        out = refine_boundaries(LabelMap(lab, k=2), img, 3, 5)
        expected = np.zeros((16, 16), dtype=np.int32)
        expected[:, 8:] = 1
        assert np.array_equal(out.labels, expected)

    def test_only_boundary_pixels_change(self):
        pix, _ = noisy_half_image(size=32)
        img = GrayImage(pix)
        exemplars = [
            Exemplar(0, global_feature(GrayImage(pix[:, :16]))),
            Exemplar(1, global_feature(GrayImage(pix[:, 16:]))),
        ]
        labels = classify_windows(img, exemplars, window=5)
        out = refine_boundaries(labels, img, 5, 1)
        changed = labels.labels != out.labels
        lab = labels.labels
        boundary = np.zeros_like(changed)
        boundary[:, :-1] |= lab[:, :-1] != lab[:, 1:]
        boundary[:, 1:] |= lab[:, :-1] != lab[:, 1:]
        boundary[:-1, :] |= lab[:-1, :] != lab[1:, :]
        boundary[1:, :] |= lab[:-1, :] != lab[1:, :]
        assert not (changed & ~boundary).any()

    def test_noisy_fixture_accuracy(self):
        pix, truth = noisy_half_image()
        img = GrayImage(pix)
        exemplars = [
            Exemplar(0, global_feature(GrayImage(pix[:, :32]))),
            Exemplar(1, global_feature(GrayImage(pix[:, 32:]))),
        ]
        labels = classify_windows(img, exemplars, window=9)
        refined = refine_boundaries(labels, img, 9, 5)
        assert misclassified(refined.labels, truth) <= truth.size * 0.01

    @pytest.mark.parametrize("shape", [(12, 8), (8, 11)])
    def test_label_map_of_other_shape_rejected(self, shape):
        # (12, 8) is the 8x12 image's shape transposed: same pixel count
        labels = LabelMap(np.zeros(shape, dtype=np.int32), k=1)
        with pytest.raises(PreconditionError):
            refine_boundaries(labels, GrayImage(np.zeros((8, 12), dtype=np.uint8)), 3, 1)


class TestGlobalFeature:
    def test_black_color_image(self):
        img = RgbImage(np.zeros((2, 2, 3), dtype=np.uint8))
        f = global_feature(img)
        assert f.dimension == 64 and f.bins[0] == 1.0

    def test_gray_counting(self):
        img = GrayImage(np.array([[0, 0], [255, 7]], dtype=np.uint8))
        f = global_feature(img)
        assert f.bins[0] == 0.5 and f.bins[7] == 0.25 and f.bins[255] == 0.25

    def test_color_bin_indexing(self):
        img = RgbImage(np.array([[[255, 0, 64]]], dtype=np.uint8))
        f = global_feature(img)
        assert f.bins[(255 // 64) * 16 + 0 + 64 // 64] == 1.0

    def test_permutation_invariant(self):
        pix = lcg_bytes(9, 36).reshape(6, 6)
        shuffled = pix.ravel()[::-1].reshape(6, 6).copy()
        a = global_feature(GrayImage(pix))
        b = global_feature(GrayImage(shuffled))
        assert np.array_equal(a.bins, b.bins)
