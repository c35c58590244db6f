from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from segkit.errors import EmptyHistogram, EvenWindow, NoTwoPeaks, PreconditionError
from segkit.raster import GrayImage, RgbImage
from segkit.threshold import (
    Histogram,
    ThresholdReport,
    _local_maxima,
    _window_sums,
    binarize,
    gray_histogram,
    otsu_threshold,
    valley_threshold,
)

from fixture_builders import lcg_bytes


def gray(rows):
    return GrayImage(np.array(rows, dtype=np.uint8))


def hist_from_counts(pairs):
    counts = np.zeros(256, dtype=np.int64)
    for bin_, c in pairs:
        counts[bin_] = c
    return Histogram(counts)


class TestGrayHistogram:
    def test_counting(self):
        h = gray_histogram(gray([[0, 0], [255, 7]]))
        assert h.counts[0] == 2 and h.counts[7] == 1 and h.counts[255] == 1
        assert h.total == 4

    def test_constant(self):
        h = gray_histogram(GrayImage(np.full((3, 3), 5, dtype=np.uint8)))
        assert h.counts[5] == 9 and h.total == 9

    def test_total_conservation(self):
        img = GrayImage(lcg_bytes(3, 60).reshape(6, 10))
        assert gray_histogram(img).total == 60

    def test_color_image_is_refused(self):
        # its 64 color bins, not its 3 * height * width samples counted as gray
        with pytest.raises(PreconditionError, match="256 bins"):
            gray_histogram(RgbImage(np.zeros((2, 2, 3), dtype=np.uint8)))


def window_sums_loop(counts, window):
    """Reference for _window_sums: each bin's window of edge-replicated
    bins, summed as Python ints."""
    c, r = [int(v) for v in counts], window // 2
    return [sum(c[min(max(j, 0), 255)] for j in range(i - r, i + r + 1)) for i in range(256)]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(
        arrays(np.uint8, 256),
        arrays(np.int64, 256, elements=st.integers(0, 2**63 - 1)),
        arrays(np.uint64, 256, elements=st.integers(0, 2**64 - 1)),
    ),
    st.integers(0, 40).map(lambda r: 2 * r + 1),
)
def test_window_sums_are_exact(counts, window):
    # int64 sums of these counts would wrap
    assert _window_sums(counts, window).tolist() == window_sums_loop(counts, window)


def test_valley_decides_integer_counts_on_exact_sums():
    # int64 counts of 2**60 order exactly, where float averages tie
    counts = np.full(256, 2**60, dtype=np.int64)
    counts[[30, 220]] += 2**20
    counts[120] -= 1
    assert valley_threshold(Histogram(counts), 1).level == 120


def test_histogram_refuses_real_valued_counts():
    # a float moving average of integer counts, which neither selector takes
    counts = np.convolve(np.pad(two_peak_fixture().counts, 2, mode="edge"), np.ones(5) / 5, mode="valid")
    with pytest.raises(PreconditionError, match="integer counts"):
        Histogram(counts)


def two_peak_fixture():
    counts = np.array(
        [5 + max(0, 50 - abs(b - 60)) + max(0, 50 - abs(b - 190)) for b in range(256)],
        dtype=np.int64,
    )
    return Histogram(counts)


def local_maxima_loop(counts):
    """Reference for _local_maxima: the per-bin definition as a loop."""
    maxima = []
    for b in range(256):
        left = counts[b - 1] if b > 0 else None
        right = counts[b + 1] if b < 255 else None
        ge_left = left is None or counts[b] >= left
        ge_right = right is None or counts[b] >= right
        gt_some = (left is not None and counts[b] > left) or (
            right is not None and counts[b] > right
        )
        if ge_left and ge_right and gt_some:
            maxima.append(b)
    return maxima


class TestLocalMaxima:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(0)
        for i in range(300):
            counts = rng.integers(0, 4, 256)  # few levels: many plateaus
            if i % 3 == 1:
                counts = np.repeat(counts[:32], 8)  # wide plateaus
            elif i % 3 == 2:
                counts = _window_sums(counts, 5)  # the valley search's input
            assert _local_maxima(counts) == local_maxima_loop(counts)


class TestValleyThreshold:
    def test_two_peak_fixture_exhaustive_oracle(self):
        h = two_peak_fixture()
        report = valley_threshold(h, smooth_window=1, min_separation=16)
        assert report.peaks == (60, 190)
        # independent oracle: scan every bin strictly between the peaks
        between = {b: h.counts[b] for b in range(61, 190)}
        expected = min(between, key=lambda b: (between[b], b))
        assert expected == 110
        assert report.level == expected
        assert report.peaks[0] < report.level < report.peaks[1]

    def test_mirror_fixture(self):
        h = two_peak_fixture()
        mirrored = Histogram(h.counts[::-1].copy())
        report = valley_threshold(mirrored, smooth_window=1, min_separation=16)
        assert report.peaks == (255 - 190, 255 - 60)
        between = {b: mirrored.counts[b] for b in range(66, 195)}
        expected = min(between, key=lambda b: (between[b], b))
        assert report.level == expected == 255 - 140  # original plateau high end

    def test_constant_histogram_has_no_peaks(self):
        with pytest.raises(NoTwoPeaks):
            valley_threshold(Histogram(np.full(256, 3, dtype=np.int64)), 1, 16)

    def test_close_peaks_rejected(self):
        h = hist_from_counts([(100, 10), (104, 9), (98, 1), (102, 1), (106, 1)])
        with pytest.raises(NoTwoPeaks):
            valley_threshold(h, smooth_window=1, min_separation=16)

    @pytest.mark.parametrize("window, error", [(4, EvenWindow), (3.0, PreconditionError), (2.5, PreconditionError)])
    def test_window_must_be_an_odd_int(self, window, error):
        with pytest.raises(error, match="window"):
            valley_threshold(two_peak_fixture(), window)

    def test_pair_not_involving_tallest_peak(self):
        # tallest max at 128 has no partner 40+ bins away, but the two
        # shorter maxima are mutually separated and must be chosen
        h = hist_from_counts(
            [(128, 100), (100, 90), (156, 90), (99, 1), (101, 1), (127, 1), (129, 1), (155, 1), (157, 1)]
        )
        report = valley_threshold(h, smooth_window=1, min_separation=40)
        assert report.peaks == (100, 156)


class TestOtsuThreshold:
    def test_two_spikes_tie_to_smallest(self):
        report = otsu_threshold(hist_from_counts([(50, 2), (200, 2)]))
        assert report.level == 50

    def test_single_bin_degenerate(self):
        report = otsu_threshold(hist_from_counts([(9, 7)]))
        assert report.level == 0

    def test_empty_histogram(self):
        with pytest.raises(EmptyHistogram):
            otsu_threshold(Histogram(np.zeros(256, dtype=np.int64)))

    def test_matches_exact_fraction_oracle(self):
        # definition-faithful oracle in exact rational arithmetic
        def oracle(counts):
            n_total = int(counts.sum())
            best_t, best_score = 0, Fraction(0)
            for t in range(256):
                n0 = int(counts[: t + 1].sum())
                n1 = n_total - n0
                if n0 == 0 or n1 == 0:
                    continue
                s0 = int((counts[: t + 1] * np.arange(t + 1)).sum())
                s1 = int((counts * np.arange(256)).sum()) - s0
                w0 = Fraction(n0, n_total)
                w1 = Fraction(n1, n_total)
                mu0 = Fraction(s0, n0)
                mu1 = Fraction(s1, n1)
                score = w0 * w1 * (mu0 - mu1) ** 2
                if score > best_score:
                    best_t, best_score = t, score
            return best_t

        for seed in range(60):
            counts = lcg_bytes(seed + 500, 256).astype(np.int64)
            h = Histogram(counts)
            assert otsu_threshold(h).level == oracle(counts)


    @pytest.mark.parametrize(
        "dtype, pairs, level",
        [
            # int64 cumulative sums wrapped: the mass read negative, or the
            # wrong level came back without a warning
            (np.int64, [(40, 2**60), (200, 2**60), (100, 1)], 100),
            (np.int64, [(40, 2**62), (200, 2**62)], 40),
            # uint64 counts were cast to int64
            (np.uint64, [(40, 2**63), (200, 2**63), (100, 1)], 100),
            (np.uint64, [(40, 2**64 - 1), (200, 2**63), (210, 2**62)], 40),
        ],
    )
    def test_large_counts_exact(self, dtype, pairs, level):
        counts = np.zeros(256, dtype=dtype)
        for bin_, c in pairs:
            counts[bin_] = c
        assert otsu_threshold(Histogram(counts)).level == level


class TestHistogram:
    @pytest.mark.parametrize("dtype", [np.float64, object])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad, dtype):
        counts = np.zeros(256, dtype=dtype)
        counts[[40, 200]] = 50
        counts[120] = bad
        with pytest.raises(PreconditionError):
            Histogram(counts)

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_counts_are_a_read_only_copy(self, dtype):
        given = np.zeros(256, dtype=dtype)
        h = Histogram(given)
        with pytest.raises(ValueError):
            h.counts[3] = -7
        given[3] = -7
        assert h.total == 0 and h.counts[3] == 0

    def test_object_int_counts_past_float_range_accepted(self):
        counts = np.zeros(256, dtype=object)
        counts[40] = 10**400
        counts[200] = 7
        assert Histogram(counts).counts[40] == 10**400

    @pytest.mark.parametrize("dtype, count", [(np.int64, 2**62), (np.uint64, 2**63), (object, 10**400)])
    def test_integer_total_is_the_exact_sum(self, dtype, count):
        # an int64 sum of two 2**62 counts wraps to -2**63, a uint64 sum of
        # two 2**63 counts to 0
        counts = np.zeros(256, dtype=dtype)
        counts[[0, 255]] = count
        total = Histogram(counts).total
        assert type(total) is int and total == 2 * count

    @pytest.mark.parametrize(
        "dtype, entry",
        [
            (np.float64, 5.0),  # integral values too: the dtype decides
            (np.float64, 2.5),
            (np.bool_, True),
            (object, 5.0),
            (object, Fraction(7)),
            (object, np.float64(5.0)),
            (object, None),
            (object, True),  # operator.index accepts it as 1
        ],
        ids=["float64-integral", "float64", "bool", "object-float", "object-fraction", "object-np-float64",
             "object-none", "object-bool"],
    )
    def test_real_valued_counts_refused(self, dtype, entry):
        counts = np.zeros(256, dtype=dtype)
        counts[[40, 200]] = entry
        with pytest.raises(PreconditionError, match="integer counts"):
            Histogram(counts)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.one_of(
            arrays(np.uint8, 256),
            arrays(np.int64, 256, elements=st.integers(0, 2**63 - 1)),
            arrays(np.uint64, 256, elements=st.integers(0, 2**64 - 1)),
            arrays(object, 256, elements=st.integers(0, 2**200)),
            # mostly empty: empty histograms and single spikes
            arrays(np.int64, 256, elements=st.sampled_from([0] * 15 + [1, 2**40])),
        ),
        st.integers(0, 8).map(lambda r: 2 * r + 1),
    )
    def test_every_histogram_is_a_selector_input(self, counts, window):
        # every Histogram gets a level, or an error about its mass (otsu) or
        # its peaks (valley), never one about the type of its counts
        h = Histogram(counts)
        try:
            otsu_threshold(h)
        except EmptyHistogram:
            assert h.total == 0
        try:
            valley_threshold(h, window)
        except NoTwoPeaks:
            pass


def object_counts(pairs):
    counts = np.zeros(256, dtype=object)
    for bin_, c in pairs:
        counts[bin_] = c
    return Histogram(counts)


class TestObjectIntCounts:
    def test_counts_past_the_float_range_get_exact_levels(self):
        h = object_counts([(40, 10**400), (200, 7)])
        # every t in [40, 199] splits the two spikes apart; ties go to the smallest
        assert otsu_threshold(h).level == 40
        # window 5 spreads each spike over two bins either side: plateaus
        # 38..42 and 198..202, and the first empty sum between them is bin 43
        assert valley_threshold(h) == ThresholdReport(level=43, method="valley", peaks=(38, 198))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(arrays(np.int64, 256, elements=st.integers(0, 1000)), st.integers(0, 8).map(lambda r: 2 * r + 1))
    def test_small_ints_give_the_int64_levels(self, counts, window):
        as_int64, as_objects = Histogram(counts), Histogram(counts.astype(object))
        assert as_objects.counts.dtype == object
        for select in (otsu_threshold, lambda h: valley_threshold(h, window)):
            assert outcome(select, as_objects) == outcome(select, as_int64)

    @pytest.mark.parametrize("entries", [[5.0, 7], [5, 7.5], [5, Fraction(7)]])
    def test_non_int_objects_refused(self, entries):
        with pytest.raises(PreconditionError, match="integer counts"):
            object_counts(zip((40, 200), entries))


def outcome(select, h):
    """select(h), or the type and message of the error it raises."""
    try:
        return select(h)
    except (NoTwoPeaks, EmptyHistogram) as exc:
        return type(exc), str(exc)


class TestBinarize:
    def test_definition(self):
        labels = binarize(gray([[0, 0], [255, 7]]), 7)
        assert labels.labels.ravel().tolist() == [0, 0, 1, 0]
        assert labels.k == 2 and labels.complete

    def test_level_255_all_zero(self):
        labels = binarize(gray([[1, 255]]), 255)
        assert labels.labels.max() == 0

    def test_level_zero_all_one(self):
        labels = binarize(gray([[1, 2], [3, 255]]), 0)
        assert labels.labels.min() == 1

    def test_partition_is_complete(self):
        img = GrayImage(lcg_bytes(21, 64).reshape(8, 8))
        labels = binarize(img, 128)
        assert labels.complete
        assert set(np.unique(labels.labels)) <= {0, 1}
