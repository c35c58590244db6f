"""Gray-level histograms and histogram-based binarization.

A Histogram holds integer counts only and refuses real-valued ones when it
is built. Two threshold selectors are provided: an explicit valley search
between the two dominant histogram peaks, and Otsu's between-class-variance
maximizer. Otsu scores and the valley search's window sums are compared in
exact integer arithmetic, so the reported level never depends on
floating-point rounding.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

from .errors import EmptyHistogram, NoTwoPeaks, PreconditionError
from .raster import (GRAY_DIM, GrayImage, LabelMap, _exact_cast, frozen, global_feature_counts, pad_edge,
                     require_int, require_odd_window)

DEFAULT_SMOOTH_WINDOW = 5
DEFAULT_MIN_SEPARATION = 16


@frozen
class Histogram:
    """256 nonnegative per-level integer counts: an integer dtype, or
    objects that operator.index accepts, such as Python ints past the int64
    range. Real-valued counts, floats in an object array included, and
    bools raise PreconditionError. counts is read-only and owned by the
    histogram (raster._exact_cast), so total and the selectors read the
    counts that were checked."""

    counts: np.ndarray

    def __post_init__(self):
        # cast to the counts' own dtype: object arrays of ints past the int64
        # range keep their dtype and their exact values
        c = _exact_cast(self.counts, np.asarray(self.counts).dtype)
        if c.shape != (GRAY_DIM,):
            raise PreconditionError("histogram needs exactly 256 bins")
        if not _integer_counts(c):
            raise PreconditionError(f"histogram needs integer counts, got {c.dtype}")
        if c.min() < 0:
            raise PreconditionError("counts must be nonnegative")
        object.__setattr__(self, "counts", c)

    @property
    def total(self) -> int:
        """The exact sum of the counts as a Python int, which no int64 or
        uint64 sum wraps."""
        return sum(self.counts.tolist())


def _integer_counts(counts: np.ndarray) -> bool:
    """An integer dtype (bool is none), or an object array whose every entry
    operator.index accepts and is no bool; never floats."""
    if counts.dtype != object:
        return np.issubdtype(counts.dtype, np.integer)
    entries = counts.tolist()
    # a bool, Python's or numpy's, is no count, though operator.index reads
    # Python's as 0 or 1
    if any(isinstance(v, (bool, np.bool_)) for v in entries):
        return False
    try:
        list(map(operator.index, entries))
    except TypeError:
        return False
    return True


@frozen
class ThresholdReport:
    """Chosen gray level plus the method that produced it.

    peaks is the (low bin, high bin) pair bracketing the valley; it is set
    only by the valley method. The level always lies strictly between them.
    """

    level: int
    method: str
    peaks: tuple[int, int] | None = None


def gray_histogram(image: GrayImage) -> Histogram:
    """global_feature_counts as a Histogram: PreconditionError for an RgbImage."""
    return Histogram(global_feature_counts(image)[0])


def _window_sums(counts: np.ndarray, window: int) -> np.ndarray:
    """Exact sums, as Python ints, of integer counts over each bin's window
    with edge replication: a moving average times window, with no rounding
    and no int64 wraparound. The 1-D kernel over the bins; raster.window_sums
    is the int64 box-sum kernel over 2-D rasters."""
    window = require_odd_window(window)
    running = np.cumsum(pad_edge(counts, window // 2), dtype=object)
    return running[window - 1 :] - np.r_[0, running[:-window]]


def _local_maxima(counts: np.ndarray) -> list[int]:
    """Bins that are >= both existing neighbors and > at least one of them.

    Plateau edges qualify; plateau interiors and constant histograms do not.
    """
    a, b = counts[:-1], counts[1:]  # every adjacent pair of bins
    ge_left = np.r_[True, b >= a]
    ge_right = np.r_[a >= b, True]
    gt_some = np.r_[False, b > a] | np.r_[a > b, False]
    return np.flatnonzero(ge_left & ge_right & gt_some).tolist()


def valley_threshold(
    h: Histogram,
    smooth_window: int = DEFAULT_SMOOTH_WINDOW,
    min_separation: int = DEFAULT_MIN_SEPARATION,
) -> ThresholdReport:
    """Threshold at the deepest point between the two dominant peaks.

    The histogram is smoothed, its local maxima are found, and among all
    maxima pairs at least min_separation bins apart (and never adjacent, so
    a bin lies between them) the pair with the largest values wins
    (compared by higher value, then lower value, then lower bins). The
    level is the argmin strictly between the two peak bins; all ties
    resolve to the lowest bin. Smoothing is by exact window sums
    (_window_sums) of the integer counts.
    A window of 511 or more covers every bin from every bin, so its sums
    are linear in the bin and never hold two peaks.

    Raises NoTwoPeaks when no sufficiently separated pair exists.
    """
    min_separation = require_int(min_separation, "min_separation")
    smoothed = _window_sums(h.counts, smooth_window)
    # maxima pairs (lo, hi), lo < hi, never adjacent, so a bin lies between them
    separated = [(lo, hi) for lo, hi in itertools.combinations(_local_maxima(smoothed), 2)
                 if hi - lo >= max(min_separation, 2)]
    if not separated:
        raise NoTwoPeaks(f"no two local maxima separated by >= {min_separation} bins")
    # keyed (-higher value, -lower value, lo, hi): larger values win, then lower bins
    p_lo, p_hi = min(separated, key=lambda p: (*sorted([-smoothed[p[0]], -smoothed[p[1]]]), *p))
    between = smoothed[p_lo + 1 : p_hi]
    level = p_lo + 1 + int(np.argmin(between))
    return ThresholdReport(level=level, method="valley", peaks=(p_lo, p_hi))


def otsu_threshold(h: Histogram) -> ThresholdReport:
    """Threshold maximizing between-class variance w0*w1*(mu0-mu1)^2.

    Class 0 holds bins [0..t], class 1 bins [t+1..255]. Thresholds leaving
    a class empty score 0, and ties go to the smallest t. With counts n0,
    n1 and intensity sums s0, s1, the variance is proportional to
    (s0*n1 - s1*n0)^2 / (n0*n1); candidates are compared exactly by
    cross-multiplying these integers.
    """
    # Python ints: int64 cumulative sums would wrap on large counts
    c = h.counts.tolist()
    n_total = h.total
    if n_total <= 0:
        raise EmptyHistogram("histogram has no mass")
    s_total = sum(t * v for t, v in enumerate(c))

    best_t = 0
    best_num = 0  # (s0*n1 - s1*n0)^2
    best_den = 1  # n0*n1
    a0 = b0 = 0
    for t, v in enumerate(c):
        a0 += v
        b0 += t * v
        a1 = n_total - a0
        if a0 == 0 or a1 == 0:
            continue  # score 0, never beats a positive score; level 0 default
        b1 = s_total - b0
        num = (b0 * a1 - b1 * a0) ** 2
        den = a0 * a1
        # num/den > best_num/best_den, exact
        if num * best_den > best_num * den:
            best_t, best_num, best_den = t, num, den
    return ThresholdReport(level=best_t, method="otsu")


def binarize(image: GrayImage, level: int) -> LabelMap:
    """Label 1 where pixel > level, 0 otherwise."""
    level = require_int(level, "level")
    if not 0 <= level <= 255:
        raise PreconditionError(f"level must be in [0, 255], got {level}")
    labels = (image.pixels > level).astype(np.int32)
    return LabelMap(labels=labels, k=2, complete=True)
