"""Gray-level histograms and histogram-based binarization.

Two threshold selectors are provided: an explicit valley search between the
two dominant histogram peaks, and Otsu's between-class-variance maximizer.
Otsu scores are compared in exact integer arithmetic so the reported level
never depends on floating-point rounding.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyHistogram, NoTwoPeaks, PreconditionError
from .raster import GrayImage, LabelMap, frozen, pad_edge, require_int, require_odd_window

BINS = 256

DEFAULT_SMOOTH_WINDOW = 5
DEFAULT_MIN_SEPARATION = 16


@frozen
class Histogram:
    """256 per-level counts. Counts are integers for image histograms but
    may be real-valued after smoothing."""

    counts: np.ndarray

    def __post_init__(self):
        # not raster._exact_cast, and elementwise: object arrays of ints past
        # the float range keep their dtype for otsu_threshold
        c = np.asarray(self.counts)
        if c.shape != (BINS,):
            raise PreconditionError("histogram needs exactly 256 bins")
        if (c != c).any() or (abs(c) == np.inf).any():
            raise PreconditionError("counts must be finite")
        if c.min() < 0:
            raise PreconditionError("counts must be nonnegative")
        object.__setattr__(self, "counts", c)

    @property
    def total(self):
        return self.counts.sum()


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
    counts = np.bincount(image.pixels.ravel(), minlength=BINS).astype(np.int64)
    return Histogram(counts)


def smooth_histogram(h: Histogram, window: int) -> Histogram:
    """Moving average over bins with edge replication at bins 0 and 255.

    window must be odd and within pad_edge's bound; window 1 returns the
    counts as float64. Mass is preserved exactly for histograms whose
    support stays at least window//2 bins away from both ends; replication
    inflates mass that sits on the extreme bins for windows of 5 and up.
    """
    window = require_odd_window(window)
    padded = pad_edge(np.asarray(h.counts, dtype=np.float64), window // 2)
    return Histogram(np.convolve(padded, np.ones(window) / window, mode="valid"))


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
    resolve to the lowest bin.

    Raises NoTwoPeaks when no sufficiently separated pair exists.
    """
    min_separation = require_int(min_separation, "min_separation")
    smoothed = smooth_histogram(h, smooth_window).counts
    maxima = _local_maxima(smoothed)
    best = None
    for i in range(len(maxima)):
        for j in range(i + 1, len(maxima)):
            lo, hi = maxima[i], maxima[j]
            if hi - lo < max(min_separation, 2):
                continue
            v_hi, v_lo = sorted((smoothed[lo], smoothed[hi]), reverse=True)
            # prefer larger values, then lower bins
            key = (-v_hi, -v_lo, lo, hi)
            if best is None or key < best[0]:
                best = (key, lo, hi)
    if best is None:
        raise NoTwoPeaks(f"no two local maxima separated by >= {min_separation} bins")
    _, p_lo, p_hi = best
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
    counts = np.asarray(h.counts)
    # Python ints: int64 cumulative sums would wrap on large counts
    c = counts.tolist()
    n_total = sum(c)
    if n_total <= 0:
        raise EmptyHistogram("histogram has no mass")
    if not np.issubdtype(counts.dtype, np.integer):
        raise PreconditionError("otsu_threshold needs integer counts")
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
