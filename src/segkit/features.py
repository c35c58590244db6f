"""Histogram features: per-pixel local histograms and whole-image features.

Local features are plain intensity histograms of a square window around
each pixel (window coordinates clamp at the borders, so every histogram
holds exactly window^2 samples). Window classification labels each pixel
by the nearest exemplar histogram under L1 distance; boundary refinement
iterates that idea against per-class mean histograms.

No per-pixel histogram is stored for the whole image. Window counts are
gathered from the edge-padded raster for one block of pixels at a time,
sized by _BLOCK_ELEMENTS. Classification computes dense float distances
only at one anchor column per _STRIP columns and slides each anchor's
window right across its strip, updating the window counts and every
exemplar's distance at the 2 * window bins that a column step touches:
time is O(HW * window * k) plus O(256 * k + window^2) per anchor pixel,
and memory beyond the padded image and the label map is one block of
(strip, row) pairs. A pixel whose best and runner-up slid distances lie
within a derived rounding bound (exact and near ties) is classified again
by the dense pass, so labels stay bit-identical to the full (H, W, 256)
count tensor's. A class's summed window histogram is an exact int64 box
sum: intensity v of padded pixel q counts once for each class member whose
window holds q, a window x window box count of the class mask read from
raster.window_sums, segkit's 2-D box-sum kernel, and tallied per intensity
with np.add.at, as classification tallies. Refinement then gathers window
counts only for boundary pixels and classifies them densely.
"""

from __future__ import annotations

import numpy as np

from .errors import IncompleteLabels, NoExemplars, PreconditionError
from .raster import (  # global_feature stays importable from here
    GRAY_DIM,
    FeatureVector,
    GrayImage,
    LabelMap,
    boundary_mask,
    frozen,
    global_feature,
    label_bounds,
    pad_edge,
    require_int,
    require_odd_window,
    require_same_shape,
    window_sums,
)

DEFAULT_WINDOW = 9

# Entries per temporary array of one block of window counts or distances
# (1 MB at 8 bytes each), so memory does not grow with the image.
_BLOCK_ELEMENTS = 1 << 17

# Columns per strip of classify_windows: each strip pays one dense distance
# per row and slides its window across the other columns.
_STRIP = 32


@frozen
class Exemplar:
    """A class prototype: label index plus its 256-bin gray feature."""

    label: int
    feature: FeatureVector

    def __post_init__(self):
        if not 0 <= self.label <= np.iinfo(np.int32).max:  # labels are int32
            raise PreconditionError(f"exemplar label must be in [0, 2**31 - 1], got {self.label}")
        if self.feature.dimension != GRAY_DIM:
            raise PreconditionError("exemplar features must have 256 bins")


def _local_counts(padded: np.ndarray, window: int, pixels: np.ndarray) -> np.ndarray:
    """(len(pixels), 256) int64 intensity counts of the clamped windows of
    the given flat pixel indices, read from the image padded by window // 2."""
    pw = padded.shape[1]
    ys, xs = np.divmod(pixels, pw - window + 1)
    offsets = (np.arange(window, dtype=np.int64)[:, None] * pw + np.arange(window)).ravel()
    rows = np.arange(pixels.size, dtype=np.int64)[:, None] * GRAY_DIM
    keys = padded.ravel()[(ys * pw + xs)[:, None] + offsets] + rows
    return np.bincount(keys.ravel(), minlength=pixels.size * GRAY_DIM).reshape(-1, GRAY_DIM)


def _l1(counts: np.ndarray, area: int, centers: np.ndarray) -> np.ndarray:
    """(len(counts), len(centers)) float L1 distances between the normalized
    window histograms counts / area and the centers. Every nearest-window
    decision in this module is an argmin of these values or provably agrees
    with one."""
    diffs = (counts / area)[:, None, :] - centers[None, :, :]
    return np.abs(diffs, out=diffs).sum(axis=2)


def _dense_blocks(padded: np.ndarray, window: int, pixels: np.ndarray, centers: np.ndarray):
    """Yield (slice of pixels, window counts, _l1 distances) for blocks of
    as many pixels as keep each temporary of a block (window samples,
    counts, distances to the centers) within _BLOCK_ELEMENTS entries, and at
    least one."""
    area = window * window
    step = max(1, _BLOCK_ELEMENTS // max(area, len(centers) * GRAY_DIM))
    for start in range(0, pixels.size, step):
        block = slice(start, start + step)
        counts = _local_counts(padded, window, pixels[block])
        yield block, counts, _l1(counts, area, centers)


def _nearest_windows(
    padded: np.ndarray, window: int, pixels: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    """Index of the L1-nearest center to the normalized window histogram of
    each given flat pixel index; ties go to the lowest index."""
    nearest = np.empty(pixels.size, dtype=np.int32)
    for block, _, dist in _dense_blocks(padded, window, pixels, centers):
        nearest[block] = np.argmin(dist, axis=1)
    return nearest


def _slide_bounds(window: int, steps: int) -> np.ndarray:
    """Margins that a slid runner-up distance must exceed the best one by,
    after 0..steps column updates, for the best to be _l1's unique minimum.

    Let u = 2**-53, a_v = h_v / area, e a center and M = 3, which bounds
    sum_v (a_v + e_v) since an exemplar's bins sum to 1 within
    _NORMALIZATION_TOL.
    - A term |fl(fl(h_v / area) - e_v)| is within u a_v + u |fl(h_v / area)
      - e_v| <= 3u (a_v + e_v) of |a_v - e_v|. _l1 adds 256 terms, whose
      sum is at most M (1 + 3u), in some order, which rounds by at most
      gamma_255 M (1 + 3u) <= 256uM: _l1 is within eps_dense = 260uM of the
      real L1 distance.
    - An update adds, over the distinct touched bins, the rounded difference
      of a new and an old term: 3uM + 3uM for the terms, at most 3uM for the
      differences, gamma_(2 * window - 1) 2M (1 + 5u) <= 5 * window * uM for
      summing the 2 * window addends (2 * window * u < 2**-23: pad_edge
      first padded the image into a real uint8 array of at least window**2
      bytes, under 2**57, the largest user address space, so window < 2**29)
      and uM for adding the sum into a distance, which stays below M:
      eps_step = (5 * window + 11) uM.
    After t updates a slid distance is within eps_dense + t * eps_step of
    the real one, and _l1's within eps_dense; a lead of more than twice
    their sum in the slid distances is a strict lead in _l1's."""
    u_m = 3 * 2.0**-53
    eps_dense, eps_step = 260 * u_m, (5 * window + 11) * u_m
    return 2 * (2 * eps_dense + np.arange(steps + 1) * eps_step)


def _classify_sliding(
    padded: np.ndarray, window: int, shape: tuple[int, int], centers: np.ndarray
) -> np.ndarray:
    """_nearest_windows over every pixel of an image of the given shape, in
    raster order, with each window's distances slid from its left neighbour's.

    The anchor columns, one every _STRIP (the last one moved left so that
    every strip holds min(_STRIP, w) columns), get dense _l1 distances. Each
    anchor's window then slides right across its strip, for a block of
    (strip, row) pairs at once: a step removes the leaving column's window
    samples, adds the entering column's, and updates the window counts and
    each center's distance at the touched bins only. A slid pixel keeps its
    slid argmin when the runner-up trails by more than _slide_bounds; the
    others (exact and near ties) go through _nearest_windows. The centers
    are exemplar features, whose bins sum to 1 as _slide_bounds assumes:
    a FeatureVector checks the sum when it is built and owns its read-only
    bins (raster._exact_cast), so no later write can break it."""
    h, w = shape
    pw = padded.shape[1]
    area = window * window
    k = len(centers)
    if k == 1:
        return np.zeros(h * w, dtype=np.int32)
    length = min(_STRIP, w)
    anchors = np.minimum(np.arange(0, w, _STRIP), w - length)
    # every (strip, row) pair's anchor pixel, strip-major
    pairs = (np.arange(h)[None, :] * w + anchors[:, None]).ravel()
    bounds = _slide_bounds(window, length - 1)
    nearest = np.empty(h * w, dtype=np.int32)
    tied = np.zeros(h * w, dtype=bool)
    flat = padded.ravel()
    # the smallest types that hold a signed window count and a sample
    # position keep the per-pair state small enough to stay in cache
    count_type = np.promote_types(np.min_scalar_type(area), np.int8)
    position_type = np.min_scalar_type(2 * window)
    # pairs per block: each (center, sample, pair) temporary within
    # _BLOCK_ELEMENTS entries, and the window counts within four times that
    step = max(1, min(_BLOCK_ELEMENTS // (2 * window * k), 4 * _BLOCK_ELEMENTS // GRAY_DIM))
    for start in range(0, pairs.size, step):
        pixels = pairs[start : start + step]
        n = pixels.size
        counts = np.empty((n, GRAY_DIM), dtype=count_type)
        dist = np.empty((k, n))
        for block, c, d in _dense_blocks(padded, window, pixels, centers):
            counts[block], dist[:, block] = c, d.T
        nearest[pixels] = np.argmin(dist, axis=0)
        counts = counts.ravel()
        stamp = np.empty(counts.size, dtype=position_type)
        rows = np.arange(n) * GRAY_DIM
        y, x = np.divmod(pixels, w)
        # padded flat indices of the samples that the first step removes
        # (the anchor window's first column) and adds (the column right of
        # the anchor window), sample-major
        column = (y + np.arange(window)[:, None]) * pw + x
        touched = np.concatenate((column, column + window))
        signs = np.repeat(np.array([-1, 1], dtype=count_type), window * n)
        positions = np.repeat(np.arange(2 * window, dtype=position_type), n).reshape(touched.shape)
        at, keys = np.empty((2, *touched.shape), dtype=np.intp)
        samples = np.empty(touched.shape, dtype=np.uint8)
        before, after = np.empty((2, *touched.shape), dtype=count_type)
        e, old, new = np.empty((3, k, *touched.shape))
        for t in range(1, length):
            np.add(touched, t - 1, out=at)
            np.take(flat, at, out=samples)
            values = samples.astype(np.intp)
            np.add(values, rows, out=keys)
            np.take(counts, keys, out=before)
            np.add.at(counts, keys.ravel(), signs)
            np.take(counts, keys, out=after)
            # a bin touched twice changes once: at the one sample whose
            # position survived the scatter into stamp
            np.put(stamp, keys, positions)
            after -= before
            after *= stamp[keys] == positions
            after += before
            np.take(centers, values, axis=1, out=e)
            np.subtract(after / area, e, out=new)
            np.abs(new, out=new)
            np.subtract(before / area, e, out=old)
            np.abs(old, out=old)
            new -= old
            dist += new.sum(axis=1)
            nearest[pixels + t] = np.argmin(dist, axis=0)
            two = np.partition(dist, 1, axis=0)
            tied[pixels + t] = two[1] - two[0] <= bounds[t]
    fallback = np.flatnonzero(tied)
    nearest[fallback] = _nearest_windows(padded, window, fallback, centers)
    return nearest


def _class_sums(
    lab: np.ndarray, padded: np.ndarray, window: int, classes: np.ndarray
) -> np.ndarray:
    """Exact (len(classes), 256) int64 sums of the window counts of each
    class's pixels.

    The sum over class c is sum_q [padded[q] == v] * cover_c[q], where
    cover_c[q] counts the class-c pixels whose window holds padded pixel q;
    cover_c is nonzero only on the class's bounding box grown by window - 1.
    """
    x0, y0, x1, y1 = label_bounds(lab, int(classes[-1]) + 1)
    sums = np.zeros((classes.size, GRAY_DIM), dtype=np.int64)
    for i, c in enumerate(classes.tolist()):
        mask = lab[y0[c] : y1[c] + 1, x0[c] : x1[c] + 1] == c
        cover = window_sums(np.pad(mask, window - 1), window)
        vals = padded[y0[c] : y1[c] + window, x0[c] : x1[c] + window].ravel()
        np.add.at(sums[i], vals, cover.ravel())  # per-intensity totals, exact in int64
    return sums


def local_histogram(image: GrayImage, x: int, y: int, window: int) -> FeatureVector:
    """Normalized 256-bin histogram of the window centered at (x, y)."""
    window = require_odd_window(window)
    x, y = require_int(x, "x"), require_int(y, "y")
    if not (0 <= x < image.width and 0 <= y < image.height):
        raise PreconditionError(f"({x}, {y}) outside {image.width}x{image.height} image")
    counts = _local_counts(pad_edge(image.pixels, window // 2), window, np.array([y * image.width + x]))
    return FeatureVector(counts[0] / (window * window))


def classify_windows(
    image: GrayImage, exemplars: list[Exemplar], window: int = DEFAULT_WINDOW
) -> LabelMap:
    """Label every pixel with the exemplar nearest its local histogram.

    Distance is L1 between normalized histograms; ties go to the lowest
    exemplar label. The label map's k is max exemplar label + 1.
    """
    if not exemplars:
        raise NoExemplars("need at least one exemplar")
    order = sorted(range(len(exemplars)), key=lambda i: (exemplars[i].label, i))
    feats = np.stack([exemplars[i].feature.bins for i in order])
    labels_of = np.array([exemplars[i].label for i in order], dtype=np.int32)
    k = int(labels_of.max()) + 1
    # a feature equal to an earlier one is never nearest: ties go to the earlier
    first: dict[bytes, int] = {}
    keep = [i for i, f in enumerate(feats) if first.setdefault(f.tobytes(), i) == i]

    window = require_odd_window(window)
    padded = pad_edge(image.pixels, window // 2)
    out = labels_of[keep][_classify_sliding(padded, window, image.pixels.shape, feats[keep])]
    return LabelMap(labels=out.reshape(image.pixels.shape), k=k, complete=True)


def refine_boundaries(
    labels: LabelMap, image: GrayImage, window: int, iterations: int
) -> LabelMap:
    """Reassign boundary pixels to the class with the nearest mean histogram.

    Each iteration recomputes every class's mean of its members' local
    histograms from the current segmentation, then simultaneously moves
    every boundary pixel (one with a differing 4-neighbor) to the class
    whose mean is L1-nearest to the pixel's own local histogram. Interior
    pixels never change; iteration stops early at a fixed point.
    """
    if not labels.complete:
        raise IncompleteLabels("refine_boundaries needs a complete label map")
    require_same_shape(labels, image)
    iterations = require_int(iterations, "iterations")
    if iterations < 0:
        raise PreconditionError("iterations must be >= 0")
    window = require_odd_window(window)
    padded = pad_edge(image.pixels, window // 2)
    lab = labels.labels.copy()
    k = labels.k
    area = window * window
    flat = lab.ravel()  # a view: writes move lab

    for _ in range(iterations):
        idx = np.flatnonzero(boundary_mask(lab))
        if idx.size == 0:
            break
        class_sizes = np.bincount(flat)
        present = np.flatnonzero(class_sizes)  # empty classes attract nothing
        # exact integer count sums per class; mean histogram divides once
        sums = _class_sums(lab, padded, window, present)
        means = sums / (class_sizes[present, None] * float(area))
        new_labels = present[_nearest_windows(padded, window, idx, means)]
        if np.array_equal(new_labels, flat[idx]):
            break
        flat[idx] = new_labels
    return LabelMap(labels=lab, k=k, complete=True)
