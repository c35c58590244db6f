"""Histogram features: per-pixel local histograms and whole-image features.

Local features are plain intensity histograms of a square window around
each pixel (window coordinates clamp at the borders, so every histogram
holds exactly window^2 samples). Window classification labels each pixel
by the nearest exemplar histogram under L1 distance; boundary refinement
iterates that idea against per-class mean histograms.

No per-pixel histogram is stored for the whole image. Window counts are
gathered from the edge-padded raster for one block of pixels at a time,
sized by _BLOCK_ELEMENTS, and the block is classified at once: time is
O(HW * (window^2 + 256 * centers)), and memory beyond the padded image and
the label map is one block plus a pixel and a center index per classified
pixel. A class's summed window histogram is an exact int64 box sum:
intensity v of padded pixel q counts once for each class member whose
window holds q, a window x window box count of the class mask read from
raster.window_sums, the only box-sum kernel. Refinement then gathers
window counts only for boundary pixels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IncompleteLabels, NoExemplars, PreconditionError
from .raster import (
    GrayImage,
    LabelMap,
    RgbImage,
    boundary_mask,
    label_bounds,
    require_odd_window,
    require_same_shape,
    window_sums,
)

GRAY_DIM = 256
COLOR_DIM = 64

DEFAULT_WINDOW = 9

_NORMALIZATION_TOL = 1e-9

# Entries per temporary array of one block of window counts or distances
# (1 MB at 8 bytes each), so memory does not grow with the image.
_BLOCK_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class FeatureVector:
    """Histogram feature; bins sum to 1 when normalized."""

    bins: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        b = np.asarray(self.bins, dtype=np.float64)
        if b.ndim != 1 or b.size < 1:
            raise PreconditionError("bins must be a nonempty 1-D array")
        if not (np.isfinite(b).all() and b.min() >= 0):
            raise PreconditionError("bins must be finite and nonnegative")
        if self.normalized and abs(b.sum() - 1.0) > _NORMALIZATION_TOL:
            raise PreconditionError("normalized feature bins must sum to 1")
        object.__setattr__(self, "bins", b)

    @property
    def dimension(self) -> int:
        return self.bins.size


@dataclass(frozen=True)
class Exemplar:
    """A class prototype: label index plus its normalized feature."""

    label: int
    feature: FeatureVector

    def __post_init__(self):
        if not 0 <= self.label <= np.iinfo(np.int32).max:  # labels are int32
            raise PreconditionError(f"exemplar label must be in [0, 2**31 - 1], got {self.label}")
        if not self.feature.normalized:
            raise PreconditionError("exemplar feature must be normalized")


def _local_counts(padded: np.ndarray, window: int, pixels: np.ndarray) -> np.ndarray:
    """(len(pixels), 256) int64 intensity counts of the clamped windows of
    the given flat pixel indices, read from the image padded by window // 2."""
    pw = padded.shape[1]
    ys, xs = np.divmod(pixels, pw - window + 1)
    offsets = (np.arange(window, dtype=np.int64)[:, None] * pw + np.arange(window)).ravel()
    rows = np.arange(pixels.size, dtype=np.int64)[:, None] * GRAY_DIM
    keys = padded.ravel()[(ys * pw + xs)[:, None] + offsets] + rows
    return np.bincount(keys.ravel(), minlength=pixels.size * GRAY_DIM).reshape(-1, GRAY_DIM)


def _nearest_windows(
    padded: np.ndarray, window: int, pixels: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    """Index of the L1-nearest center to the normalized window histogram of
    each given flat pixel index; ties go to the lowest index.

    Pixels go in blocks of as many as keep each temporary of a block (window
    samples, counts, distances to the centers) within _BLOCK_ELEMENTS
    entries, and at least one."""
    area = window * window
    step = max(1, _BLOCK_ELEMENTS // max(area, len(centers) * GRAY_DIM))
    nearest = np.empty(pixels.size, dtype=np.int32)
    for start in range(0, pixels.size, step):
        counts = _local_counts(padded, window, pixels[start : start + step])
        diffs = (counts / area)[:, None, :] - centers[None, :, :]
        nearest[start : start + step] = np.argmin(np.abs(diffs, out=diffs).sum(axis=2), axis=1)
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
    sums = np.empty((classes.size, GRAY_DIM), dtype=np.int64)
    for i, c in enumerate(classes.tolist()):
        mask = lab[y0[c] : y1[c] + 1, x0[c] : x1[c] + 1] == c
        cover = window_sums(np.pad(mask, window - 1), window)
        vals = padded[y0[c] : y1[c] + window, x0[c] : x1[c] + window].ravel()
        # per-intensity totals of cover, in int64: a running sum in intensity
        # order (a stable sort of 8-bit keys is a radix sort)
        running = np.cumsum(cover.ravel()[np.argsort(vals, kind="stable")])
        ends = np.cumsum(np.bincount(vals, minlength=GRAY_DIM))
        sums[i] = np.diff(np.concatenate(([0], running))[np.concatenate(([0], ends))])
    return sums


def local_histogram(image: GrayImage, x: int, y: int, window: int) -> FeatureVector:
    """Normalized 256-bin histogram of the window centered at (x, y)."""
    require_odd_window(window)
    if not (0 <= x < image.width and 0 <= y < image.height):
        raise PreconditionError(f"({x}, {y}) outside {image.width}x{image.height} image")
    r = window // 2
    ys = np.clip(np.arange(y - r, y + r + 1), 0, image.height - 1)
    xs = np.clip(np.arange(x - r, x + r + 1), 0, image.width - 1)
    patch = image.pixels[np.ix_(ys, xs)]
    counts = np.bincount(patch.ravel(), minlength=GRAY_DIM)
    return FeatureVector(counts / (window * window))


def classify_windows(
    image: GrayImage, exemplars: list[Exemplar], window: int = DEFAULT_WINDOW
) -> LabelMap:
    """Label every pixel with the exemplar nearest its local histogram.

    Distance is L1 between normalized histograms; ties go to the lowest
    exemplar label. The label map's k is max exemplar label + 1.
    """
    if not exemplars:
        raise NoExemplars("need at least one exemplar")
    for e in exemplars:
        if e.feature.dimension != GRAY_DIM:
            raise PreconditionError("exemplar features must have 256 bins")
    order = sorted(range(len(exemplars)), key=lambda i: (exemplars[i].label, i))
    feats = np.stack([exemplars[i].feature.bins for i in order])
    labels_of = np.array([exemplars[i].label for i in order], dtype=np.int32)

    require_odd_window(window)
    padded = np.pad(image.pixels, window // 2, mode="edge")
    out = labels_of[_nearest_windows(padded, window, np.arange(image.pixels.size), feats)]
    k = int(labels_of.max()) + 1
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
    if iterations < 0:
        raise PreconditionError("iterations must be >= 0")
    lab = labels.labels.copy()
    k = labels.k
    if iterations == 0:
        return LabelMap(labels=lab, k=k, complete=True)
    require_odd_window(window)
    padded = np.pad(image.pixels, window // 2, mode="edge")
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


def global_feature(image: GrayImage | RgbImage) -> FeatureVector:
    """Whole-image histogram feature: 256 bins for gray, 64 for color."""
    counts, total = global_feature_counts(image)
    return FeatureVector(counts / total)


def global_feature_counts(image: GrayImage | RgbImage) -> tuple[np.ndarray, int]:
    """Raw integer histogram behind global_feature.

    Gray images count intensities into 256 bins; color images quantize
    each channel to 4 levels and count into 64 bins indexed
    (r div 64)*16 + (g div 64)*4 + (b div 64).
    """
    if isinstance(image, GrayImage):
        counts = np.bincount(image.pixels.ravel(), minlength=GRAY_DIM)
    elif isinstance(image, RgbImage):
        p = image.pixels.astype(np.int64)
        idx = (p[:, :, 0] // 64) * 16 + (p[:, :, 1] // 64) * 4 + p[:, :, 2] // 64
        counts = np.bincount(idx.ravel(), minlength=COLOR_DIM)
    else:
        raise TypeError(f"expected GrayImage or RgbImage, got {type(image).__name__}")
    return counts.astype(np.int64), int(counts.sum())
