"""Histogram features: per-pixel local histograms and whole-image features.

Local features are plain intensity histograms of a square window around
each pixel (window coordinates clamp at the borders, so every histogram
holds exactly window^2 samples). Window classification labels each pixel
by the nearest exemplar histogram under L1 distance; boundary refinement
iterates that idea against per-class mean histograms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IncompleteLabels, NoExemplars, PreconditionError
from .raster import GrayImage, LabelMap, RgbImage, boundary_mask, require_odd_window

GRAY_DIM = 256
COLOR_DIM = 64

DEFAULT_WINDOW = 9

_NORMALIZATION_TOL = 1e-9


@dataclass(frozen=True)
class FeatureVector:
    """Histogram feature; bins sum to 1 when normalized."""

    bins: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        b = np.asarray(self.bins, dtype=np.float64)
        if b.ndim != 1 or b.size < 1:
            raise PreconditionError("bins must be a nonempty 1-D array")
        if b.min() < 0:
            raise PreconditionError("bins must be nonnegative")
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


def _window_counts(image: GrayImage, window: int) -> np.ndarray:
    """Per-pixel intensity counts of the clamped window, shape (h, w, 256).

    Stored in the smallest unsigned type that holds window^2, the largest
    possible count (uint8 up to window 15).
    """
    require_odd_window(window)
    h, w = image.pixels.shape
    r = window // 2
    padded = np.pad(image.pixels, r, mode="edge")
    out = np.empty((h, w, GRAY_DIM), dtype=np.min_scalar_type(window * window))
    chunk = max(1, (1 << 21) // (w * GRAY_DIM))  # rows per pass, ~16 MB counts
    for y0 in range(0, h, chunk):
        rows = min(chunk, h - y0)
        n = rows * w
        base = np.arange(n, dtype=np.int64) * GRAY_DIM
        pieces = []
        for dy in range(window):
            for dx in range(window):
                vals = padded[y0 + dy : y0 + dy + rows, dx : dx + w]
                pieces.append(base + vals.ravel())
        counts = np.bincount(np.concatenate(pieces), minlength=n * GRAY_DIM)
        out[y0 : y0 + rows] = counts.reshape(rows, w, GRAY_DIM)
    return out


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

    counts = _window_counts(image, window)
    area = window * window
    h, w = image.pixels.shape
    out = np.empty((h, w), dtype=np.int32)
    for y in range(h):
        hists = counts[y].astype(np.float64) / area  # (w, 256)
        dists = np.abs(hists[:, None, :] - feats[None, :, :]).sum(axis=2)
        out[y] = labels_of[np.argmin(dists, axis=1)]
    k = int(labels_of.max()) + 1
    return LabelMap(labels=out, k=k, complete=True)


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
    if iterations < 0:
        raise PreconditionError("iterations must be >= 0")
    lab = labels.labels.copy()
    k = labels.k
    if iterations == 0:
        return LabelMap(labels=lab, k=k, complete=True)
    window_counts = _window_counts(image, window).reshape(-1, GRAY_DIM)
    area = window * window
    h, w = lab.shape

    for _ in range(iterations):
        flat = lab.ravel()
        class_sizes = np.bincount(flat, minlength=k)
        # exact integer count sums per class; mean histogram divides once
        sums = np.zeros((k, GRAY_DIM), dtype=np.int64)
        np.add.at(sums, flat, window_counts)
        present = class_sizes > 0
        means = np.zeros((k, GRAY_DIM))
        means[present] = sums[present] / (class_sizes[present, None] * float(area))

        boundary = boundary_mask(lab)
        idx = np.flatnonzero(boundary.ravel())
        if idx.size == 0:
            break
        pixel_hists = window_counts[idx].astype(np.float64) / area
        dists = np.abs(pixel_hists[:, None, :] - means[None, :, :]).sum(axis=2)
        dists[:, ~present] = np.inf  # empty classes attract nothing
        new_labels = np.argmin(dists, axis=1).astype(np.int32)
        if np.array_equal(new_labels, flat[idx]):
            break
        nxt = flat.copy()
        nxt[idx] = new_labels
        lab = nxt.reshape(h, w)
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
