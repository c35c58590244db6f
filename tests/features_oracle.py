"""Reference window features built on the full (H, W, 256) count tensor,
and a local histogram gathered with clamped coordinates.

These are the straightforward implementations that segkit.features replaced
with streamed, bounded-block window counts, box-sum class histograms and
window counts read from the edge-padded image; the tests compare the two
for byte-identical label maps and features.
"""

from __future__ import annotations

import numpy as np

from segkit.errors import IncompleteLabels, NoExemplars, PreconditionError
from segkit.features import DEFAULT_WINDOW, GRAY_DIM, Exemplar, FeatureVector
from segkit.raster import GrayImage, LabelMap, boundary_mask, require_int, require_odd_window


def local_histogram(image: GrayImage, x: int, y: int, window: int) -> FeatureVector:
    """Normalized 256-bin histogram of the window centered at (x, y), its
    coordinates clamped to the image; no bound on the window's padding."""
    window = require_odd_window(window)
    x, y = require_int(x, "x"), require_int(y, "y")
    if not (0 <= x < image.width and 0 <= y < image.height):
        raise PreconditionError(f"({x}, {y}) outside {image.width}x{image.height} image")
    r = window // 2
    ys = np.clip(np.arange(y - r, y + r + 1), 0, image.height - 1)
    xs = np.clip(np.arange(x - r, x + r + 1), 0, image.width - 1)
    patch = image.pixels[np.ix_(ys, xs)]
    counts = np.bincount(patch.ravel(), minlength=GRAY_DIM)
    return FeatureVector(counts / (window * window))


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


def classify_windows(
    image: GrayImage, exemplars: list[Exemplar], window: int = DEFAULT_WINDOW
) -> LabelMap:
    """Label every pixel with the exemplar nearest its local histogram."""
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
    """Reassign boundary pixels to the class with the nearest mean histogram."""
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
