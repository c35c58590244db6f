"""Bottom-up region segmentation: seeds, best-first growing, merging.

The pipeline smooths the image, selects homogeneous seed regions (3x3
local variance at or below a threshold), grows them until every pixel is
labeled, then absorbs undersized regions into their most similar neighbor
unless a contrast guard says the region is a genuinely distinct detail.

Region means are tracked as exact integer (sum, count) pairs and queue
priorities as exact rationals, so growth order never depends on
floating-point rounding.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import EmptySeeds, IncompleteLabels, NoSeeds, PreconditionError
from .raster import UNLABELED, GrayImage, LabelMap, _clamped_window_sums, boundary_mask, box_smooth

_NEIGHBORS4 = ((-1, 0), (1, 0), (0, -1), (0, 1))


@dataclass(frozen=True)
class RegionParams:
    smooth_radius: int = 1
    variance_threshold: float = 25.0
    min_seed_size: int = 9
    min_region_size: int = 16
    contrast_guard: float = 40.0

    def __post_init__(self):
        if self.smooth_radius < 0 or self.variance_threshold < 0:
            raise PreconditionError("smooth_radius and variance_threshold must be >= 0")
        if self.min_seed_size < 1:
            raise PreconditionError("min_seed_size must be >= 1")
        if self.min_region_size < 0 or self.contrast_guard < 0:
            raise PreconditionError("min_region_size and contrast_guard must be >= 0")


@dataclass(frozen=True)
class RegionStats:
    label: int
    size: int
    mean: float
    variance: float
    bbox: tuple[int, int, int, int]  # (x0, y0, x1, y1) inclusive
    size_fraction: float
    boundary_fraction: float


@dataclass(frozen=True)
class SegmentationResult:
    labels: LabelMap
    stats: list[RegionStats]
    seed_count: int
    merged: int


def _local_variance_ok(image: GrayImage, threshold: float) -> np.ndarray:
    """True where the 3x3 clamped-window population variance is <= threshold.

    Decided in exact integers: var = (9*S2 - S1^2) / 81, so the test is
    9*S2 - S1^2 <= 81 * threshold.
    """
    v = image.pixels.astype(np.int64)
    s1 = _clamped_window_sums(v, 1)
    s2 = _clamped_window_sums(v * v, 1)
    return (9 * s2 - s1 * s1) <= 81.0 * threshold


def _connected_components(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """4-connected components of a boolean mask, labeled 0..c-1 in raster
    order of each component's first (topmost-leftmost) pixel; -1 elsewhere."""
    h, w = mask.shape
    labels = np.full((h, w), UNLABELED, dtype=np.int32)
    count = 0
    for y in range(h):
        for x in range(w):
            if not mask[y, x] or labels[y, x] != UNLABELED:
                continue
            queue = deque([(y, x)])
            labels[y, x] = count
            while queue:
                cy, cx = queue.popleft()
                for dy, dx in _NEIGHBORS4:
                    ny, nx = cy + dy, cx + dx
                    if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and labels[ny, nx] == UNLABELED:
                        labels[ny, nx] = count
                        queue.append((ny, nx))
            count += 1
    return labels, count


def select_seeds(image: GrayImage, params: RegionParams) -> LabelMap:
    """Initial incomplete segmentation: homogeneous 4-connected components.

    A pixel is seed-eligible when its 3x3 neighborhood variance is at most
    params.variance_threshold; eligible components smaller than
    params.min_seed_size are dropped. Surviving seeds are numbered in
    raster order of their topmost-leftmost pixel.

    Raises NoSeeds when nothing survives.
    """
    eligible = _local_variance_ok(image, params.variance_threshold)
    comp, count = _connected_components(eligible)
    if count == 0:
        raise NoSeeds("no seed-eligible pixels")
    sizes = np.bincount(comp[comp >= 0], minlength=count)
    keep = np.flatnonzero(sizes >= params.min_seed_size)
    if keep.size == 0:
        raise NoSeeds(
            f"no eligible component reaches min_seed_size={params.min_seed_size}"
        )
    remap = np.full(count, UNLABELED, dtype=np.int32)
    remap[keep] = np.arange(keep.size, dtype=np.int32)
    labels = np.where(comp >= 0, remap[np.clip(comp, 0, None)], UNLABELED).astype(np.int32)
    return LabelMap(labels=labels, k=int(keep.size), complete=False)


def grow_regions(image: GrayImage, seeds: LabelMap) -> LabelMap:
    """Assign every unlabeled pixel to an adjacent region, best first.

    Candidates (pixel, region) are prioritized by |pixel - region mean|
    using the region's running mean at enqueue time, with ties broken by
    raster index and then region label. Popping a still-unlabeled pixel
    assigns it, folds it into the region's mean, and enqueues its
    unlabeled 4-neighbors.
    """
    if seeds.k < 1 or (seeds.labels >= 0).sum() == 0:
        raise EmptySeeds("need at least one seed region")
    h, w = seeds.labels.shape
    pix = image.pixels
    if (h, w) != (pix.shape[0], pix.shape[1]):
        raise PreconditionError("seed map and image dimensions differ")
    labels = seeds.labels.copy()
    sums = np.bincount(
        labels[labels >= 0], weights=pix[labels >= 0].astype(np.float64), minlength=seeds.k
    ).astype(np.int64)
    counts = np.bincount(labels[labels >= 0], minlength=seeds.k).astype(np.int64)

    heap: list[tuple[Fraction, int, int]] = []

    def push_candidate(y: int, x: int, region: int):
        value = int(pix[y, x])
        # |value - sum/count| as an exact rational
        prio = Fraction(abs(value * counts[region] - sums[region]), counts[region])
        heapq.heappush(heap, (prio, y * w + x, region))

    for y in range(h):
        for x in range(w):
            if labels[y, x] != UNLABELED:
                continue
            for dy, dx in _NEIGHBORS4:
                ny, nx = y + dy, x + dx
                if 0 <= ny < h and 0 <= nx < w and labels[ny, nx] != UNLABELED:
                    push_candidate(y, x, int(labels[ny, nx]))

    while heap:
        _, raster, region = heapq.heappop(heap)
        y, x = divmod(raster, w)
        if labels[y, x] != UNLABELED:
            continue
        labels[y, x] = region
        sums[region] += int(pix[y, x])
        counts[region] += 1
        for dy, dx in _NEIGHBORS4:
            ny, nx = y + dy, x + dx
            if 0 <= ny < h and 0 <= nx < w and labels[ny, nx] == UNLABELED:
                push_candidate(ny, nx, region)
    return LabelMap(labels=labels, k=seeds.k, complete=True)


def merge_small_regions(
    labels: LabelMap, image: GrayImage, params: RegionParams
) -> LabelMap:
    """Absorb undersized regions into their nearest-mean 4-neighbor.

    Repeatedly the smallest region below params.min_region_size (ties to
    the lowest label) merges into the adjacent region with the closest
    mean (ties again to the lowest label), unless its mean differs from
    every neighbor's by more than params.contrast_guard, in which case it
    is kept as a distinct detail. Final labels are compacted to 0..k'-1 in
    raster order of first occurrence.
    """
    if not labels.complete:
        raise IncompleteLabels("merge_small_regions needs a complete label map")
    lab = labels.labels
    k = labels.k
    flat = lab.ravel()
    pix = image.pixels.astype(np.int64).ravel()
    sums = np.bincount(flat, weights=pix.astype(np.float64), minlength=k).astype(np.int64)
    counts = np.bincount(flat, minlength=k).astype(np.int64)

    # region adjacency over 4-neighbors: distinct (low, high) label pairs
    a = np.concatenate((lab[:, :-1].ravel(), lab[:-1, :].ravel())).astype(np.int64)
    b = np.concatenate((lab[:, 1:].ravel(), lab[1:, :].ravel())).astype(np.int64)
    differ = a != b
    pairs = np.unique(np.minimum(a, b)[differ] * k + np.maximum(a, b)[differ])
    adj: dict[int, set[int]] = {j: set() for j in range(k)}
    for lo, hi in zip(*divmod(pairs, k)):
        adj[int(lo)].add(int(hi))
        adj[int(hi)].add(int(lo))
    owner = np.arange(k, dtype=np.int32)  # region each original label now belongs to

    alive = set(range(k))
    kept: set[int] = set()

    def mean_of(j: int) -> Fraction:
        return Fraction(int(sums[j]), int(counts[j]))

    while True:
        candidates = [
            j
            for j in alive
            if j not in kept and counts[j] < params.min_region_size and adj[j]
        ]
        if not candidates:
            break
        j = min(candidates, key=lambda r: (counts[r], r))
        mj = mean_of(j)
        best = None
        for nb in sorted(adj[j]):
            gap = abs(mean_of(nb) - mj)
            if best is None or gap < best[0]:
                best = (gap, nb)
        assert best is not None
        gap, target = best
        if gap > params.contrast_guard:
            kept.add(j)  # distinct small detail, never merged
            continue
        # fold j into target
        owner[owner == j] = target
        sums[target] += sums[j]
        counts[target] += counts[j]
        alive.discard(j)
        for nb in adj[j]:
            adj[nb].discard(j)
            if nb != target:
                adj[nb].add(target)
                adj[target].add(nb)
        adj[target].discard(target)
        adj[j] = set()

    lab = owner[lab]
    # compact labels in raster order of first occurrence
    values, first_seen = np.unique(lab.ravel(), return_index=True)
    ranks = np.empty(values.size, dtype=np.int32)
    ranks[np.argsort(first_seen, kind="stable")] = np.arange(values.size, dtype=np.int32)
    remap = np.zeros(k, dtype=np.int32)
    remap[values] = ranks
    return LabelMap(labels=remap[lab], k=int(values.size), complete=True)


def region_stats(labels: LabelMap, image: GrayImage) -> list[RegionStats]:
    """Size, mean, population variance, bbox, and boundary share per label.

    A pixel is a boundary pixel when any 4-neighbor carries a different
    label; neighbors outside the image do not count.
    """
    if not labels.complete:
        raise IncompleteLabels("region_stats needs a complete label map")
    lab = labels.labels
    h, w = lab.shape
    pix = image.pixels.astype(np.int64)
    k = labels.k
    flat = lab.ravel()
    total = h * w

    sizes = np.bincount(flat, minlength=k)
    s1 = np.bincount(flat, weights=pix.ravel().astype(np.float64), minlength=k).astype(np.int64)
    s2 = np.bincount(
        flat, weights=(pix * pix).ravel().astype(np.float64), minlength=k
    ).astype(np.int64)

    boundary = boundary_mask(lab)
    bcounts = np.bincount(flat[boundary.ravel()], minlength=k)

    ys, xs = np.mgrid[0:h, 0:w]
    stats = []
    for j in range(k):
        n = int(sizes[j])
        if n == 0:
            continue  # label value unused (e.g. a cluster that emptied)
        mask = lab == j
        x0, x1 = int(xs[mask].min()), int(xs[mask].max())
        y0, y1 = int(ys[mask].min()), int(ys[mask].max())
        mean = s1[j] / n
        variance = (n * int(s2[j]) - int(s1[j]) ** 2) / (n * n)
        stats.append(
            RegionStats(
                label=j,
                size=n,
                mean=float(mean),
                variance=float(variance),
                bbox=(x0, y0, x1, y1),
                size_fraction=n / total,
                boundary_fraction=int(bcounts[j]) / n,
            )
        )
    return stats


def primary_segment(image: GrayImage, params: RegionParams = RegionParams()) -> SegmentationResult:
    """Smooth, select seeds, grow, merge; stats come from the original image.

    Raises NoSeeds when seed selection finds nothing under these params.
    """
    smoothed = box_smooth(image, params.smooth_radius)
    seeds = select_seeds(smoothed, params)
    grown = grow_regions(smoothed, seeds)
    merged = merge_small_regions(grown, smoothed, params)
    stats = region_stats(merged, image)
    return SegmentationResult(
        labels=merged,
        stats=stats,
        seed_count=seeds.k,
        merged=grown.k - merged.k,
    )
