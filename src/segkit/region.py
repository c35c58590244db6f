"""Bottom-up region segmentation: seeds, best-first growing, merging.

The pipeline smooths the image, selects homogeneous seed regions (3x3
local variance at or below a threshold), grows them until every pixel is
labeled, then absorbs undersized regions into their most similar neighbor
unless a contrast guard says the region is a genuinely distinct detail.

Region means are tracked as exact integer (sum, count) pairs, so growth
order never depends on floating-point rounding. A queue priority is the
rational |v*count - sum| / count with count <= N = h*w pixels; two distinct
such rationals differ by at least 1/N^2, so scaling by S >= N^2 and
flooring to an integer keeps their exact order and their ties.
"""

from __future__ import annotations

import heapq
import math
import operator

import numpy as np

from .errors import EmptySeeds, IncompleteLabels, NoSeeds, PreconditionError
from .raster import (
    UNLABELED,
    GrayImage,
    LabelMap,
    boundary_mask,
    box_smooth,
    frozen,
    label_bounds,
    pad_edge,
    require_int,
    require_same_shape,
    window_sums,
)


@frozen
class RegionParams:
    smooth_radius: int = 1
    variance_threshold: float = 25.0
    min_seed_size: int = 9
    min_region_size: int = 16
    contrast_guard: float = 40.0

    def __post_init__(self):
        for name in ("smooth_radius", "min_seed_size", "min_region_size"):
            object.__setattr__(self, name, require_int(getattr(self, name), name))
        if self.smooth_radius < 0 or not 0 <= self.variance_threshold < math.inf:
            raise PreconditionError("need smooth_radius >= 0 and a finite variance_threshold >= 0")
        if self.min_seed_size < 1:
            raise PreconditionError("min_seed_size must be >= 1")
        if self.min_region_size < 0 or not self.contrast_guard >= 0:
            raise PreconditionError("min_region_size and contrast_guard must be >= 0")


@frozen
class RegionStats:
    label: int
    size: int
    mean: float
    variance: float
    bbox: tuple[int, int, int, int]  # (x0, y0, x1, y1) inclusive
    size_fraction: float
    boundary_fraction: float


@frozen
class SegmentationResult:
    labels: LabelMap
    stats: list[RegionStats]
    seed_count: int
    merged: int


def _ratio(value) -> tuple[int, int]:
    """A finite real value as integers (p, q), q > 0, with value == p / q."""
    return value.as_integer_ratio() if hasattr(value, "as_integer_ratio") else (operator.index(value), 1)


def _local_variance_ok(image: GrayImage, threshold: float) -> np.ndarray:
    """True where the 3x3 clamped-window population variance is <= threshold.

    Decided in exact integers: var = (9*S2 - S1^2) / 81, so the test is
    9*S2 - S1^2 <= floor(81 * threshold).
    """
    v = pad_edge(image.pixels, 1).astype(np.int64)
    s1 = window_sums(v, 3)
    s2 = window_sums(v * v, 3)
    p, q = _ratio(threshold)
    return (9 * s2 - s1 * s1) <= 81 * p // q


def _connected_components(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """4-connected components of a boolean mask, labeled 0..c-1 in raster
    order of each component's first (topmost-leftmost) pixel; -1 elsewhere.

    Union-find over 4-neighbor pairs: every root hooks to the smallest root
    it touches and pointer jumping compresses the forest, so each component
    ends rooted at its smallest raster index.
    """
    h, w = mask.shape
    index = np.arange(h * w).reshape(h, w)
    right = mask[:, :-1] & mask[:, 1:]
    down = mask[:-1, :] & mask[1:, :]
    a = np.concatenate((index[:, :-1][right], index[:-1, :][down]))
    b = np.concatenate((index[:, 1:][right], index[1:, :][down]))
    parent = index.ravel()
    while (differ := parent[a] != parent[b]).any():
        ra, rb = parent[a[differ]], parent[b[differ]]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(grand := parent[parent], parent):
            parent = grand
    roots, comp = np.unique(parent[mask.ravel()], return_inverse=True)
    labels = np.full((h, w), UNLABELED, dtype=np.int32)
    labels[mask] = comp
    return labels, int(roots.size)


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
    remap = np.full(count + 1, UNLABELED, dtype=np.int32)  # comp -1 reads the last entry
    remap[keep] = np.arange(keep.size, dtype=np.int32)
    return LabelMap(labels=remap[comp], k=int(keep.size), complete=False)


def grow_regions(image: GrayImage, seeds: LabelMap) -> LabelMap:
    """Assign every unlabeled pixel to an adjacent region, best first.

    Candidates (pixel, region) are prioritized by |pixel - region mean|
    using the region's running mean at enqueue time, with ties broken by
    raster index and then region label. Popping a still-unlabeled pixel
    assigns it, folds it into the region's mean, and enqueues its
    unlabeled 4-neighbors.
    """
    seeded = seeds.labels >= 0
    if seeds.k < 1 or not seeded.any():
        raise EmptySeeds("need at least one seed region")
    require_same_shape(seeds, image)
    h, w = seeds.labels.shape
    region_of = seeds.labels[seeded]
    sums = np.bincount(region_of, image.pixels[seeded], seeds.k).astype(np.int64).tolist()
    counts = np.bincount(region_of, minlength=seeds.k).tolist()
    # a border of pixels labeled k never enters the queue, so neighbors need
    # no bounds checks; padded raster indices keep the unpadded order
    labels = np.pad(seeds.labels, 1, constant_values=seeds.k).ravel().tolist()
    values = np.pad(image.pixels, 1).ravel().tolist()
    scale = 4 ** (h * w).bit_length()  # >= (h*w)^2: see the module docstring
    heap: list[tuple[int, int, int]] = []

    def push_neighbors(p: int, region: int):
        count, total = counts[region], sums[region]
        for q in (p - w - 2, p + w + 2, p - 1, p + 1):
            if labels[q] == UNLABELED:
                heapq.heappush(heap, (abs(values[q] * count - total) * scale // count, q, region))

    # the same (pixel, region) candidates as scanning every unlabeled pixel
    for p in np.flatnonzero(np.pad(seeded & boundary_mask(seeded), 1)).tolist():
        push_neighbors(p, labels[p])
    while heap:
        _, p, region = heapq.heappop(heap)
        if labels[p] != UNLABELED:
            continue
        labels[p] = region
        sums[region] += values[p]
        counts[region] += 1
        push_neighbors(p, region)
    grown = np.array(labels, dtype=np.int32).reshape(h + 2, w + 2)[1:-1, 1:-1]
    return LabelMap(labels=grown, k=seeds.k, complete=True)


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
    require_same_shape(labels, image)
    lab = labels.labels
    k = labels.k
    flat = lab.ravel()
    pix = image.pixels.astype(np.int64).ravel()
    # Python ints: the gap cross-products below pass 2**63 on large images
    sums = np.bincount(flat, weights=pix.astype(np.float64), minlength=k).astype(np.int64).tolist()
    counts = np.bincount(flat, minlength=k).tolist()

    # region adjacency over 4-neighbors: distinct (low, high) label pairs
    a = np.concatenate((lab[:, :-1].ravel(), lab[:-1, :].ravel())).astype(np.int64)
    b = np.concatenate((lab[:, 1:].ravel(), lab[1:, :].ravel())).astype(np.int64)
    differ = a != b
    # sorted distinct keys; a plain np.unique would import numpy.ma on numpy 2
    keys = np.sort(np.minimum(a, b)[differ] * k + np.maximum(a, b)[differ])
    pairs = keys[np.diff(keys, prepend=-1) != 0]
    adj: dict[int, set[int]] = {j: set() for j in range(k)}
    for lo, hi in zip(*divmod(pairs, k)):
        adj[int(lo)].add(int(hi))
        adj[int(hi)].add(int(lo))
    owner = np.arange(k, dtype=np.int32)  # region each original label now belongs to
    guard = None if params.contrast_guard == math.inf else _ratio(params.contrast_guard)
    kept: set[int] = set()

    while True:
        # a merged region has no neighbors left
        candidates = [
            j for j in range(k) if j not in kept and counts[j] < params.min_region_size and adj[j]
        ]
        if not candidates:
            break
        j = min(candidates, key=lambda r: (counts[r], r))
        # the gap |sums[nb] / counts[nb] - sums[j] / counts[j]| as the exact
        # ratio gap / den; ratios compare by cross-multiplying
        best = None
        for nb in sorted(adj[j]):
            gap, den = abs(sums[nb] * counts[j] - sums[j] * counts[nb]), counts[nb] * counts[j]
            if best is None or gap * best[1] < best[0] * den:
                best = (gap, den, nb)
        gap, den, target = best
        if guard is not None and gap * guard[1] > guard[0] * den:
            kept.add(j)  # distinct small detail, never merged
            continue
        # fold j into target
        owner[owner == j] = target
        sums[target] += sums[j]
        counts[target] += counts[j]
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
    require_same_shape(labels, image)
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

    bounds = np.stack(label_bounds(lab, k), axis=1).tolist()
    stats = []
    for j in range(k):
        n = int(sizes[j])
        if n == 0:
            continue  # label value unused (e.g. a cluster that emptied)
        mean = s1[j] / n
        variance = (n * int(s2[j]) - int(s1[j]) ** 2) / (n * n)
        stats.append(
            RegionStats(
                label=j,
                size=n,
                mean=float(mean),
                variance=float(variance),
                bbox=tuple(bounds[j]),
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
