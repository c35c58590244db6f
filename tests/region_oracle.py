"""Reference region growing: per-pixel BFS labelling, Fraction heap keys,
Fraction region means for merging, and per-label mask scans for region
statistics.

These are the straightforward implementations that segkit.region replaced
with union-find labelling, integer heap keys, cross-multiplied integer mean
gaps and scattered bounding-box extremes; the tests compare the two for
byte-identical label maps and equal statistics.
"""

from __future__ import annotations

import heapq
from collections import deque
from fractions import Fraction

import numpy as np

from segkit.errors import EmptySeeds, IncompleteLabels, NoSeeds, PreconditionError
from segkit.raster import UNLABELED, GrayImage, LabelMap, boundary_mask, box_smooth
from segkit.region import RegionParams, RegionStats, SegmentationResult, _local_variance_ok

_NEIGHBORS4 = ((-1, 0), (1, 0), (0, -1), (0, 1))


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
    """segkit.region.select_seeds over the BFS labelling (same eligibility test)."""
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
    """segkit.region.grow_regions with Fraction keys and a whole-image seeding scan."""
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


def merge_small_regions(labels: LabelMap, image: GrayImage, params: RegionParams) -> LabelMap:
    """segkit.region.merge_small_regions with Fraction means and a set of the
    regions still alive; it does not check that the shapes agree."""
    if not labels.complete:
        raise IncompleteLabels("merge_small_regions needs a complete label map")
    lab = labels.labels
    k = labels.k
    flat = lab.ravel()
    pix = image.pixels.astype(np.int64).ravel()
    sums = np.bincount(flat, weights=pix.astype(np.float64), minlength=k).astype(np.int64)
    counts = np.bincount(flat, minlength=k).astype(np.int64)

    a = np.concatenate((lab[:, :-1].ravel(), lab[:-1, :].ravel())).astype(np.int64)
    b = np.concatenate((lab[:, 1:].ravel(), lab[1:, :].ravel())).astype(np.int64)
    differ = a != b
    keys = np.sort(np.minimum(a, b)[differ] * k + np.maximum(a, b)[differ])
    pairs = keys[np.diff(keys, prepend=-1) != 0]
    adj: dict[int, set[int]] = {j: set() for j in range(k)}
    for lo, hi in zip(*divmod(pairs, k)):
        adj[int(lo)].add(int(hi))
        adj[int(hi)].add(int(lo))
    owner = np.arange(k, dtype=np.int32)

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
        gap, target = best
        if gap > params.contrast_guard:
            kept.add(j)
            continue
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
    values, first_seen = np.unique(lab.ravel(), return_index=True)
    ranks = np.empty(values.size, dtype=np.int32)
    ranks[np.argsort(first_seen, kind="stable")] = np.arange(values.size, dtype=np.int32)
    remap = np.zeros(k, dtype=np.int32)
    remap[values] = ranks
    return LabelMap(labels=remap[lab], k=int(values.size), complete=True)


def region_stats(labels: LabelMap, image: GrayImage) -> list[RegionStats]:
    """segkit.region.region_stats with a bounding box from each label's mask."""
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
    """segkit.region.primary_segment over the reference seeding and growing."""
    smoothed = box_smooth(image, params.smooth_radius)
    seeds = select_seeds(smoothed, params)
    grown = grow_regions(smoothed, seeds)
    merged = merge_small_regions(grown, smoothed, params)
    return SegmentationResult(
        labels=merged,
        stats=region_stats(merged, image),
        seed_count=seeds.k,
        merged=grown.k - merged.k,
    )
