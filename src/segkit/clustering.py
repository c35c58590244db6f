"""Center-based clustering with hard membership and per-point weights.

Each center is the weighted mean of its members,

    c_j = sum_i m(j|i) w_i x_i / sum_i m(j|i) w_i,

with membership m restricted to 0/1 (nearest center wins). Unit weights
give standard K-means; weights derived from gradient magnitude give the
edge-adaptive variant, which discounts pixels near strong edges when
centers are recomputed.

One Lloyd loop serves run_kmeans and segment_clustering. It runs over
distinct points (rows), point i being row members[i]. Each row carries its
multiplicity, its weight sum W_r and its center-sum addend W_r * x_r, so an
iteration assigns, scores (sum_r W_r * ||x_r - c||^2) and updates the rows
only; points are touched to pick the initial centers, to re-seed a dead
cluster and to gather the final labels. For run_kmeans a row is a point;
for segment_clustering the rows are the 256 intensity levels, so after one
O(HW) pass per call an iteration costs O(256 k), and its SSE and edge
center sums are sums in level order.

Every reduction is performed in ascending row order with fixed tie-breaks,
so results are bit-reproducible for a fixed configuration.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError, TooFewPoints
from .raster import (GRAY_DIM, GradientMap, GrayImage, LabelMap, _exact_cast, frozen, require_int, require_real,
                     sobel_magnitude)

DEFAULT_BETA = 2.0

_LCG_MULTIPLIER = 6364136223846793005
_LCG_INCREMENT = 1442695040888963407
_MASK64 = (1 << 64) - 1


class Lcg:
    """64-bit linear congruential generator, high 32 bits per draw.

    state' = state * 6364136223846793005 + 1442695040888963407 (mod 2^64);
    each draw advances the state and yields state' >> 32. Documented in
    full so sequences are portable across implementations.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u32(self) -> int:
        self.state = (self.state * _LCG_MULTIPLIER + _LCG_INCREMENT) & _MASK64
        return self.state >> 32


@frozen
class PointSet:
    """n points of dimension d as an (n, d) float64 array."""

    points: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.points)
        p = p.reshape(-1, 1) if p.ndim == 1 else self.points  # 1-D: n points of dimension 1
        object.__setattr__(self, "points", _exact_cast(p, np.float64, 2, "points"))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@frozen
class Weights:
    """One nonnegative weight per point; at least one must be positive."""

    values: np.ndarray

    def __post_init__(self):
        v = _exact_cast(self.values, np.float64, 1, "values")
        if v.min() < 0:
            raise PreconditionError("weights must be nonnegative")
        if v.max() <= 0:
            raise PreconditionError("at least one weight must be positive")
        object.__setattr__(self, "values", v)

    @staticmethod
    def unit(n: int) -> "Weights":
        return Weights(np.ones(n))


@frozen
class Assignment:
    """Hard membership: member_of[i] is the cluster index of point i."""

    member_of: np.ndarray

    def __post_init__(self):
        m = _exact_cast(self.member_of, np.int32, 1, "member_of")
        if m.min() < 0:
            raise PreconditionError("cluster indices must be nonnegative")
        object.__setattr__(self, "member_of", m)


@frozen
class ClusterModel:
    """k centers of dimension d as a (k, d) float64 array."""

    centers: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "centers", _exact_cast(self.centers, np.float64, 2, "centers"))

    @property
    def k(self) -> int:
        return self.centers.shape[0]


@frozen
class ClusteringConfig:
    k: int
    max_iter: int = 100
    epsilon: float = 1e-4
    init: str = "quantile"  # or "seeded-random"
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise PreconditionError("k must be >= 1")
        if self.max_iter < 1:
            raise PreconditionError("max_iter must be >= 1")
        if not self.epsilon >= 0:  # also rejects nan
            raise PreconditionError("epsilon must be >= 0")
        if self.init not in ("quantile", "seeded-random"):
            raise PreconditionError(f"unknown init strategy {self.init!r}")


@frozen
class ClusteringResult:
    model: ClusterModel
    assignment: Assignment
    sse_trace: tuple[float, ...]
    iterations: int = 0
    converged: bool = False


def _random_picks(n: int, k: int, seed: int) -> list[int]:
    """k distinct indices below n drawn from the documented LCG; each draw
    maps to an index via value mod n, redrawing on repeats."""
    rng = Lcg(seed)
    chosen: list[int] = []
    seen = set()
    while len(chosen) < k:
        idx = rng.next_u32() % n
        if idx not in seen:
            seen.add(idx)
            chosen.append(idx)
    return chosen


class _DistinctPoints:
    """n points as m distinct rows: point i is values[members[i]]. Row r
    stands for multiplicity[r] points whose weights (one per point, or None
    for unit weights) sum to wsum[r]; weighted[r] = wsum[r] * values[r] is
    the row's addend to its cluster's center sums."""

    def __init__(self, values: np.ndarray, members: np.ndarray, weights: np.ndarray | None = None):
        self.values = values
        self.members = members
        self.weights = weights
        self.multiplicity = np.bincount(members, minlength=values.shape[0])
        self.wsum = self.multiplicity if weights is None else np.bincount(members, weights, values.shape[0])
        self.weighted = self.wsum[:, None] * values


def _each_point(points: PointSet, weights: Weights | None = None) -> _DistinctPoints:
    return _DistinctPoints(points.points, np.arange(points.n), None if weights is None else weights.values)


def _init(p: _DistinctPoints, config: ClusteringConfig) -> np.ndarray:
    n, k = p.members.size, config.k
    if k > n:
        raise TooFewPoints(f"k={k} exceeds point count n={n}")
    if config.init == "quantile":
        # rows sorted by coordinates, then row index; the row holding the
        # point at sorted rank floor((j+0.5)*n/k)
        order = np.lexsort((np.arange(p.values.shape[0]), *p.values.T[::-1]))
        ranks = [(2 * j + 1) * n // (2 * k) for j in range(k)]
        rows = order[np.searchsorted(np.cumsum(p.multiplicity[order]), ranks, side="right")]
    else:
        rows = p.members[_random_picks(n, k, config.seed)]
    return p.values[rows]


def _assign(values: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Each row's nearest center (squared Euclidean; ties to the lowest
    cluster index)."""
    diffs = values[:, None, :] - centers[None, :, :]
    return np.argmin(np.einsum("nkd,nkd->nk", diffs, diffs), axis=1).astype(np.int32)


def _row_distances(p: _DistinctPoints, centers: np.ndarray, nearest: np.ndarray) -> np.ndarray:
    """||x_r - c||^2 for every row r, c being the center of its cluster."""
    diffs = p.values - centers[nearest]
    return np.einsum("nd,nd->n", diffs, diffs)


def _update(p: _DistinctPoints, nearest: np.ndarray, k: int) -> np.ndarray:
    """update_centers, given each row's nearest center."""
    # np.bincount iterates its input sequentially, matching a naive loop
    wsum = np.bincount(nearest, weights=p.wsum, minlength=k)
    sums = np.stack([np.bincount(nearest, weights=col, minlength=k) for col in p.weighted.T], axis=1)
    dead = wsum == 0  # no members, or members of weight zero only
    centers = np.zeros((k, p.values.shape[1]))
    centers[~dead] = sums[~dead] / wsum[~dead, None]
    if dead.any():
        # weighted squared distance of each point to its own cluster's new
        # center; members of all-zero-weight clusters score 0 via w=0
        score = _row_distances(p, centers, nearest)[p.members]
        if p.weights is not None:
            score *= p.weights
        for j in np.flatnonzero(dead):
            best = int(np.argmax(score))  # first maximum: lowest point index
            centers[j] = p.values[p.members[best]]
            score[best] = -np.inf  # consumed
    return centers


def _lloyd(p: _DistinctPoints, config: ClusteringConfig) -> ClusteringResult:
    """Alternate assignment and center updates until centers stop moving."""
    centers = _init(p, config)
    sse_trace: list[float] = []
    for iterations in range(1, config.max_iter + 1):
        nearest = _assign(p.values, centers)
        terms = p.wsum * _row_distances(p, centers, nearest)
        sse_trace.append(float(np.cumsum(terms, out=terms)[-1]))  # row order
        new_centers = _update(p, nearest, config.k)
        converged = float(np.max(np.abs(new_centers - centers))) <= config.epsilon
        centers = new_centers
        if converged:
            break
    return ClusteringResult(
        model=ClusterModel(centers),
        assignment=Assignment(nearest[p.members]),
        sse_trace=sse_trace,
        iterations=iterations,
        converged=converged,
    )


def init_centers(points: PointSet, config: ClusteringConfig) -> ClusterModel:
    """Pick initial centers.

    quantile: sort points lexicographically (first coordinate, then the
    rest, then original index) and take the element at floor((j+0.5)*n/k)
    for j = 0..k-1. Deterministic and seed-free.

    seeded-random: draw k distinct indices from the documented LCG; each
    draw maps to an index via value mod n, redrawing on repeats.
    """
    return ClusterModel(_init(_each_point(points), config))


def assign_points(points: PointSet, model: ClusterModel) -> Assignment:
    """Assign each point to the nearest center (squared Euclidean);
    ties go to the lowest cluster index."""
    _check_dims(points, model)
    return Assignment(_assign(points.points, model.centers))


def update_centers(
    points: PointSet, assignment: Assignment, weights: Weights, k: int
) -> ClusterModel:
    """Recompute each center as the weighted mean of its members.

    A cluster with no members, or whose members all have weight zero, is
    re-seeded at the point with the largest weighted squared distance to
    its own cluster's new center (ties to the lowest point index); each
    re-seed consumes its point so later empty clusters pick fresh ones.
    """
    k = require_int(k, "k")
    _check_members(points, assignment, weights, k)
    return ClusterModel(_update(_each_point(points, weights), assignment.member_of, k))


def weighted_sse(
    points: PointSet, model: ClusterModel, assignment: Assignment, weights: Weights
) -> float:
    """Sum over points (in ascending index order) of w_i * ||x_i - c||^2."""
    _check_dims(points, model)
    _check_members(points, assignment, weights, model.k)
    diffs = points.points - model.centers[assignment.member_of]
    terms = weights.values * np.einsum("nd,nd->n", diffs, diffs)
    # cumsum keeps the naive ascending-order accumulation
    return float(np.cumsum(terms)[-1])


def _check_dims(points: PointSet, model: ClusterModel) -> None:
    """PreconditionError unless the points and the centers share a dimension."""
    if points.dim != model.centers.shape[1]:
        raise PreconditionError("point and center dimensions differ")


def _check_members(points: PointSet, assignment: Assignment, weights: Weights, k: int) -> None:
    """PreconditionError unless each point has one weight and one cluster index below k."""
    if assignment.member_of.shape[0] != points.n or weights.values.shape[0] != points.n:
        raise PreconditionError("assignment and weights must cover every point")
    if assignment.member_of.max() >= k:
        raise PreconditionError("assignment index out of range")


def run_kmeans(
    points: PointSet, weights: Weights, config: ClusteringConfig
) -> ClusteringResult:
    """Alternate assignment and center updates until centers stop moving.

    Stops when the largest center coordinate change (infinity norm) is at
    most config.epsilon, or after config.max_iter iterations. The SSE is
    recorded after every assignment and is non-increasing.
    """
    return _lloyd(_each_point(points, weights), config)


def edge_weights(gradient: GradientMap, beta: float) -> Weights:
    """Weights 1 / (1 + beta * g) from gradient magnitudes normalized to
    [0, 1] by the global maximum (an all-zero gradient normalizes to 0)."""
    if not 0 <= require_real(beta, "beta") < np.inf:  # also rejects nan
        raise PreconditionError("beta must be finite and >= 0")
    mag = gradient.magnitude.ravel()
    peak = mag.max()
    w = mag / peak if peak > 0 else np.zeros(mag.size)
    # 1 / (1 + beta * g) in place: one fresh (h*w) float array per call
    w *= beta
    w += 1.0
    return Weights(np.divide(1.0, w, out=w))


def segment_clustering(
    image: GrayImage, config: ClusteringConfig, beta: float | None = None
) -> tuple[LabelMap, ClusteringResult]:
    """Cluster per-pixel intensities into config.k classes.

    With beta set, pixel weights come from edge_weights over the Sobel
    magnitude of the image; otherwise all pixels weigh 1. beta=0 yields
    exactly the unit-weight result.

    The Lloyd loop runs over the 256 intensity levels as its rows, each
    weighing the sum of its pixels' weights, with the pixels as members:
    one O(HW) pass per call, then O(256 k) per iteration. With unit weights
    the labels, centers, iterations and convergence equal run_kmeans over
    the pixels as 1-D points; the SSE is summed in level order.
    """
    n, k = image.pixels.size, config.k
    if k > n:  # before the Sobel pass
        raise TooFewPoints(f"k={k} exceeds point count n={n}")
    weights = None if beta is None else edge_weights(sobel_magnitude(image), beta).values
    levels = image.pixels.ravel().astype(np.intp)  # cast once for the bincounts and the label gather
    result = _lloyd(_DistinctPoints(np.arange(float(GRAY_DIM)).reshape(-1, 1), levels, weights), config)
    labels = result.assignment.member_of.reshape(image.height, image.width)
    return LabelMap(labels=labels, k=config.k, complete=True), result
