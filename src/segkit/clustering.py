"""Center-based clustering with hard membership and per-point weights.

Each center is the weighted mean of its members,

    c_j = sum_i m(j|i) w_i x_i / sum_i m(j|i) w_i,

with membership m restricted to 0/1 (nearest center wins). Unit weights
give standard K-means; weights derived from gradient magnitude give the
edge-adaptive variant, which discounts pixels near strong edges when
centers are recomputed.

Every reduction is performed in ascending point-index order with fixed
tie-breaks, so results are bit-reproducible for a fixed configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError, TooFewPoints
from .raster import GradientMap, GrayImage, LabelMap, sobel_magnitude

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


@dataclass(frozen=True)
class PointSet:
    """n points of dimension d as an (n, d) float64 array."""

    points: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.points, dtype=np.float64)
        if p.ndim == 1:
            p = p.reshape(-1, 1)
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
            raise PreconditionError("points must be a nonempty (n, d) array")
        object.__setattr__(self, "points", p)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class Weights:
    """One nonnegative weight per point; at least one must be positive."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise PreconditionError("weights must be one-dimensional")
        if v.min() < 0:
            raise PreconditionError("weights must be nonnegative")
        if v.max() <= 0:
            raise PreconditionError("at least one weight must be positive")
        object.__setattr__(self, "values", v)

    @staticmethod
    def unit(n: int) -> "Weights":
        return Weights(np.ones(n))


@dataclass(frozen=True)
class Assignment:
    """Hard membership: member_of[i] is the cluster index of point i."""

    member_of: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.member_of, dtype=np.int32)
        if m.ndim != 1:
            raise PreconditionError("member_of must be one-dimensional")
        if m.size and m.min() < 0:
            raise PreconditionError("cluster indices must be nonnegative")
        object.__setattr__(self, "member_of", m)


@dataclass(frozen=True)
class ClusterModel:
    """k centers of dimension d as a (k, d) float64 array."""

    centers: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] < 1:
            raise PreconditionError("centers must be a (k, d) array with k >= 1")
        object.__setattr__(self, "centers", c)

    @property
    def k(self) -> int:
        return self.centers.shape[0]


@dataclass(frozen=True)
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
        if self.epsilon < 0:
            raise PreconditionError("epsilon must be >= 0")
        if self.init not in ("quantile", "seeded-random"):
            raise PreconditionError(f"unknown init strategy {self.init!r}")


@dataclass(frozen=True)
class ClusteringResult:
    model: ClusterModel
    assignment: Assignment
    sse_trace: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False


def init_centers(points: PointSet, config: ClusteringConfig) -> ClusterModel:
    """Pick initial centers.

    quantile: sort points lexicographically (first coordinate, then the
    rest, then original index) and take the element at floor((j+0.5)*n/k)
    for j = 0..k-1. Deterministic and seed-free.

    seeded-random: draw k distinct indices from the documented LCG; each
    draw maps to an index via value mod n, redrawing on repeats.
    """
    n, k = points.n, config.k
    if k > n:
        raise TooFewPoints(f"k={k} exceeds point count n={n}")
    pts = points.points
    if config.init == "quantile":
        keys = [np.arange(n)]
        keys.extend(pts[:, j] for j in range(points.dim - 1, -1, -1))
        order = np.lexsort(tuple(keys))
        picks = [order[(2 * j + 1) * n // (2 * k)] for j in range(k)]
    else:
        rng = Lcg(config.seed)
        chosen: list[int] = []
        seen = set()
        while len(chosen) < k:
            idx = rng.next_u32() % n
            if idx not in seen:
                seen.add(idx)
                chosen.append(idx)
        picks = chosen
    return ClusterModel(pts[picks].copy())


def assign_points(points: PointSet, model: ClusterModel) -> Assignment:
    """Assign each point to the nearest center (squared Euclidean);
    ties go to the lowest cluster index."""
    pts = points.points
    centers = model.centers
    if pts.shape[1] != centers.shape[1]:
        raise PreconditionError("point and center dimensions differ")
    diffs = pts[:, None, :] - centers[None, :, :]
    d2 = np.einsum("nkd,nkd->nk", diffs, diffs)
    return Assignment(np.argmin(d2, axis=1).astype(np.int32))


def _cluster_sums(
    points: np.ndarray, assignment: np.ndarray, weights: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-cluster weighted coordinate sums, weight sums, and member counts,
    accumulated in ascending point-index order (np.bincount iterates the
    input sequentially, matching a naive loop bit for bit)."""
    d = points.shape[1]
    sums = np.empty((k, d))
    for j in range(d):
        sums[:, j] = np.bincount(assignment, weights=weights * points[:, j], minlength=k)
    wsum = np.bincount(assignment, weights=weights, minlength=k)
    count = np.bincount(assignment, minlength=k)
    return sums, wsum, count


def update_centers(
    points: PointSet, assignment: Assignment, weights: Weights, k: int
) -> ClusterModel:
    """Recompute each center as the weighted mean of its members.

    A cluster with no members, or whose members all have weight zero, is
    re-seeded at the point with the largest weighted squared distance to
    its own cluster's new center (ties to the lowest point index); each
    re-seed consumes its point so later empty clusters pick fresh ones.
    """
    pts = points.points
    a = assignment.member_of
    w = weights.values
    if a.shape[0] != pts.shape[0] or w.shape[0] != pts.shape[0]:
        raise PreconditionError("assignment and weights must cover every point")
    if a.size and a.max() >= k:
        raise PreconditionError("assignment index out of range")
    sums, wsum, count = _cluster_sums(pts, a, w, k)
    dead = (count == 0) | (wsum == 0)
    centers = np.zeros((k, pts.shape[1]))
    live = ~dead
    centers[live] = sums[live] / wsum[live, None]

    if dead.any():
        # weighted squared distance of each point to its own cluster's new
        # center; members of all-zero-weight clusters score 0 via w=0
        diffs = pts - centers[a]
        d2 = np.einsum("nd,nd->n", diffs, diffs)
        score = w * d2
        for j in np.flatnonzero(dead):
            best = int(np.argmax(score))  # first maximum: lowest index on ties
            centers[j] = pts[best]
            score[best] = -np.inf  # consumed
    return ClusterModel(centers)


def weighted_sse(
    points: PointSet, model: ClusterModel, assignment: Assignment, weights: Weights
) -> float:
    """Sum over points (in ascending index order) of w_i * ||x_i - c||^2."""
    pts = points.points
    diffs = pts - model.centers[assignment.member_of]
    terms = weights.values * np.einsum("nd,nd->n", diffs, diffs)
    # cumsum keeps the naive ascending-order accumulation
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


def run_kmeans(
    points: PointSet, weights: Weights, config: ClusteringConfig
) -> ClusteringResult:
    """Alternate assignment and center updates until centers stop moving.

    Stops when the largest center coordinate change (infinity norm) is at
    most config.epsilon, or after config.max_iter iterations. The SSE is
    recorded after every assignment and is non-increasing.
    """
    model = init_centers(points, config)
    sse_trace: list[float] = []
    assignment = Assignment(np.zeros(points.n, dtype=np.int32))
    converged = False
    iterations = 0
    for it in range(1, config.max_iter + 1):
        iterations = it
        assignment = assign_points(points, model)
        sse_trace.append(weighted_sse(points, model, assignment, weights))
        new_model = update_centers(points, assignment, weights, config.k)
        movement = float(np.max(np.abs(new_model.centers - model.centers)))
        model = new_model
        if movement <= config.epsilon:
            converged = True
            break
    return ClusteringResult(
        model=model,
        assignment=assignment,
        sse_trace=sse_trace,
        iterations=iterations,
        converged=converged,
    )


def edge_weights(gradient: GradientMap, beta: float) -> Weights:
    """Weights 1 / (1 + beta * g) from gradient magnitudes normalized to
    [0, 1] by the global maximum (an all-zero gradient normalizes to 0)."""
    if beta < 0:
        raise PreconditionError("beta must be >= 0")
    mag = gradient.magnitude.astype(np.float64).ravel()
    peak = mag.max()
    ghat = mag / peak if peak > 0 else np.zeros_like(mag)
    return Weights(1.0 / (1.0 + beta * ghat))


def segment_clustering(
    image: GrayImage, config: ClusteringConfig, beta: float | None = None
) -> tuple[LabelMap, ClusteringResult]:
    """Cluster per-pixel intensities into config.k classes.

    With beta set, pixel weights come from edge_weights over the Sobel
    magnitude of the image; otherwise all pixels weigh 1. beta=0 yields
    exactly the unit-weight result.
    """
    points = PointSet(image.pixels.astype(np.float64).reshape(-1, 1))
    if beta is None:
        weights = Weights.unit(points.n)
    else:
        weights = edge_weights(sobel_magnitude(image), beta)
    result = run_kmeans(points, weights, config)
    labels = result.assignment.member_of.reshape(image.height, image.width)
    return LabelMap(labels=labels, k=config.k, complete=True), result
