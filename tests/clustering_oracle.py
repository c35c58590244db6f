"""Reference K-means over individual points: one row per point, one
argmax over every point per dead cluster; and segment_levels, the same
loop over the 256 intensity levels of an image.

These are the per-point steps that segkit.clustering replaced with one
Lloyd loop over distinct points (a row per distinct point, a member index
per point, and each row's multiplicity and weight sum); the tests compare
the two bit for bit: centers, assignment, SSE trace, iterations and
convergence.
"""

from __future__ import annotations

import numpy as np

from segkit.clustering import (
    Assignment,
    ClusteringConfig,
    ClusteringResult,
    ClusterModel,
    PointSet,
    Weights,
    _random_picks,
    edge_weights,
)
from segkit.errors import PreconditionError, TooFewPoints
from segkit.raster import GrayImage, sobel_magnitude


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
        picks = _random_picks(n, k, config.seed)
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
        _reseed(centers, dead, w * np.einsum("nd,nd->n", diffs, diffs), pts)
    return ClusterModel(centers)


def _reseed(
    centers: np.ndarray, dead: np.ndarray, score: np.ndarray, points: np.ndarray
) -> None:
    """Move each dead center, in cluster order, onto the point with the
    largest score (first maximum: lowest point index on ties); each
    re-seed consumes its point. Updates centers and score in place."""
    for j in np.flatnonzero(dead):
        best = int(np.argmax(score))
        centers[j] = points[best]
        score[best] = -np.inf


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


def segment_levels(image: GrayImage, config: ClusteringConfig, beta: float | None) -> ClusteringResult:
    """K-means of the pixel intensities with the 256 levels as the points.

    Level v weighs W_v, the sum of the weights of its pixels (unit weights,
    or edge_weights of the Sobel magnitude for beta set) in pixel order. The
    initial centers and every re-seed are picked among the pixels, as
    run_kmeans over the pixels picks them; assignment, SSE and center sums
    run over the levels in level order. Labels are per pixel.
    """
    pixels = PointSet(image.pixels.astype(np.float64).reshape(-1, 1))
    if beta is None:
        w = Weights.unit(pixels.n).values
    else:
        w = edge_weights(sobel_magnitude(image), beta).values
    level_of = image.pixels.ravel().astype(np.intp)
    levels = PointSet(np.arange(256.0).reshape(-1, 1))
    level_weights = np.bincount(level_of, weights=w, minlength=256)
    k = config.k
    model = init_centers(pixels, config)
    sse_trace: list[float] = []
    nearest = np.zeros(256, dtype=np.int32)
    converged = False
    iterations = 0
    for it in range(1, config.max_iter + 1):
        iterations = it
        nearest = assign_points(levels, model).member_of
        sse_trace.append(weighted_sse(levels, model, Assignment(nearest), Weights(level_weights)))
        sums, wsum, _ = _cluster_sums(levels.points, nearest, level_weights, k)
        count = np.bincount(nearest[level_of], minlength=k)
        dead = (count == 0) | (wsum == 0)
        centers = np.zeros((k, 1))
        live = ~dead
        centers[live] = sums[live] / wsum[live, None]
        if dead.any():
            # each pixel scores against its level's cluster's new center
            diffs = pixels.points - centers[nearest[level_of]]
            _reseed(centers, dead, w * np.einsum("nd,nd->n", diffs, diffs), pixels.points)
        movement = float(np.max(np.abs(centers - model.centers)))
        model = ClusterModel(centers)
        if movement <= config.epsilon:
            converged = True
            break
    return ClusteringResult(
        model=model,
        assignment=Assignment(nearest[level_of]),
        sse_trace=sse_trace,
        iterations=iterations,
        converged=converged,
    )
