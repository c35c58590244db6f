"""The Lloyd loop over distinct points against the per-point reference in
clustering_oracle: run_kmeans and its steps bit for bit, and
segment_clustering against the level-order reference segment_levels (and,
for unit weights, against the reference run_kmeans over the pixels in all
but the SSE)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import clustering_oracle as oracle
from segkit.clustering import (
    Assignment,
    ClusteringConfig,
    ClusterModel,
    PointSet,
    Weights,
    assign_points,
    init_centers,
    run_kmeans,
    segment_clustering,
    update_centers,
)
from segkit.errors import TooFewPoints
from test_clustering_oracle import cases as image_cases

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def point_sets(draw):
    """n <= 40 points of dimension 1 to 4 whose coordinates come from a
    small pool, so points repeat and distances tie."""
    n, d = draw(st.integers(1, 40)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        coordinate = st.integers(-20, 20).map(float)
    else:
        coordinate = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    pool = np.array(draw(st.lists(coordinate, min_size=1, max_size=8)))
    return PointSet(pool[draw(arrays(np.intp, (n, d), elements=st.integers(0, pool.size - 1)))])


@st.composite
def weights_for(draw, n):
    """Unit weights, or weights that include zeros (at least one positive)."""
    if draw(st.booleans()):
        return Weights.unit(n)
    values = draw(arrays(np.float64, n, elements=st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.5, 1e-3])))
    values[draw(st.integers(0, n - 1))] = draw(st.sampled_from([0.5, 1.0, 7.0]))
    return Weights(values)


@st.composite
def configs(draw, n):
    """k from 1 to one past the point count: k above the number of distinct
    points forces dead clusters, k above the point count is an error."""
    return ClusteringConfig(
        k=draw(st.integers(1, n + 1)),
        max_iter=draw(st.one_of(st.integers(1, 6), st.just(100))),
        epsilon=draw(st.sampled_from([0.0, 1e-4, 0.5])),
        init=draw(st.sampled_from(["quantile", "seeded-random"])),
        seed=draw(st.integers(0, 2**32)),
    )


@st.composite
def kmeans_cases(draw):
    points = draw(point_sets())
    return points, draw(weights_for(points.n)), draw(configs(points.n))


def assert_same_result(got, want):
    assert got.assignment.member_of.tobytes() == want.assignment.member_of.tobytes()
    assert got.model.centers.shape == want.model.centers.shape
    assert got.model.centers.tobytes() == want.model.centers.tobytes()
    assert np.array(got.sse_trace).tobytes() == np.array(want.sse_trace).tobytes()
    assert (got.iterations, got.converged) == (want.iterations, want.converged)


@PROPERTY
@given(kmeans_cases())
def test_run_kmeans_matches_per_point_reference(case):
    points, weights, config = case
    if config.k > points.n:
        for run in (run_kmeans, oracle.run_kmeans):
            with pytest.raises(TooFewPoints):
                run(points, weights, config)
        return
    assert_same_result(run_kmeans(points, weights, config), oracle.run_kmeans(points, weights, config))


@PROPERTY
@given(kmeans_cases())
def test_init_centers_matches_per_point_reference(case):
    points, _, config = case
    if config.k > points.n:
        for init in (init_centers, oracle.init_centers):
            with pytest.raises(TooFewPoints):
                init(points, config)
        return
    got, want = init_centers(points, config), oracle.init_centers(points, config)
    assert got.centers.tobytes() == want.centers.tobytes()


@PROPERTY
@given(point_sets(), st.data())
def test_assign_points_matches_per_point_reference(points, data):
    # centers drawn from the points themselves tie often
    k = data.draw(st.integers(1, 6))
    rows = data.draw(arrays(np.intp, k, elements=st.integers(0, points.n - 1)))
    shift = data.draw(st.sampled_from([0.0, 0.5, -3.0]))
    model = ClusterModel(points.points[rows] + shift)
    got, want = assign_points(points, model), oracle.assign_points(points, model)
    assert got.member_of.tobytes() == want.member_of.tobytes()


@PROPERTY
@given(point_sets(), st.data())
def test_update_centers_matches_per_point_reference(points, data):
    # memberships over up to n + 2 clusters leave some clusters empty
    k = data.draw(st.integers(1, points.n + 2))
    member_of = data.draw(arrays(np.int32, points.n, elements=st.integers(0, k - 1)))
    weights = data.draw(weights_for(points.n))
    got = update_centers(points, Assignment(member_of), weights, k)
    want = oracle.update_centers(points, Assignment(member_of), weights, k)
    assert got.centers.tobytes() == want.centers.tobytes()


@PROPERTY
@given(image_cases())
def test_segment_clustering_matches_per_point_reference(case):
    image, config, beta = case
    if config.k > image.pixels.size:
        for segment in (segment_clustering, oracle.segment_levels):
            with pytest.raises(TooFewPoints):
                segment(image, config, beta)
        return
    labels, got = segment_clustering(image, config, beta)
    want = oracle.segment_levels(image, config, beta)
    assert labels.labels.tobytes() == want.assignment.member_of.tobytes()
    assert_same_result(got, want)
    if beta is None:
        points = PointSet(image.pixels.astype(np.float64).reshape(-1, 1))
        pixels = oracle.run_kmeans(points, Weights.unit(points.n), config)
        assert got.assignment.member_of.tobytes() == pixels.assignment.member_of.tobytes()
        assert got.model.centers.tobytes() == pixels.model.centers.tobytes()
        assert (got.iterations, got.converged) == (pixels.iterations, pixels.converged)
