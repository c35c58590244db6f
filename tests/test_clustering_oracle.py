"""segment_clustering, which iterates over the 256 intensity levels,
against run_kmeans over the pixels as 1-D points: identical labels, center
bits, SSE trace, iteration count and convergence flag."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from segkit.clustering import (
    ClusteringConfig,
    PointSet,
    Weights,
    edge_weights,
    run_kmeans,
    segment_clustering,
)
from segkit.errors import TooFewPoints
from segkit.raster import GrayImage, sobel_magnitude

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
SHAPES = st.one_of(
    st.tuples(st.just(1), st.integers(1, 16)),
    st.tuples(st.integers(1, 16), st.just(1)),
    st.tuples(st.integers(1, 16), st.integers(1, 16)),
)


@st.composite
def images(draw):
    """Few-level plateaus (many tied pixels, few distinct levels), or any
    pixels."""
    h, w = draw(SHAPES)
    if draw(st.booleans()):
        return GrayImage(draw(arrays(np.uint8, (h, w))))
    levels = np.array(draw(st.lists(st.integers(0, 255), min_size=1, max_size=4)), dtype=np.uint8)
    return GrayImage(levels[draw(arrays(np.uint8, (h, w), elements=st.integers(0, levels.size - 1)))])


@st.composite
def cases(draw):
    """k from 1 to one past the pixel count: k above the number of distinct
    levels forces dead clusters, k above the pixel count is an error."""
    image = draw(images())
    config = ClusteringConfig(
        k=draw(st.integers(1, image.pixels.size + 1)),
        max_iter=draw(st.one_of(st.integers(1, 6), st.just(100))),
        epsilon=draw(st.sampled_from([0.0, 1e-4, 0.5])),
        init=draw(st.sampled_from(["quantile", "seeded-random"])),
        seed=draw(st.integers(0, 2**32)),
    )
    beta = draw(st.sampled_from([None, 0.0, 0.3, 2.0, 25.0]))
    return image, config, beta


def per_point(image, config, beta):
    points = PointSet(image.pixels.astype(np.float64).reshape(-1, 1))
    if beta is None:
        weights = Weights.unit(points.n)
    else:
        weights = edge_weights(sobel_magnitude(image), beta)
    return run_kmeans(points, weights, config)


@PROPERTY
@given(cases())
def test_segment_clustering_matches_per_point_kmeans(case):
    image, config, beta = case
    if config.k > image.pixels.size:
        with pytest.raises(TooFewPoints):
            segment_clustering(image, config, beta)
        return
    labels, got = segment_clustering(image, config, beta)
    want = per_point(image, config, beta)
    assert labels.labels.dtype == np.int32 and labels.k == config.k and labels.complete
    assert labels.labels.tobytes() == want.assignment.member_of.tobytes()
    assert got.assignment.member_of.tobytes() == want.assignment.member_of.tobytes()
    assert got.model.centers.shape == want.model.centers.shape
    assert got.model.centers.tobytes() == want.model.centers.tobytes()
    assert np.array(got.sse_trace).tobytes() == np.array(want.sse_trace).tobytes()
    assert (got.iterations, got.converged) == (want.iterations, want.converged)


@pytest.mark.parametrize("beta", [None, 2.0])
def test_segment_clustering_memory_stays_bounded(beta):
    # per-point K-means holds (n, k, 1) differences and (n, k) distances,
    # about 52 MB at 640x640 and k = 8; it peaks near 63 MB
    rng = np.random.default_rng(11)
    image = GrayImage(rng.integers(0, 256, (640, 640), dtype=np.uint8))
    tracemalloc.start()
    try:
        segment_clustering(image, ClusteringConfig(k=8, max_iter=3), beta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 << 20
