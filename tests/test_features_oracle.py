"""Window classification, boundary refinement and local histograms against
the reference implementations in features_oracle, which build the full
(H, W, 256) count tensor or gather clamped coordinates: byte-identical label
maps and features, and equal k."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import features_oracle as oracle
from segkit.errors import PreconditionError
from segkit.features import (
    _STRIP,
    Exemplar,
    FeatureVector,
    classify_windows,
    local_histogram,
    refine_boundaries,
)
from segkit.raster import GrayImage, LabelMap

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
SHAPES = st.one_of(
    st.tuples(st.just(1), st.integers(1, 24)),
    st.tuples(st.integers(1, 24), st.just(1)),
    st.tuples(st.integers(1, 24), st.integers(1, 24)),
)


@st.composite
def images(draw):
    """Few-level plateaus (tied windows everywhere), or any pixels."""
    h, w = draw(SHAPES)
    if draw(st.booleans()):
        return GrayImage(draw(arrays(np.uint8, (h, w))))
    levels = np.array(draw(st.lists(st.integers(0, 255), min_size=1, max_size=4)), dtype=np.uint8)
    return GrayImage(levels[draw(arrays(np.uint8, (h, w), elements=st.integers(0, levels.size - 1)))])


def windows(image):
    """Odd windows from 1 to beyond twice the longer image side."""
    return st.integers(0, max(image.pixels.shape) + 1).map(lambda r: 2 * r + 1)


@st.composite
def exemplar_lists(draw, image):
    """1-4 exemplars with labels 0-3 (duplicates allowed). Features are
    histograms of samples of the image, or one-level deltas; a repeated
    feature under another label, or two deltas equally far from a plateau,
    gives exact ties."""
    samples = image.pixels.ravel()
    features = []
    for _ in range(draw(st.integers(1, 4))):
        if features and draw(st.booleans()):
            features.append(features[draw(st.integers(0, len(features) - 1))])
            continue
        if draw(st.booleans()):
            picks = draw(st.lists(st.integers(0, samples.size - 1), min_size=1, max_size=12))
            counts = np.bincount(samples[picks], minlength=256)
        else:
            counts = np.zeros(256, dtype=np.int64)
            counts[draw(st.integers(0, 255))] = 1
        features.append(FeatureVector(counts / counts.sum()))
    return [Exemplar(draw(st.integers(0, 3)), f) for f in features]


@st.composite
def classify_cases(draw):
    image = draw(images())
    return image, draw(exemplar_lists(image)), draw(windows(image))


@st.composite
def refine_cases(draw):
    """An image, a complete label map (classified, or drawn from a subset
    of [0, k) so some classes are empty), a window and 0-4 iterations."""
    image = draw(images())
    window = draw(windows(image))
    if draw(st.booleans()):
        labels = classify_windows(image, draw(exemplar_lists(image)), window)
    else:
        k = draw(st.integers(1, 6))
        used = np.array(draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=4)), dtype=np.int32)
        picks = draw(arrays(np.uint8, image.pixels.shape, elements=st.integers(0, used.size - 1)))
        labels = LabelMap(used[picks], k=k)
    return image, labels, window, draw(st.integers(0, 4))


def same_labels(a: LabelMap, b: LabelMap) -> bool:
    return (a.k, a.complete, a.labels.dtype, a.labels.tobytes()) == (
        b.k, b.complete, b.labels.dtype, b.labels.tobytes())


@PROPERTY
@given(classify_cases())
def test_classify_windows_matches_tensor_oracle(case):
    image, exemplars, window = case
    assert same_labels(
        classify_windows(image, exemplars, window), oracle.classify_windows(image, exemplars, window)
    )


@PROPERTY
@given(refine_cases())
def test_refine_boundaries_matches_tensor_oracle(case):
    image, labels, window, iterations = case
    assert same_labels(
        refine_boundaries(labels, image, window, iterations),
        oracle.refine_boundaries(labels, image, window, iterations),
    )


def test_window_features_memory_stays_bounded():
    # nearly every pixel of a classified noise image is a boundary pixel;
    # the tensor versions peak near 76 MB (classify) and 330 MB (refine)
    rng = np.random.default_rng(7)
    image = GrayImage(rng.integers(0, 256, (256, 256), dtype=np.uint8))
    exemplars = []
    for label in range(3):
        counts = rng.integers(0, 10, 256)
        exemplars.append(Exemplar(label, FeatureVector(counts / counts.sum())))
    tracemalloc.start()
    try:
        labels = classify_windows(image, exemplars, 15)
        classify_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        refine_boundaries(labels, image, 15, 3)
        refine_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert classify_peak < 32 << 20
    assert refine_peak < 32 << 20


# Shapes that cross strips: classify_windows slides each row's window from
# one dense anchor column per _STRIP columns.
WIDE_SHAPES = st.one_of(
    st.tuples(st.just(1), st.integers(1, 3 * _STRIP + 5)),
    st.tuples(st.integers(1, 5), st.integers(_STRIP - 2, 3 * _STRIP + 5)),
)


@st.composite
def strip_cases(draw):
    """A strip-crossing image (any pixels, or a plateau of at most three
    levels), two draws of exemplar_lists plus copies one ulp apart, in any
    order, and an odd window from 1 to beyond the image's height."""
    h, w = draw(WIDE_SHAPES)
    window = 2 * draw(st.integers(0, max(h, 8) + 1)) + 1
    if draw(st.booleans()):
        image = GrayImage(draw(arrays(np.uint8, (h, w))))
    else:
        levels = np.array(draw(st.lists(st.integers(0, 255), min_size=1, max_size=3)), dtype=np.uint8)
        image = GrayImage(levels[draw(arrays(np.uint8, (h, w), elements=st.integers(0, levels.size - 1)))])
    exemplars = draw(exemplar_lists(image)) + draw(exemplar_lists(image))
    for e in list(exemplars):
        if draw(st.booleans()):
            bins = e.feature.bins.copy()
            v = draw(st.sampled_from(np.flatnonzero(bins).tolist()))
            bins[v] = np.nextafter(bins[v], draw(st.sampled_from([0.0, 2.0])))
            exemplars.append(Exemplar(draw(st.integers(0, 3)), FeatureVector(bins)))
    exemplars = draw(st.permutations(exemplars))
    return image, exemplars, window


@PROPERTY
@given(strip_cases())
def test_classify_windows_across_strips_matches_tensor_oracle(case):
    image, exemplars, window = case
    assert same_labels(
        classify_windows(image, exemplars, window), oracle.classify_windows(image, exemplars, window)
    )


@pytest.mark.parametrize("shape, window", [((4, 4), 1021), ((1, 1), 1023)])
def test_largest_window_memory_stays_bounded(shape, window):
    # the largest windows raster.pad_edge accepts for these images; a table
    # of window**2 entries per pixel, or per pair of pixels, would not fit
    rng = np.random.default_rng(11)
    image = GrayImage(rng.integers(0, 256, shape, dtype=np.uint8))
    exemplars = [Exemplar(0, FeatureVector(np.full(256, 1 / 256)))]
    for label, level in ((1, 40), (2, 220)):
        counts = np.zeros(256)
        counts[level - 20 : level + 20] = 1
        exemplars.append(Exemplar(label, FeatureVector(counts / counts.sum())))
    tracemalloc.start()
    try:
        labels = classify_windows(image, exemplars, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20
    feats = np.stack([e.feature.bins for e in exemplars])
    expected = [
        [np.argmin(np.abs(local_histogram(image, x, y, window).bins - feats).sum(axis=1)) for x in range(shape[1])]
        for y in range(shape[0])
    ]
    assert labels.labels.tolist() == expected


def padded_too_large(shape, radius):
    """raster.pad_edge's bound: more than 16 times the image's pixels, or
    2**20 where that is more."""
    h, w = shape
    return (h + 2 * radius) * (w + 2 * radius) > max(16 * h * w, 1 << 20)


@st.composite
def window_positions(draw):
    """An image, a pixel of it and an odd window: small, or at most two
    radii from the largest that raster.pad_edge accepts for the image."""
    image = draw(images())
    h, w = image.pixels.shape
    largest = 0
    while not padded_too_large((h, w), largest + 1):
        largest += 1
    near = st.sampled_from((largest - 2, largest - 1, largest, largest + 1, largest + 2))
    radius = draw(near if draw(st.booleans()) else st.integers(0, 30))
    return image, draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1)), 2 * radius + 1


@PROPERTY
@given(window_positions())
def test_local_histogram_matches_clamped_gather(case):
    image, x, y, window = case
    if padded_too_large(image.pixels.shape, window // 2):
        with pytest.raises(PreconditionError):
            local_histogram(image, x, y, window)
        return
    got, want = local_histogram(image, x, y, window), oracle.local_histogram(image, x, y, window)
    assert got.bins.dtype == want.bins.dtype and got.bins.tobytes() == want.bins.tobytes()
