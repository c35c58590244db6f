"""Clamped-window box sums against a per-pixel loop: box_smooth and the seed
variance test, both read from raster.window_sums, equal a direct evaluation
over clamped window coordinates in exact rationals."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from segkit.raster import GrayImage, box_smooth
from segkit.region import _local_variance_ok

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
SHAPES = st.one_of(
    st.tuples(st.just(1), st.integers(1, 12)),
    st.tuples(st.integers(1, 12), st.just(1)),
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
)


def clamped_window(pixels, y, x, radius):
    """The (2r+1)^2 samples around (y, x), coordinates clamped to the image."""
    h, w = pixels.shape
    ys = [min(max(j, 0), h - 1) for j in range(y - radius, y + radius + 1)]
    xs = [min(max(i, 0), w - 1) for i in range(x - radius, x + radius + 1)]
    return [int(v) for v in pixels[np.ix_(ys, xs)].ravel()]


def smooth_reference(pixels, radius):
    out = np.empty_like(pixels)
    for y, x in np.ndindex(pixels.shape):
        samples = clamped_window(pixels, y, x, radius)
        out[y, x] = math.floor(Fraction(sum(samples), len(samples)) + Fraction(1, 2))
    return out


def window_variance(pixels, y, x):
    """Exact population variance of the clamped 3x3 window at (y, x)."""
    samples = clamped_window(pixels, y, x, 1)
    mean = Fraction(sum(samples), 9)
    return sum((v - mean) ** 2 for v in samples) / 9


@st.composite
def images(draw):
    """Any pixels, few-level plateaus, or multiples of 9: those make every
    3x3 window variance an integer, so a float threshold can equal it."""
    h, w = draw(SHAPES)
    kind = draw(st.sampled_from(("any", "levels", "nines")))
    if kind == "any":
        return GrayImage(draw(arrays(np.uint8, (h, w))))
    if kind == "nines":
        return GrayImage(draw(arrays(np.uint8, (h, w), elements=st.integers(0, 28))) * 9)
    levels = np.array(draw(st.lists(st.integers(0, 255), min_size=1, max_size=4)), dtype=np.uint8)
    return GrayImage(levels[draw(arrays(np.uint8, (h, w), elements=st.integers(0, levels.size - 1)))])


@PROPERTY
@given(st.data())
def test_box_smooth_matches_per_pixel_loop(data):
    image = data.draw(images())
    side = max(image.pixels.shape)
    radius = data.draw(st.one_of(st.integers(0, 3), st.integers(side, side + 2)))
    assert np.array_equal(box_smooth(image, radius).pixels, smooth_reference(image.pixels, radius))


@PROPERTY
@given(st.data())
def test_local_variance_ok_matches_per_pixel_loop(data):
    image = data.draw(images())
    pixels = image.pixels
    variances = {(y, x): window_variance(pixels, y, x) for y, x in np.ndindex(pixels.shape)}
    at = variances[data.draw(st.sampled_from(sorted(variances)))]
    # exactly at a window's variance (when a float holds it), or one step off
    threshold = data.draw(
        st.one_of(
            st.just(float(at)),
            st.sampled_from((np.nextafter(float(at), 0), np.nextafter(float(at), np.inf))),
            st.floats(0, 20000),
        )
    )
    expected = np.zeros(pixels.shape, dtype=bool)
    for (y, x), variance in variances.items():
        expected[y, x] = variance <= Fraction(threshold)
    assert np.array_equal(_local_variance_ok(image, threshold), expected)
