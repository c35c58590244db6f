"""Region seeding, growing and merging against the reference implementations
in region_oracle: byte-identical label maps and equal statistics."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import region_oracle as oracle
from segkit.errors import NoSeeds
from segkit.raster import UNLABELED, GrayImage, LabelMap
from segkit.region import (
    RegionParams,
    _connected_components,
    grow_regions,
    merge_small_regions,
    primary_segment,
    region_stats,
    select_seeds,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
SHAPES = st.tuples(st.integers(1, 14), st.integers(1, 14))


def checkerboard(h, w):
    return np.add.outer(np.arange(h), np.arange(w)) % 2 == 0


def serpentine(h, w):
    """Full even rows joined by one pixel at alternating ends."""
    mask = np.zeros((h, w), dtype=bool)
    mask[::2] = True
    mask[1::4, -1] = True
    mask[3::4, 0] = True
    return mask


@st.composite
def masks(draw, shape=None):
    h, w = shape or draw(SHAPES)
    kind = draw(st.sampled_from(("random", "all", "none", "checkerboard", "serpentine")))
    if kind == "random":
        return draw(arrays(bool, (h, w)))
    if kind == "checkerboard":
        return checkerboard(h, w) ^ draw(st.booleans())
    if kind == "serpentine":
        return serpentine(h, w)
    return np.full((h, w), kind == "all")


@st.composite
def images(draw, shape=None):
    """Few-level plateaus (tied priorities everywhere), or any pixels."""
    h, w = shape or draw(SHAPES)
    if draw(st.booleans()):
        return GrayImage(draw(arrays(np.uint8, (h, w))))
    levels = np.array(draw(st.lists(st.integers(0, 255), min_size=1, max_size=4)), dtype=np.uint8)
    return GrayImage(levels[draw(arrays(np.uint8, (h, w), elements=st.integers(0, levels.size - 1)))])


@st.composite
def seed_maps(draw):
    """An image and a partial label map seeded on a drawn mask."""
    h, w = draw(SHAPES)
    mask = draw(masks(shape=(h, w)))
    if not mask.any():
        mask[draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = True
    k = draw(st.integers(1, 5))
    regions = draw(arrays(np.int32, (h, w), elements=st.integers(0, k - 1)))
    seeds = LabelMap(np.where(mask, regions, UNLABELED).astype(np.int32), k=k, complete=False)
    return draw(images(shape=(h, w))), seeds


region_params = st.builds(
    RegionParams,
    smooth_radius=st.integers(0, 2),
    variance_threshold=st.one_of(st.sampled_from((0.0, 16.0, 25.0, 100.0)), st.floats(0, 5000)),
    min_seed_size=st.integers(1, 12),
    min_region_size=st.integers(0, 20),
    contrast_guard=st.sampled_from((0.0, 20.0, 40.0, 255.0)),
)


def same_labels(a: LabelMap, b: LabelMap) -> bool:
    return (a.k, a.complete, a.labels.dtype, a.labels.tobytes()) == (
        b.k, b.complete, b.labels.dtype, b.labels.tobytes())


def outcome(fn, *args):
    try:
        return fn(*args)
    except NoSeeds:
        return NoSeeds


@st.composite
def complete_maps(draw):
    """An image and a complete label map whose values come from a drawn
    subset of [0, k), so some label values are unused."""
    h, w = draw(SHAPES)
    k = draw(st.integers(1, 8))
    used = np.array(draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=4)), dtype=np.int32)
    picks = draw(arrays(np.uint8, (h, w), elements=st.integers(0, used.size - 1)))
    return draw(images(shape=(h, w))), LabelMap(used[picks], k=k)


@PROPERTY
@given(masks())
def test_connected_components_match_bfs(mask):
    labels, count = _connected_components(mask)
    ref_labels, ref_count = oracle._connected_components(mask)
    assert count == ref_count
    assert labels.dtype == ref_labels.dtype and labels.tobytes() == ref_labels.tobytes()


@PROPERTY
@given(images(), region_params)
def test_select_seeds_matches_oracle(image, params):
    seeds = outcome(select_seeds, image, params)
    ref = outcome(oracle.select_seeds, image, params)
    assert seeds is ref is NoSeeds or same_labels(seeds, ref)


@PROPERTY
@given(seed_maps())
def test_grow_regions_matches_oracle(case):
    image, seeds = case
    assert same_labels(grow_regions(image, seeds), oracle.grow_regions(image, seeds))


@PROPERTY
@given(images(), region_params)
def test_primary_segment_matches_oracle(image, params):
    result = outcome(primary_segment, image, params)
    ref = outcome(oracle.primary_segment, image, params)
    if result is NoSeeds or ref is NoSeeds:
        assert result is ref
        return
    assert same_labels(result.labels, ref.labels)
    assert result.stats == ref.stats
    assert (result.seed_count, result.merged) == (ref.seed_count, ref.merged)


@pytest.mark.parametrize("shape", [(1, 40), (40, 1), (9, 9), (10, 7)])
def test_grow_from_serpentine_seed_on_plateau(shape):
    # one winding seed on a two-level image: long chains of tied priorities
    image = GrayImage(np.where(checkerboard(*shape), 100, 101).astype(np.uint8))
    comp, count = _connected_components(serpentine(*shape))
    seeds = LabelMap(comp, k=count, complete=False)
    assert same_labels(grow_regions(image, seeds), oracle.grow_regions(image, seeds))


@PROPERTY
@given(complete_maps())
def test_region_stats_match_mask_scans(case):
    image, labels = case
    assert region_stats(labels, image) == oracle.region_stats(labels, image)


@st.composite
def merge_cases(draw):
    """An image, a complete label map and merge params. Regions of one level
    each, from three levels, tie region means and mean gaps; the guard is
    drawn (Python and numpy ints and floats, inf), or is the gap between two
    labels' means when a float holds it exactly."""
    image, labels = draw(complete_maps())
    if draw(st.booleans()):
        levels = draw(arrays(np.uint8, labels.k, elements=st.sampled_from((0, 10, 20))))
        image = GrayImage(levels[labels.labels])
    flat, pix = labels.labels.ravel(), image.pixels.ravel().astype(np.int64)
    means = {Fraction(int(pix[flat == j].sum()), int((flat == j).sum())) for j in np.unique(flat).tolist()}
    gaps = sorted(float(abs(a - b)) for a in means for b in means if Fraction(float(abs(a - b))) == abs(a - b))
    drawn = st.sampled_from((0, 0.5, 20, 40.0, np.float64(7.25), np.int64(12), math.inf))
    guard = draw(st.sampled_from(gaps) if draw(st.booleans()) else drawn)
    params = RegionParams(min_region_size=draw(st.integers(0, flat.size + 1)), contrast_guard=guard)
    return image, labels, params


# the middle region's two neighbors are equally far; the lower label wins
TIED_GAPS = (GrayImage(np.array([[0, 0, 10, 20, 20]], dtype=np.uint8)),
             LabelMap(np.array([[1, 1, 0, 2, 2]]), k=3), RegionParams(min_region_size=2))


@PROPERTY
@given(merge_cases())
@example(TIED_GAPS)
def test_merge_small_regions_matches_fraction_means(case):
    image, labels, params = case
    merged = merge_small_regions(labels, image, params)
    assert same_labels(merged, oracle.merge_small_regions(labels, image, params))
