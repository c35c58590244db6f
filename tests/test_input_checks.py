"""Every value type, integer and real argument goes through one of raster's
input checks (_exact_cast, require_int, require_real, pad_edge,
require_same_shape), so an input one of them refuses raises
PreconditionError wherever it arrives."""

import io
import time
from fractions import Fraction

import numpy as np
import pytest

from segkit.cli import run
from segkit.clustering import (Assignment, ClusterModel, ClusteringConfig, PointSet, Weights, edge_weights,
                               update_centers, weighted_sse)
from segkit.errors import NoTwoPeaks, PreconditionError
from segkit.features import FeatureVector, local_histogram
from segkit.predict import Trapezoid, trapezoid_membership
from segkit.raster import GradientMap, GrayImage, LabelMap, decode_pnm, encode_pnm
from segkit.region import RegionParams, _ratio, merge_small_regions
from segkit.retrieval import ImageRecord, Index, ingest, search_exhaustive, search_optimized
from segkit.threshold import binarize, gray_histogram, valley_threshold


def bimodal(tmp_path):
    rng = np.random.default_rng(0)
    pix = np.concatenate([rng.integers(20, 60, (16, 32)), rng.integers(180, 230, (16, 32))]).astype(np.uint8)
    pix[0, :4] = [0, 0, 255, 255]
    path = tmp_path / "in.pgm"
    path.write_bytes(encode_pnm(GrayImage(pix)))
    return str(path)


def valley(path, window, out):
    stdout, stderr = io.StringIO(), io.StringIO()
    code = run(["threshold", "--method", "valley", "--window", str(window), path, out], out=stdout, err=stderr)
    return code, stdout.getvalue()


def test_valley_window_past_the_padding_bound_exits_3_at_once(tmp_path):
    # 256 + 2 * (window // 2) bins > 2**20 padded entries; a window this wide
    # once took time and memory linear in its width
    start = time.perf_counter()
    assert valley(bimodal(tmp_path), 1048323, str(tmp_path / "out.pgm")) == (3, "")
    assert time.perf_counter() - start < 0.5


def test_valley_widest_window_keeps_its_level(tmp_path):
    # the widest window still pads (the padding bound's diagnostic would name
    # the window radius), and like every window of 511 or more its exact sums
    # hold no two peaks: the level 183 that the float averages gave was noise
    stdout, stderr = io.StringIO(), io.StringIO()
    argv = ["threshold", "--method", "valley", "--window", "1048321", bimodal(tmp_path), str(tmp_path / "o.pgm")]
    code = run(argv, out=stdout, err=stderr)
    assert (code, stdout.getvalue()) == (3, "")
    assert stderr.getvalue() == "segkit: no two local maxima separated by >= 16 bins\n"


@pytest.mark.parametrize("window", [511, 513, 601, 4001])
def test_valley_windows_of_511_and_more_have_no_two_peaks(tmp_path, window):
    # they cover all 256 bins from every bin, so the window sums are linear
    # in the bin; the float averages gave levels at 601 and 4001
    with open(bimodal(tmp_path), "rb") as fh:
        hist = gray_histogram(decode_pnm(fh.read()))
    assert valley_threshold(hist).level == 45
    with pytest.raises(NoTwoPeaks):
        valley_threshold(hist, window)


def test_window_past_2_to_the_29_is_refused_by_the_padding_bound():
    image = GrayImage(np.arange(16, dtype=np.uint8).reshape(4, 4))
    with pytest.raises(PreconditionError, match="too large"):
        local_histogram(image, 0, 0, 2**29 + 1)


def test_local_histogram_window_past_the_padding_bound_raises():
    image = GrayImage(np.arange(16, dtype=np.uint8).reshape(4, 4))
    assert local_histogram(image, 0, 0, 1021).dimension == 256
    with pytest.raises(PreconditionError):
        local_histogram(image, 0, 0, 1023)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: Assignment([2**32, 1]), id="assignment-wraps"),
    pytest.param(lambda: Assignment([1.7]), id="assignment-fraction"),
    pytest.param(lambda: ImageRecord(id=0, path="p", description="d", counts=[1.7, 1.2], total=2),
                 id="record-fraction"),
    pytest.param(lambda: ClusterModel([[np.nan], [9.0]]), id="center-nan"),
    pytest.param(lambda: ClusterModel([[np.inf], [9.0]]), id="center-inf"),
    pytest.param(lambda: GradientMap([[1.5, 2.0]]), id="gradient-fraction"),
    pytest.param(lambda: GradientMap([[np.nan, 2.0]]), id="gradient-nan"),
    pytest.param(lambda: GradientMap([[2**31, 2.0]]), id="gradient-wraps"),
])
def test_value_types_refuse_values_their_cast_would_alter(make):
    with pytest.raises(PreconditionError):
        make()


@pytest.mark.parametrize("make", [
    pytest.param(lambda: LabelMap(np.zeros((0, 3), dtype=np.int32), k=1), id="labels-no-rows"),
    pytest.param(lambda: LabelMap(np.zeros((3, 0), dtype=np.int32), k=1), id="labels-no-columns"),
    pytest.param(lambda: GradientMap(np.zeros((0, 3), dtype=np.int32)), id="gradient-no-rows"),
    pytest.param(lambda: GradientMap(np.zeros((3, 0), dtype=np.int32)), id="gradient-no-columns"),
    pytest.param(lambda: Weights([]), id="weights"),
])
def test_empty_values_raise_precondition_error(make):
    with pytest.raises(PreconditionError):
        make()


@pytest.mark.parametrize("make", [
    pytest.param(lambda: LabelMap(np.zeros((2, 2), dtype=np.int32), k=2.5), id="label-map-k"),
    pytest.param(lambda: RegionParams(smooth_radius=1.5), id="smooth-radius"),
    pytest.param(lambda: RegionParams(min_seed_size=2.5), id="min-seed-size"),
    pytest.param(lambda: RegionParams(min_region_size=2.5), id="min-region-size"),
    pytest.param(lambda: binarize(GrayImage(np.zeros((2, 2), dtype=np.uint8)), 1.5), id="binarize-level"),
    pytest.param(lambda: valley_threshold(gray_histogram(GrayImage(np.zeros((2, 2), dtype=np.uint8))), 5, 2.5),
                 id="valley-min-separation"),
    pytest.param(lambda: update_centers(PointSet([0.0, 1.0]), Assignment([0, 1]), Weights.unit(2), 2.5),
                 id="update-centers-k"),
    pytest.param(lambda: ImageRecord(id=2.5, path="p", description="d", counts=[1, 1], total=2), id="record-id"),
])
def test_integer_arguments_refuse_fractions(make):
    with pytest.raises(PreconditionError, match="must be an integer"):
        make()


@pytest.mark.parametrize("make", [
    pytest.param(lambda: RegionParams(variance_threshold="1"), id="variance-threshold"),
    pytest.param(lambda: RegionParams(contrast_guard=None), id="contrast-guard"),
    pytest.param(lambda: ClusteringConfig(k=2, epsilon="0"), id="epsilon"),
    pytest.param(lambda: edge_weights(GradientMap([[0, 3], [1, 2]]), "1"), id="beta"),
    pytest.param(lambda: Trapezoid("a", 1, 2, 3), id="knot"),
    pytest.param(lambda: trapezoid_membership("x", Trapezoid(0, 1, 2, 3)), id="membership-value"),
])
def test_real_arguments_refuse_non_numbers(make):
    with pytest.raises(PreconditionError, match="must be a real number"):
        make()


@pytest.mark.parametrize("make", [
    pytest.param(lambda: ImageRecord(0, None, "d", [1, 1], 2), id="record-path"),
    pytest.param(lambda: ImageRecord(0, "p", b"d", [1, 1], 2), id="record-description"),
    pytest.param(lambda: ingest(Index(), GrayImage(np.zeros((2, 2), dtype=np.uint8)), None, "p"),
                 id="ingest-description"),
])
def test_record_text_fields_must_be_str(make):
    with pytest.raises(PreconditionError, match="must be str"):
        make()


def test_a_fraction_threshold_keeps_its_exact_value():
    params = RegionParams(variance_threshold=Fraction(1, 3))
    assert type(params.variance_threshold) is Fraction and _ratio(params.variance_threshold) == (1, 3)


@pytest.mark.parametrize("search", [search_exhaustive, search_optimized])
def test_search_top_must_be_an_integer(search):
    index = Index()
    image = GrayImage(np.arange(16, dtype=np.uint8).reshape(4, 4))
    ingest(index, image, "d", "p")
    query = FeatureVector(np.full(256, 1 / 256))
    with pytest.raises(PreconditionError, match="must be an integer"):
        search(index, query, 2.5)


def test_merge_small_regions_refuses_an_image_of_another_shape():
    labels = LabelMap(np.zeros((4, 4), dtype=np.int32), k=1)
    with pytest.raises(PreconditionError):
        merge_small_regions(labels, GrayImage(np.zeros((8, 2), dtype=np.uint8)), RegionParams())


class TestClusteringMembers:
    points = PointSet([0.0, 10.0])
    model = ClusterModel([[1.0], [9.0]])

    def test_weighted_sse_needs_one_index_per_point(self):
        with pytest.raises(PreconditionError):
            weighted_sse(self.points, self.model, Assignment([0]), Weights.unit(2))

    def test_weighted_sse_needs_one_weight_per_point(self):
        with pytest.raises(PreconditionError):
            weighted_sse(self.points, self.model, Assignment([0, 1]), Weights.unit(3))

    def test_weighted_sse_index_out_of_range(self):
        with pytest.raises(PreconditionError):
            weighted_sse(self.points, self.model, Assignment([0, 2]), Weights.unit(2))
