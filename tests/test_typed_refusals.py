"""Typed refusals that no other test reaches: each input below breaks one
check, and the error names that check, so deleting the check fails its
test."""

import io
import os

import numpy as np
import pytest

from segkit import cli
from segkit.clustering import Assignment, ClusteringConfig, Weights
from segkit.errors import (BadHeader, EmptyRuleBase, IncompleteLabels, PreconditionError, RuleSyntaxError,
                           TruncatedData)
from segkit.features import local_histogram, refine_boundaries
from segkit.predict import FuzzyRule, RuleBase, parse_rulebase
from segkit.raster import UNLABELED, GrayImage, LabelMap, box_smooth, decode_pnm, encode_pnm, global_feature_counts
from segkit.region import RegionParams, merge_small_regions
from segkit.retrieval import decode_index
from segkit.threshold import Histogram, binarize

GRAY = GrayImage(np.zeros((2, 2), dtype=np.uint8))
PARTIAL = LabelMap(np.full((2, 2), UNLABELED), k=1, complete=False)


@pytest.mark.parametrize("data", [b"P5\n0 1\n255\n", b"P5\n1 0\n255\n"])
def test_decode_pnm_refuses_an_empty_dimension(data):
    with pytest.raises(TruncatedData, match="bad dimensions"):
        decode_pnm(data + b"\0")


def test_decode_pnm_needs_whitespace_after_the_maxval():
    with pytest.raises(TruncatedData, match="missing whitespace byte after maxval"):
        decode_pnm(b"P5\n1 1\n255")


def test_label_map_needs_a_label():
    with pytest.raises(PreconditionError, match="k must be >= 1"):
        LabelMap(np.zeros((1, 1)), k=0)


@pytest.mark.parametrize("label", [-1, 2])
def test_complete_label_map_labels_lie_in_range(label):
    with pytest.raises(PreconditionError, match="complete LabelMap"):
        LabelMap(np.array([[0, label]]), k=2)


@pytest.mark.parametrize("label", [UNLABELED - 1, 2])
def test_partial_label_map_labels_lie_in_range(label):
    with pytest.raises(PreconditionError, match="partial LabelMap"):
        LabelMap(np.array([[0, label]]), k=2, complete=False)


def test_box_smooth_refuses_a_negative_radius():
    with pytest.raises(PreconditionError, match="radius must be >= 0"):
        box_smooth(GRAY, -1)


def test_binarize_refuses_a_level_past_255():
    with pytest.raises(PreconditionError, match="level must be in"):
        binarize(GRAY, 256)


def test_histogram_refuses_a_negative_count():
    counts = np.zeros(256, dtype=np.int64)
    counts[7] = -1
    with pytest.raises(PreconditionError, match="counts must be nonnegative"):
        Histogram(counts)


def test_refine_boundaries_needs_complete_labels():
    with pytest.raises(IncompleteLabels, match="refine_boundaries"):
        refine_boundaries(PARTIAL, GRAY, 3, 1)


def test_merge_small_regions_needs_complete_labels():
    with pytest.raises(IncompleteLabels, match="merge_small_regions"):
        merge_small_regions(PARTIAL, GRAY, RegionParams())


def test_decode_index_needs_the_header_newline():
    with pytest.raises(BadHeader, match="header line without a final newline"):
        decode_index("SEGIDX\t1\t0")


@pytest.mark.parametrize("text, message", [
    ("FOO a : x IN (0, 1, 2, 3)", "expected 'RULE <label>"),
    ("RULE a b : x IN (0, 1, 2, 3)", "label must be a single token"),
    ("RULE a : x (0, 1, 2, 3)", "bad antecedent"),
    ("RULE a : x IN (0, 1, 2, zz)", "bad knot 'zz'"),
])
def test_parse_rulebase_names_the_broken_rule(text, message):
    with pytest.raises(RuleSyntaxError, match=f"line 2: {message}"):
        parse_rulebase("RULE ok : x IN (0, 1, 2, 3)\n" + text)


def test_weights_need_a_positive_weight():
    with pytest.raises(PreconditionError, match="at least one weight must be positive"):
        Weights(np.zeros(3))


def test_clustering_config_refuses_an_unknown_init():
    with pytest.raises(PreconditionError, match="unknown init strategy 'x'"):
        ClusteringConfig(k=2, init="x")


@pytest.mark.parametrize("convert", [encode_pnm, global_feature_counts])
def test_image_functions_refuse_a_non_image(convert):
    with pytest.raises(TypeError, match="expected GrayImage or RgbImage, got ndarray"):
        convert(GRAY.pixels)


@pytest.mark.parametrize("x, y", [(2, 0), (0, 2), (-1, 0)])
def test_local_histogram_refuses_a_point_outside_the_image(x, y):
    with pytest.raises(PreconditionError, match=f"\\({x}, {y}\\) outside 2x2 image"):
        local_histogram(GRAY, x, y, 1)


def test_fuzzy_rule_needs_an_antecedent():
    with pytest.raises(PreconditionError, match="a rule needs at least one antecedent"):
        FuzzyRule("a", [])


def test_rule_base_needs_a_rule():
    with pytest.raises(EmptyRuleBase, match="a rule base needs at least one rule"):
        RuleBase(())


def test_assignment_refuses_a_negative_index():
    with pytest.raises(PreconditionError, match="cluster indices must be nonnegative"):
        Assignment([0, -1])


def test_atomic_write_interrupted_removes_its_temp_file(tmp_path, monkeypatch):
    # only an OSError becomes a FormatError; anything else is re-raised as it
    # is, after the temp file is removed and with the target left untouched
    class Interrupted(io.BufferedWriter):
        def writelines(self, parts):
            raise KeyboardInterrupt

    monkeypatch.setattr(cli.os, "fdopen", lambda fd, mode: Interrupted(io.FileIO(fd, "w")))
    target = tmp_path / "out.pgm"
    target.write_bytes(b"old")
    with pytest.raises(KeyboardInterrupt):
        cli._write_atomic_bytes(str(target), b"new")
    assert os.listdir(tmp_path) == ["out.pgm"]
    assert target.read_bytes() == b"old"
