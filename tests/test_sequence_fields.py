"""Sequence fields of the value types are tuples: each type stores the
sequence it is given as a tuple, so a returned result cannot be changed in
place, and a later change to the caller's list does not reach the value."""

import numpy as np
import pytest

from segkit.clustering import ClusteringConfig, segment_clustering
from segkit.errors import DuplicateFeatureInRule
from segkit.predict import FuzzyRule, Prediction, RuleBase, Trapezoid, predict_label
from segkit.raster import GrayImage
from segkit.region import RegionParams, RegionStats, primary_segment
from segkit.threshold import ThresholdReport


def halves() -> GrayImage:
    pixels = np.full((16, 16), 10, dtype=np.uint8)
    pixels[:, 8:] = 200
    return GrayImage(pixels)


def test_a_clustering_trace_cannot_be_changed_in_place():
    _, result = segment_clustering(halves(), ClusteringConfig(k=2))
    trace = result.sse_trace
    assert type(trace) is tuple and trace
    with pytest.raises(AttributeError):
        trace.append(-1.0)
    assert result.sse_trace == trace and result.sse_trace[-1] != -1.0


def test_segmentation_stats_cannot_be_changed_in_place():
    result = primary_segment(halves(), RegionParams(min_seed_size=4))
    stats = result.stats
    assert type(stats) is tuple and len(stats) == 2
    with pytest.raises(AttributeError):
        stats.clear()
    assert len(result.stats) == 2


def test_a_rule_base_keeps_its_rules_when_their_list_is_emptied():
    rules = [FuzzyRule("dark", (("mean", Trapezoid(0, 0, 50, 100)),))]
    rulebase = RuleBase(rules)
    rules.clear()
    assert type(rulebase.rules) is tuple and len(rulebase.rules) == 1
    assert predict_label(rulebase, {"mean": 20.0}).label == "dark"


def test_a_rule_built_from_a_list_is_hashable_and_keeps_its_checked_antecedents():
    antecedents = [["mean", Trapezoid(0, 0, 50, 100)]]
    rule = FuzzyRule("dark", antecedents)
    antecedents.append(("mean", Trapezoid(0, 10, 20, 30)))
    antecedents[0][0] = "size"
    assert rule.antecedents == (("mean", Trapezoid(0, 0, 50, 100)),)
    assert hash(rule) == hash(FuzzyRule("dark", (("mean", Trapezoid(0, 0, 50, 100)),)))
    with pytest.raises(DuplicateFeatureInRule):
        FuzzyRule("dark", antecedents + [["size", Trapezoid(0, 0, 1, 1)]])


def test_region_stats_keep_their_bbox_when_its_list_changes():
    b = [0, 0, 1, 1]
    s = RegionStats(0, 4, 1.0, 0.0, b, 1.0, 0.0)
    b[2] = 99
    assert s.bbox == (0, 0, 1, 1) and type(s.bbox) is tuple
    assert hash(s) == hash(RegionStats(0, 4, 1.0, 0.0, (0, 0, 1, 1), 1.0, 0.0))
    assert all(type(r.bbox) is tuple for r in primary_segment(halves(), RegionParams(min_seed_size=4)).stats)


def test_a_prediction_keeps_its_activations_when_their_list_is_cleared():
    activations = [0.25, 0.75]
    prediction = Prediction("bright", 0.75, activations)
    activations.clear()
    assert prediction.activations == (0.25, 0.75)
    assert hash(prediction) == hash(Prediction("bright", 0.75, (0.25, 0.75)))


def test_threshold_peaks_are_a_tuple_or_none():
    peaks = [10, 200]
    report = ThresholdReport(100, "valley", peaks)
    peaks[0] = 150
    assert report.peaks == (10, 200) and hash(report) == hash(ThresholdReport(100, "valley", (10, 200)))
    assert ThresholdReport(100, "otsu").peaks is None
    assert ThresholdReport(100, "otsu", None).peaks is None
