"""segkit: batch image segmentation, indexed retrieval, and fuzzy-rule
label prediction for 8-bit PNM images."""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines; each name is imported from its
# submodule on first access (PEP 562), so importing segkit loads no submodule
_EXPORTS = {
    "clustering": "Assignment ClusteringConfig ClusteringResult ClusterModel PointSet Weights edge_weights run_kmeans "
                  "segment_clustering",
    "features": "Exemplar FeatureVector classify_windows global_feature local_histogram refine_boundaries",
    "predict": "FuzzyRule Prediction RuleBase Trapezoid parse_rulebase predict_label",
    "raster": "GradientMap GrayImage LabelMap RgbImage box_smooth decode_pnm encode_pnm sobel_magnitude to_gray",
    "region": "RegionParams RegionStats SegmentationResult primary_segment region_stats",
    "retrieval": "ImageRecord Index RankedResult decode_index encode_index ingest search_exhaustive search_optimized "
                 "similarity",
    "threshold": "Histogram ThresholdReport binarize gray_histogram otsu_threshold valley_threshold",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_SOURCE)


def __getattr__(name: str):
    if name in _EXPORTS or name == "errors":
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    return value
