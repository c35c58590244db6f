"""Batch command-line front end.

Subcommands: threshold, segment, ingest, query, predict. Exit codes:
0 success, 1 usage error, 2 I/O or file-format error, 3 invalid
parameters or an algorithm precondition failure. Diagnostics go to
stderr; output files are written atomically (temp file + rename) and are
never left behind on failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import tempfile

import numpy as np

from . import clustering, features, predict, region, retrieval, threshold
from .errors import FormatError, PreconditionError
from .raster import GrayImage, LabelMap, RgbImage, decode_pnm, encode_pnm, to_gray

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_PARAM = 3


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_image(path: str) -> GrayImage | RgbImage:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror}") from None
    return decode_pnm(data)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc.reason}") from None


def _read_gray(path: str) -> GrayImage:
    image = _read_image(path)
    if isinstance(image, RgbImage):
        return to_gray(image)
    return image


def _write_atomic_bytes(path: str, data: bytes):
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".segkit-tmp")
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc.strerror}") from None
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise FormatError(f"cannot write {path}: {exc.strerror}") from None
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _export_labels(labels: LabelMap, path: str):
    """Write a label map as a P5 PGM with label l mapped to gray value
    l * floor(255 / max(k - 1, 1)); rejects k > 256."""
    if labels.k > 256:
        raise PreconditionError(f"cannot export {labels.k} labels as 8-bit gray")
    scale = 255 // max(labels.k - 1, 1)
    gray = GrayImage((labels.labels * scale).astype(np.uint8))
    _write_atomic_bytes(path, encode_pnm(gray))


def _add_threshold_parser(sub):
    p = sub.add_parser("threshold", help="binarize via histogram thresholding")
    p.add_argument("--method", required=True, choices=("otsu", "valley"))
    p.add_argument("--window", type=int, default=threshold.DEFAULT_SMOOTH_WINDOW,
                   help="histogram smoothing window (valley method)")
    p.add_argument("--min-sep", type=int, default=threshold.DEFAULT_MIN_SEPARATION,
                   help="minimum peak separation in bins (valley method)")
    p.add_argument("input")
    p.add_argument("output")


def _add_clustering_arguments(p):
    """--beta/--seed/--init, shared by segment and predict."""
    p.add_argument("--beta", type=float, default=clustering.DEFAULT_BETA,
                   help="edge weighting strength (edge method)")
    p.add_argument("--seed", type=int, default=0, help="PRNG seed for --init random")
    p.add_argument("--init", choices=("quantile", "random"), default="quantile")


def _add_region_arguments(p):
    """One flag per RegionParams field, with the field's type and default."""
    for f in dataclasses.fields(region.RegionParams):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                       default=f.default, help="region method")


def _add_segment_parser(sub):
    p = sub.add_parser("segment", help="segment an image into labeled classes")
    p.add_argument("--method", required=True, choices=("kmeans", "edge", "region", "windows"))
    p.add_argument("--k", type=int, help="cluster count (kmeans/edge)")
    _add_clustering_arguments(p)
    p.add_argument("--max-iter", type=int, default=clustering.ClusteringConfig.max_iter)
    p.add_argument("--epsilon", type=float, default=clustering.ClusteringConfig.epsilon)
    _add_region_arguments(p)
    p.add_argument("--window", type=int, default=features.DEFAULT_WINDOW,
                   help="local histogram window (windows method)")
    p.add_argument("--refine", type=int, default=0,
                   help="boundary refinement iterations (windows method)")
    p.add_argument("--exemplar", action="append", default=[], metavar="LABEL:FILE",
                   help="class exemplar patch (windows method, repeatable)")
    p.add_argument("input")
    p.add_argument("output")


def _add_ingest_parser(sub):
    p = sub.add_parser("ingest", help="add an image to a retrieval index")
    p.add_argument("--index", required=True)
    p.add_argument("--desc", required=True, help="short text description")
    p.add_argument("input")


def _add_query_parser(sub):
    p = sub.add_parser("query", help="rank indexed images by similarity")
    p.add_argument("--index", required=True)
    p.add_argument("--top", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true",
                   help="scan every record instead of the pruned search")
    p.add_argument("input")


def _add_predict_parser(sub):
    p = sub.add_parser("predict", help="predict a label from a fuzzy rule base")
    p.add_argument("--rules", required=True)
    p.add_argument("--segment-method", choices=("region", "kmeans", "edge"),
                   default="region")
    p.add_argument("--k", type=int, default=2, help="cluster count (kmeans/edge)")
    _add_clustering_arguments(p)
    _add_region_arguments(p)
    # not user-settable for predict; _clustering_config reads them
    p.set_defaults(max_iter=clustering.ClusteringConfig.max_iter,
                   epsilon=clustering.ClusteringConfig.epsilon)
    p.add_argument("input")


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="segkit", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    _add_threshold_parser(sub)
    _add_segment_parser(sub)
    _add_ingest_parser(sub)
    _add_query_parser(sub)
    _add_predict_parser(sub)
    return parser


def _cmd_threshold(args, out) -> int:
    image = _read_gray(args.input)
    hist = threshold.gray_histogram(image)
    if args.method == "otsu":
        report = threshold.otsu_threshold(hist)
    else:
        report = threshold.valley_threshold(hist, args.window, args.min_sep)
    labels = threshold.binarize(image, report.level)
    _export_labels(labels, args.output)
    print(report.level, file=out)
    return EXIT_OK


def _clustering_config(args) -> clustering.ClusteringConfig:
    if args.k is None:
        raise _UsageError("--k is required for kmeans/edge segmentation")
    init = "seeded-random" if args.init == "random" else "quantile"
    return clustering.ClusteringConfig(
        k=args.k, max_iter=args.max_iter, epsilon=args.epsilon,
        init=init, seed=args.seed,
    )


def _region_params(args) -> region.RegionParams:
    return region.RegionParams(
        **{f.name: getattr(args, f.name) for f in dataclasses.fields(region.RegionParams)}
    )


def _parse_exemplars(specs: list[str]) -> list[features.Exemplar]:
    exemplars = []
    for spec in specs:
        label_text, _, path = spec.partition(":")
        if not path or not label_text.isdecimal():
            raise _UsageError(f"--exemplar expects LABEL:FILE with integer LABEL, got {spec!r}")
        feat = features.global_feature(_read_gray(path))
        try:
            label = int(label_text)  # isdecimal text, so only too many digits fail
        except ValueError:
            raise PreconditionError(f"--exemplar label of {len(label_text)} digits") from None
        exemplars.append(features.Exemplar(label=label, feature=feat))
    return exemplars


def _cmd_segment(args, out) -> int:
    image = _read_gray(args.input)
    if args.method in ("kmeans", "edge"):
        config = _clustering_config(args)
        beta = args.beta if args.method == "edge" else None
        labels, result = clustering.segment_clustering(image, config, beta)
        _export_labels(labels, args.output)
        print(f"sse\t{result.sse_trace[-1]:.6f}", file=out)
    elif args.method == "region":
        result = region.primary_segment(image, _region_params(args))
        _export_labels(result.labels, args.output)
        print(f"regions\t{result.labels.k}", file=out)
    else:  # windows
        exemplars = _parse_exemplars(args.exemplar)
        if not exemplars:
            raise _UsageError("--method windows requires at least one --exemplar")
        labels = features.classify_windows(image, exemplars, args.window)
        if args.refine:
            labels = features.refine_boundaries(labels, image, args.window, args.refine)
        _export_labels(labels, args.output)
        print(f"regions\t{labels.k}", file=out)
    return EXIT_OK


def _load_index(path: str) -> retrieval.Index:
    return retrieval.decode_index(_read_text(path))


def _cmd_ingest(args, out) -> int:
    if os.path.exists(args.index):
        index = _load_index(args.index)
    else:
        index = retrieval.Index()
    image = _read_image(args.input)
    rec_id = retrieval.ingest(index, image, args.desc, args.input)
    try:
        data = retrieval.encode_index(index).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise PreconditionError(f"path and description must be UTF-8 text: {exc.reason}") from None
    _write_atomic_bytes(args.index, data)
    print(rec_id, file=out)
    return EXIT_OK


def _cmd_query(args, out) -> int:
    index = _load_index(args.index)
    image = _read_image(args.input)
    query = features.global_feature(image)
    if args.exhaustive:
        results = retrieval.search_exhaustive(index, query, args.top)
    else:
        results, _ = retrieval.search_optimized(index, query, args.top)
    lines = []
    for rank, r in enumerate(results, start=1):
        path = retrieval.escape_field(r.path)
        desc = retrieval.escape_field(r.description)
        lines.append(f"{rank}\t{r.id}\t{r.score:.6f}\t{path}\t{desc}")
    print("\n".join(lines), file=out)
    return EXIT_OK


def _image_features(args, image: GrayImage) -> dict[str, float]:
    """Feature map fed to the rule base: stats of the largest region plus
    the region count (documented names: mean, variance, size_fraction,
    boundary_fraction, region_count)."""
    if args.segment_method == "region":
        result = region.primary_segment(image, _region_params(args))
        stats = result.stats
    else:
        beta = args.beta if args.segment_method == "edge" else None
        labels, _ = clustering.segment_clustering(image, _clustering_config(args), beta)
        stats = region.region_stats(labels, image)
    dominant = max(stats, key=lambda s: (s.size, -s.label))
    return {
        "mean": dominant.mean,
        "variance": dominant.variance,
        "size_fraction": dominant.size_fraction,
        "boundary_fraction": dominant.boundary_fraction,
        "region_count": float(len(stats)),
    }


def _cmd_predict(args, out) -> int:
    rulebase = predict.parse_rulebase(_read_text(args.rules))
    image = _read_gray(args.input)
    feature_map = _image_features(args, image)
    prediction = predict.predict_label(rulebase, feature_map)
    print(f"{prediction.label}\t{prediction.confidence:.6f}", file=out)
    return EXIT_OK


_COMMANDS = {
    "threshold": _cmd_threshold,
    "segment": _cmd_segment,
    "ingest": _cmd_ingest,
    "query": _cmd_query,
    "predict": _cmd_predict,
}


def run(argv: list[str], out=None, err=None) -> int:
    """Parse argv, dispatch, and map errors to exit codes."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"segkit: {exc}", file=err)
        return EXIT_USAGE
    except SystemExit as exc:  # --help exits argparse directly
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.subcommand](args, out)
    except _UsageError as exc:
        print(f"segkit: {exc}", file=err)
        return EXIT_USAGE
    except FormatError as exc:
        print(f"segkit: {exc}", file=err)
        return EXIT_IO
    except PreconditionError as exc:
        print(f"segkit: {exc}", file=err)
        return EXIT_PARAM


def main() -> None:
    sys.exit(run(sys.argv[1:]))
