"""Batch command-line front end.

Subcommands: threshold, segment, ingest, query, predict. Exit codes:
0 success, 1 usage error, 2 I/O or file-format error, 3 invalid
parameters or an algorithm precondition failure. Diagnostics go to
stderr; output files are written atomically (temp file + rename) and are
never left behind on failure.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import os
import sys
import tempfile
from typing import TYPE_CHECKING

import numpy as np

from .errors import FormatError, PreconditionError
from .raster import GrayImage, LabelMap, RgbImage, decode_pnm, encode_pnm, global_feature, to_gray

if TYPE_CHECKING:  # only for annotations: each command imports the modules it runs
    from . import clustering, features, region, retrieval

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


def _read_text(path: str, newline: str | None = None) -> str:
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as fh:
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
    # dest is valley_threshold's keyword; metavar keeps the help text
    p.add_argument("--window", type=int, dest="smooth_window", metavar="WINDOW",
                   help="histogram smoothing window (valley method)")
    p.add_argument("--min-sep", type=int, dest="min_separation", metavar="MIN_SEP",
                   help="minimum peak separation in bins (valley method)")
    p.add_argument("input")
    p.add_argument("output")


def _add_clustering_arguments(p):
    """--beta/--seed/--init, shared by segment and predict."""
    p.add_argument("--beta", type=float, help="edge weighting strength (edge method)")
    p.add_argument("--seed", type=int, help="PRNG seed for --init random")
    p.add_argument("--init", choices=("quantile", "random"))


# (name, type) of each RegionParams field, in field order: one flag each
REGION_FLAGS = (("smooth_radius", int), ("variance_threshold", float), ("min_seed_size", int),
                ("min_region_size", int), ("contrast_guard", float))


def _add_region_arguments(p):
    for name, kind in REGION_FLAGS:
        p.add_argument("--" + name.replace("_", "-"), type=kind, help="region method")


def _set_flags(args, names) -> dict:
    """The named flags the user set; the library's defaults fill the rest."""
    return {name: value for name in names if (value := getattr(args, name, None)) is not None}


def _add_segment_parser(sub):
    p = sub.add_parser("segment", help="segment an image into labeled classes")
    p.add_argument("--method", required=True, choices=("kmeans", "edge", "region", "windows"))
    p.add_argument("--k", type=int, help="cluster count (kmeans/edge)")
    _add_clustering_arguments(p)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--epsilon", type=float)
    _add_region_arguments(p)
    p.add_argument("--window", type=int, help="local histogram window (windows method)")
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
    from . import threshold
    image = _read_gray(args.input)
    hist = threshold.gray_histogram(image)
    if args.method == "otsu":
        report = threshold.otsu_threshold(hist)
    else:
        report = threshold.valley_threshold(hist, **_set_flags(args, ("smooth_window", "min_separation")))
    labels = threshold.binarize(image, report.level)
    _export_labels(labels, args.output)
    print(report.level, file=out)
    return EXIT_OK


def _segment_clustering(args, image: GrayImage, method: str) -> tuple[LabelMap, clustering.ClusteringResult]:
    """K-means (method "kmeans") or edge-weighted K-means ("edge") of image."""
    from . import clustering
    if args.k is None:
        raise _UsageError("--k is required for kmeans/edge segmentation")
    options = _set_flags(args, ("max_iter", "epsilon", "seed", "init"))
    if options.get("init") == "random":
        options["init"] = "seeded-random"
    config = clustering.ClusteringConfig(k=args.k, **options)
    beta = None
    if method == "edge":
        beta = clustering.DEFAULT_BETA if args.beta is None else args.beta
    return clustering.segment_clustering(image, config, beta)


def _region_params(args) -> region.RegionParams:
    from . import region
    return region.RegionParams(**_set_flags(args, (name for name, _ in REGION_FLAGS)))


def _parse_exemplars(specs: list[str]) -> list[features.Exemplar]:
    from . import features
    exemplars = []
    for spec in specs:
        label_text, _, path = spec.partition(":")
        if not path or not label_text.isdecimal():
            raise _UsageError(f"--exemplar expects LABEL:FILE with integer LABEL, got {spec!r}")
        feat = global_feature(_read_gray(path))
        try:
            label = int(label_text)  # isdecimal text, so only too many digits fail
        except ValueError:
            raise PreconditionError(f"--exemplar label of {len(label_text)} digits") from None
        exemplars.append(features.Exemplar(label=label, feature=feat))
    return exemplars


def _cmd_segment(args, out) -> int:
    image = _read_gray(args.input)
    if args.method in ("kmeans", "edge"):
        labels, result = _segment_clustering(args, image, args.method)
        _export_labels(labels, args.output)
        print(f"sse\t{result.sse_trace[-1]:.6f}", file=out)
    elif args.method == "region":
        from . import region
        result = region.primary_segment(image, _region_params(args))
        _export_labels(result.labels, args.output)
        print(f"regions\t{result.labels.k}", file=out)
    else:  # windows
        from . import features
        exemplars = _parse_exemplars(args.exemplar)
        if not exemplars:
            raise _UsageError("--method windows requires at least one --exemplar")
        window = features.DEFAULT_WINDOW if args.window is None else args.window
        labels = features.classify_windows(image, exemplars, window)
        if args.refine:
            labels = features.refine_boundaries(labels, image, window, args.refine)
        _export_labels(labels, args.output)
        print(f"regions\t{labels.k}", file=out)
    return EXIT_OK


def _load_index(path: str) -> retrieval.Index:
    from . import retrieval
    # no newline translation: decode_index sees, and rejects, a carriage return
    return retrieval.decode_index(_read_text(path, newline=""))


@contextlib.contextmanager
def _exclusive_lock(path: str):
    """Hold an exclusive flock on path, created if missing, for the block."""
    try:
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o666)
    except OSError as exc:
        raise FormatError(f"cannot open lock file {path}: {exc.strerror}") from None
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
        except OSError as exc:
            raise FormatError(f"cannot lock {path}: {exc.strerror}") from None
        yield
    finally:
        os.close(fd)


def _cmd_ingest(args, out) -> int:
    """Ingests into one index run one at a time: each holds <index>.lock
    from reading the index to renaming the new one into place. Queries take
    no lock, since the rename already hands every reader a whole file."""
    from . import retrieval
    with _exclusive_lock(args.index + ".lock"):
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
    from . import retrieval
    index = _load_index(args.index)
    image = _read_image(args.input)
    query = global_feature(image)
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
    from . import region
    if args.segment_method == "region":
        result = region.primary_segment(image, _region_params(args))
        stats = result.stats
    else:
        labels, _ = _segment_clustering(args, image, args.segment_method)
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
    from . import predict
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
