"""Batch command-line front end.

Subcommands: threshold, segment, ingest, query, predict. Exit codes:
0 success, 1 usage error, 2 I/O or file-format error, 3 invalid
parameters or an algorithm precondition failure. Diagnostics go to
stderr; output files are written atomically (temp file + rename) and are
never left behind on failure. A new output file gets mode 0o666 less the
umask, and a replaced one keeps its mode.
"""

import gc

# The imports below, numpy's most of all, make objects that live until the
# process exits, and their allocations would set off some 30 collections
# that free nothing. The collector stays off while they run; the objects
# they made then go to the permanent generation, which no collection
# traverses, and the collector is back as it was. Nothing runs before this,
# not even a __future__ import, which loads the __future__ module.
_collecting = gc.isenabled()
gc.disable()
try:
    import argparse
    import contextlib
    import errno
    import fcntl
    import os
    import stat
    import sys
    from typing import TYPE_CHECKING

    import numpy as np

    from .errors import FormatError, PreconditionError
    from .raster import GrayImage, LabelMap, RgbImage, decode_pnm, encode_pnm, global_feature, to_gray

    if TYPE_CHECKING:  # only for annotations: each command imports the modules it runs
        from . import clustering, features, region, retrieval
finally:
    gc.freeze()
    if _collecting:
        gc.enable()

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_PARAM = 3


class _UsageError(Exception):
    pass


class _HelpRequested(Exception):
    """--help; args[0] is the help text, which run writes to out."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def print_help(self, file=None):
        raise _HelpRequested(self.format_help())


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror}") from None


def _utf8(data: bytes, path: str) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc.reason}") from None


def _read_image(path: str) -> GrayImage | RgbImage:
    return decode_pnm(_read_bytes(path))


def _read_text(path: str) -> str:
    """path's UTF-8 text with universal newlines: "\r\n" and "\r" read as
    "\n", as open() in text mode reads them."""
    return _utf8(_read_bytes(path), path).replace("\r\n", "\n").replace("\r", "\n")


def _read_gray(path: str) -> GrayImage:
    image = _read_image(path)
    if isinstance(image, RgbImage):
        return to_gray(image)
    return image


def _write_atomic_bytes(path: str, *parts):
    """Replace path by a file of the bytes-like parts, written in turn."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".segkit-tmp{os.urandom(6).hex()}")
    try:
        # the kernel applies the umask, as for a file open(path, "w") creates
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc.strerror}") from None
    try:
        with os.fdopen(fd, "wb") as fh:
            # a replaced file keeps its mode where the file system allows chmod
            with contextlib.suppress(OSError):
                os.fchmod(fh.fileno(), stat.S_IMODE(os.stat(path).st_mode))
            fh.writelines(parts)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise FormatError(f"cannot write {path}: {exc.strerror}") from None
        raise


def _require_8bit_labels(k: int):
    """Raise PreconditionError when k labels do not fit an exported 8-bit
    label map; segment calls this as soon as it knows k."""
    if k > 256:
        raise PreconditionError(f"cannot export {k} labels as 8-bit gray")


def _export_labels(labels: LabelMap, path: str):
    """Write a label map as a P5 PGM with label l mapped to gray value
    l * floor(255 / max(k - 1, 1)); rejects k > 256."""
    _require_8bit_labels(labels.k)
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


def _build_parser(argv: list[str]) -> _ArgumentParser:
    """The parser for argv: with only the subcommand that argv[0] names, as
    an op needs, or with all five, which segkit's own help and usage errors
    list."""
    parser = _ArgumentParser(prog="segkit", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS:
        add_parser, _ = _COMMANDS[name]
        add_parser(sub)
    return parser


def _cmd_threshold(args) -> str:
    from . import threshold
    image = _read_gray(args.input)
    hist = threshold.gray_histogram(image)
    if args.method == "otsu":
        report = threshold.otsu_threshold(hist)
    else:
        report = threshold.valley_threshold(hist, **_set_flags(args, ("smooth_window", "min_separation")))
    labels = threshold.binarize(image, report.level)
    _export_labels(labels, args.output)
    return str(report.level)


def _segment_clustering(args, image: GrayImage, method: str) -> "tuple[LabelMap, clustering.ClusteringResult]":
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


def _region_params(args) -> "region.RegionParams":
    from . import region
    return region.RegionParams(**_set_flags(args, (name for name, _ in REGION_FLAGS)))


def _parse_exemplars(specs: list[str]) -> "list[features.Exemplar]":
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


def _cmd_segment(args) -> str:
    image = _read_gray(args.input)
    if args.method in ("kmeans", "edge"):
        if args.k is not None:
            _require_8bit_labels(args.k)
        labels, result = _segment_clustering(args, image, args.method)
        _export_labels(labels, args.output)
        return f"sse\t{result.sse_trace[-1]:.6f}"
    if args.method == "region":
        from . import region
        labels = region.primary_segment(image, _region_params(args)).labels
    else:  # windows
        from . import features
        exemplars = _parse_exemplars(args.exemplar)
        if not exemplars:
            raise _UsageError("--method windows requires at least one --exemplar")
        _require_8bit_labels(max(e.label for e in exemplars) + 1)
        window = features.DEFAULT_WINDOW if args.window is None else args.window
        labels = features.classify_windows(image, exemplars, window)
        if args.refine:
            labels = features.refine_boundaries(labels, image, window, args.refine)
    _export_labels(labels, args.output)
    return f"regions\t{labels.k}"


def _index_file(path: str) -> str:
    """The file that --index names: a symbolic link resolved by
    os.path.realpath, so that ingests through a link and through its target
    lock one file and replace the target; any other path as given, which
    diagnostics then name."""
    return os.path.realpath(path) if os.path.islink(path) else path


def _load_index(path: str) -> "tuple[retrieval.Index, bool]":
    """The index in the file path, and whether it was decoded from the
    file's text: it is built from its column sidecar <path>.cols when that
    was made for the file's bytes, else decoded from them. A sidecar that is
    missing, unreadable or made for other bytes changes nothing but the time
    taken."""
    from . import retrieval
    data = _read_bytes(path)
    try:
        with open(path + ".cols", "rb", buffering=0) as fh:
            index = retrieval.decode_sidecar(data, fh)
    except OSError:
        index = None
    if index is None:
        # no newline translation: decode_index sees, and rejects, a carriage return
        text = _utf8(data, path)
        del data  # the parse holds the text alone, not its bytes too
        return retrieval.decode_index(text), True
    return index, False


def _write_sidecar(path: str, index: "retrieval.Index", data: bytes | None = None):
    """Write <path>.cols, the column sidecar of index for data, the bytes of
    the index file path (by default the UTF-8 encoding of encode_index(index),
    which are the bytes a decoded index came from). The index file stands
    without it, so every failure is swallowed, and the op's outcome stays
    as it was: a sidecar that cannot be written (FormatError), made
    (EmptyIndex for an index with no records) or held in memory only leaves
    later ops to parse the text."""
    from . import retrieval
    with contextlib.suppress(FormatError, PreconditionError, MemoryError):
        if data is None:
            data = retrieval.encode_index(index).encode("utf-8")
        _write_atomic_bytes(path + ".cols", *retrieval.encode_sidecar(index, data))


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


def _cmd_ingest(args) -> str:
    """Ingests into one index run one at a time: each holds <index>.lock
    from reading the index to renaming the new index and then its column
    sidecar <index>.cols into place. Queries take no lock, since the
    renames already hand every reader whole files, and a sidecar is used
    only for the index bytes it was made for. So a query that fills the
    sidecar after a racing ingest renamed its own leaves a sidecar keyed to
    the older bytes, which the next op reads as a miss."""
    from . import retrieval
    path = _index_file(args.index)
    with _exclusive_lock(path + ".lock"):
        index = _load_index(path)[0] if os.path.exists(path) else retrieval.Index()
        image = _read_image(args.input)
        rec_id = retrieval.ingest(index, image, args.desc, args.input)
        try:
            data = retrieval.encode_index(index).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise PreconditionError(f"path and description must be UTF-8 text: {exc.reason}") from None
        _write_atomic_bytes(path, data)
        _write_sidecar(path, index, data)
    return str(rec_id)


def _cmd_query(args) -> str:
    """A query that had to decode the index text fills its column sidecar
    once it has its results, so the next op on the same bytes reads the
    columns instead."""
    from . import retrieval
    index_path = _index_file(args.index)
    index, decoded = _load_index(index_path)
    image = _read_image(args.input)
    query = global_feature(image)
    if args.exhaustive:
        results = retrieval.search_exhaustive(index, query, args.top)
    else:
        results, _ = retrieval.search_optimized(index, query, args.top)
    if decoded:
        _write_sidecar(index_path, index)
    lines = []
    for rank, r in enumerate(results, start=1):
        path = retrieval.escape_field(r.path)
        desc = retrieval.escape_field(r.description)
        lines.append(f"{rank}\t{r.id}\t{r.score:.6f}\t{path}\t{desc}")
    return "\n".join(lines)


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


def _cmd_predict(args) -> str:
    from . import predict
    rulebase = predict.parse_rulebase(_read_text(args.rules))
    image = _read_gray(args.input)
    feature_map = _image_features(args, image)
    prediction = predict.predict_label(rulebase, feature_map)
    return f"{prediction.label}\t{prediction.confidence:.6f}"


# subcommand -> (the function that adds its parser, the function that runs it)
_COMMANDS = {
    "threshold": (_add_threshold_parser, _cmd_threshold),
    "segment": (_add_segment_parser, _cmd_segment),
    "ingest": (_add_ingest_parser, _cmd_ingest),
    "query": (_add_query_parser, _cmd_query),
    "predict": (_add_predict_parser, _cmd_predict),
}


def _outcome(argv: list[str]) -> tuple[int, str, str]:
    """The exit code of argv, the text it prints to stdout, and its
    diagnostic: one "segkit: " line on a failure, which prints nothing to
    stdout, and "" on success. Writes nothing."""
    try:
        args = _build_parser(argv).parse_args(argv)
        _, command = _COMMANDS[args.subcommand]
        return EXIT_OK, command(args) + "\n", ""
    except _HelpRequested as exc:
        return EXIT_OK, exc.args[0], ""
    except _UsageError as exc:
        code, problem = EXIT_USAGE, exc
    except FormatError as exc:
        code, problem = EXIT_IO, exc
    except PreconditionError as exc:
        code, problem = EXIT_PARAM, exc
    return code, "", f"segkit: {problem}\n"


def run(argv: list[str], out=None, err=None) -> int:
    """Parse argv, dispatch, and map errors to exit codes; the one writer of
    both streams. The op's stdout text goes to out (default sys.stdout),
    flushed, once the op is done: a write that fails, or text with no stdout
    to take it (file descriptor 1 closed at start), is an I/O error like the
    others (exit 2). The diagnostic goes to err (default sys.stderr) if it
    can: with no stderr, or one that fails, it is lost, but it never goes to
    stdout and the exit code stays the op's."""
    code, text, diagnostic = _outcome(argv)
    out = sys.stdout if out is None else out
    try:
        if text:
            if out is None:
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            out.write(text)
            out.flush()
    except OSError as exc:
        code, diagnostic = EXIT_IO, f"segkit: cannot write output: {exc.strerror}\n"
    err = sys.stderr if err is None else err
    if diagnostic and err is not None:
        with contextlib.suppress(OSError):
            err.write(diagnostic)
            err.flush()
    return code


def main() -> None:
    """The segkit console script: run(sys.argv[1:]) with the collector off,
    then exit with its code. An op's objects live until it exits."""
    gc.disable()
    code = run(sys.argv[1:])
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()  # fails only if run could not flush this stream
        except OSError:
            # run handled it; without this, exit would flush the same bytes
            # again, print "Exception ignored" and exit 120 (the recipe in
            # the signal docs)
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    # every live object moves to the permanent generation, which the full
    # collections of interpreter finalization never traverse
    gc.freeze()
    sys.exit(code)
