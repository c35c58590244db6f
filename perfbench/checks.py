"""Output checks: an op fails unless its exit code, stdout and output file
are exactly what the program must produce.

Label maps are parsed with a strict P5 reader of our own, and the
retrieval checks build their expectations in-process (search_exhaustive on
a mirror of the index, the ingest line from an independent histogram), so
a check never trusts the code path it is checking.
"""

from __future__ import annotations

import re

import numpy as np

from segkit import retrieval
from segkit.features import global_feature
from segkit.raster import GrayImage

from workloads import RULE_LABELS, Op, Setup

_PGM_RE = re.compile(rb"\AP5\n(\d+) (\d+)\n255\n")
_LEVEL_RE = re.compile(rb"\A(\d+)\n\Z")
_SSE_RE = re.compile(rb"\Asse\t\d+\.\d{6}\n\Z")
_REGIONS_RE = re.compile(rb"\Aregions\t(\d+)\n\Z")
_PREDICT_RE = re.compile(rb"\A(\S+)\t(\d+\.\d{6})\n\Z")


def parse_pgm(data: bytes) -> np.ndarray | None:
    """Pixels of a canonical P5 file (as the CLI writes it), else None."""
    m = _PGM_RE.match(data)
    if not m:
        return None
    w, h = int(m.group(1)), int(m.group(2))
    body = data[m.end() :]
    if len(body) != w * h:
        return None
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w)


def _input_shape(files: dict[str, bytes], op: Op) -> tuple[int, int]:
    return parse_pgm(files[op.argv[-2]]).shape


def _check_labels(data: bytes | None, shape, k: int, compact: bool) -> str | None:
    """The label PGM decodes, has the input's size, and uses only the k-level
    palette l * floor(255 / max(k - 1, 1)); with compact, every level."""
    if data is None:
        return "no output file"
    pix = parse_pgm(data)
    if pix is None:
        return "output is not a canonical P5 image"
    if pix.shape != shape:
        return f"output is {pix.shape}, input is {shape}"
    if not 1 <= k <= 256:
        return f"label count {k} outside 1..256"
    palette = np.arange(k) * (255 // max(k - 1, 1))
    used = np.unique(pix)
    if not np.isin(used, palette).all():
        return f"gray values outside the {k}-level palette"
    if compact and used.size != k:
        return f"{used.size} gray levels for {k} regions"
    return None


def expected_query(setup: Setup, op: Op, search=retrieval.search_exhaustive) -> bytes:
    """Query rows for op, from search_exhaustive over the index as it stands
    after the cycle's earlier ingests."""
    index = mirror_index(setup, op.state)
    image = GrayImage(parse_pgm(setup.files[op.argv[-1]]))
    results = search(index, global_feature(image), int(op.argv[op.argv.index("--top") + 1]))
    lines = [
        f"{rank}\t{r.id}\t{r.score:.6f}\t{retrieval.escape_field(r.path)}\t{retrieval.escape_field(r.description)}"
        for rank, r in enumerate(results, start=1)
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


def mirror_index(setup: Setup, state: int) -> retrieval.Index:
    base = setup.base_index
    index = retrieval.Index(feature_dim=base.feature_dim, records=list(base.records))
    for name, desc, pixels in setup.ingests[:state]:
        retrieval.ingest(index, GrayImage(pixels), desc, name)
    return index


def expected_index(setup: Setup, state: int) -> bytes:
    """Index file bytes after `state` ingests: the base file plus one line per
    ingest, built from an independent histogram of the ingested pixels."""
    data = setup.files["base.idx"]
    n = len(setup.base_index.records)
    for i, (name, desc, pixels) in enumerate(setup.ingests[:state]):
        counts = np.bincount(pixels.ravel(), minlength=256)
        line = f"{n + i}\t{pixels.size}\t{','.join(map(str, counts))}\t{name}\t{desc}\n"
        data += line.encode("utf-8")
    return data


def check(setup: Setup, op: Op, rc: int, stdout: bytes, output: bytes | None,
          search=retrieval.search_exhaustive) -> str | None:
    """None when the op's result is correct, else the reason it failed.
    search computes the reference ranking for query ops."""
    if rc != 0:
        return f"exit code {rc}"
    if not stdout:
        return "empty stdout"
    if op.kind == "threshold":
        m = _LEVEL_RE.match(stdout)
        if not m or int(m.group(1)) > 255:
            return f"malformed level {stdout[:40]!r}"
        bad = _check_labels(output, op.pixels.shape, 2, compact=False)
        if bad:
            return bad
        want = np.where(op.pixels > int(m.group(1)), 255, 0)
        return None if np.array_equal(parse_pgm(output), want) else "binarized image disagrees with the level"
    if op.kind == "segment":
        if op.argv[op.argv.index("--method") + 1] in ("kmeans", "edge"):
            if not _SSE_RE.match(stdout):
                return f"malformed sse line {stdout[:40]!r}"
            return _check_labels(output, _input_shape(setup.files, op), op.k, compact=False)
        m = _REGIONS_RE.match(stdout)
        if not m:
            return f"malformed regions line {stdout[:40]!r}"
        k = int(m.group(1))
        if op.k is not None and k != op.k:
            return f"{k} regions printed, {op.k} expected"
        return _check_labels(output, _input_shape(setup.files, op), k, compact=op.k is None)
    if op.kind == "predict":
        m = _PREDICT_RE.match(stdout)
        if not m or m.group(1).decode() not in RULE_LABELS or float(m.group(2)) > 1.0:
            return f"malformed prediction {stdout[:40]!r}"
        return None
    if op.kind == "query":
        return None if stdout == expected_query(setup, op, search) else "query rows differ from search_exhaustive"
    if op.kind == "ingest":
        rec_id = len(setup.base_index.records) + op.state
        if stdout != f"{rec_id}\n".encode():
            return f"ingest printed {stdout[:40]!r}, expected id {rec_id}"
        return None if output == expected_index(setup, op.state + 1) else "index file differs from expected"
    return f"unknown op kind {op.kind}"
