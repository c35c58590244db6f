"""Reference index codec: per-line decoding and per-element encoding.

These are the straightforward implementations that segkit.retrieval
replaced with a codec working on all records at once; the tests compare the
two for byte-identical encodings, equal records and the same error lines.
"""

from __future__ import annotations

import numpy as np

from segkit.errors import BadHeader, BadRecord
from segkit.retrieval import (
    FORMAT_VERSION,
    ImageRecord,
    Index,
    escape_field,
    unescape_field,
)


def pivot_distance(counts: np.ndarray, total: int) -> float:
    """L1 distance from counts/total to the uniform histogram, computed
    from integers and rounded once: sum |c_i * dim - total| / (total * dim)."""
    dim = counts.size
    num = 2 * int(np.maximum(counts * dim - total, 0).sum())
    return num / (total * dim)


def encode_index(index: Index) -> str:
    dim = index.feature_dim if index.feature_dim is not None else 0
    lines = [f"SEGIDX\t{index.version}\t{dim}"]
    for rec in index.records:
        counts = ",".join(str(int(c)) for c in rec.counts)
        lines.append(
            f"{rec.id}\t{rec.total}\t{counts}\t{escape_field(rec.path)}\t{escape_field(rec.description)}"
        )
    return "\n".join(lines) + "\n"


def decode_index(text: str) -> Index:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise BadHeader("empty index text")
    head = lines[0].split("\t")
    if len(head) != 3 or head[0] != "SEGIDX":
        raise BadHeader(f"malformed header line {lines[0]!r}")
    try:
        version, dim = int(head[1]), int(head[2])
    except ValueError:
        raise BadHeader(f"non-numeric header fields in {lines[0]!r}") from None
    if version != FORMAT_VERSION:
        raise BadHeader(f"unsupported format version {version}")
    if dim not in (0, 64, 256):
        raise BadHeader(f"unsupported feature dimension {dim}")
    index = Index(feature_dim=None if dim == 0 else dim)
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != 5:
            raise BadRecord(f"line {lineno}: expected 5 fields, got {len(parts)}")
        try:
            rec_id = int(parts[0])
            total = int(parts[1])
            counts = np.array([int(c) for c in parts[2].split(",")], dtype=np.int64)
            path = unescape_field(parts[3])
            description = unescape_field(parts[4])
        except (ValueError, OverflowError) as exc:
            raise BadRecord(f"line {lineno}: {exc}") from None
        if index.feature_dim is None:
            raise BadHeader("records present but feature dimension is 0")
        if rec_id != len(index.records):
            raise BadRecord(f"line {lineno}: expected id {len(index.records)}, got {rec_id}")
        if counts.size != index.feature_dim:
            raise BadRecord(
                f"line {lineno}: {counts.size} counts, expected {index.feature_dim}"
            )
        try:
            rec = ImageRecord(
                id=rec_id, path=path, description=description, counts=counts, total=total
            )
        except ValueError as exc:
            raise BadRecord(f"line {lineno}: {exc}") from None
        index.records.append(rec)
    return index
