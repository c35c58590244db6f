"""Reference index codec and search: per-line decoding, per-element
encoding, and record-at-a-time scoring.

These are the straightforward implementations that segkit.retrieval
replaced with a codec working on all records at once and a search scoring
blocks of rows as one matrix; the tests compare the two for byte-identical
encodings, equal records, the same error lines, and equal rankings.
"""

from __future__ import annotations

import heapq

import numpy as np

from segkit.errors import BadHeader, BadRecord
from segkit.retrieval import (
    _PRUNE_MARGIN,
    FORMAT_VERSION,
    ImageRecord,
    Index,
    RankedResult,
)

from format_oracle import escape_field, unescape_field


def pivot_distance(counts: np.ndarray, total: int) -> float:
    """L1 distance from counts/total to the uniform histogram, computed
    from integers and rounded once: sum |c_i * dim - total| / (total * dim)."""
    dim = counts.size
    num = 2 * int(np.maximum(counts * dim - total, 0).sum())
    return num / (total * dim)


def encode_index(index: Index) -> str:
    dim = index.feature_dim if index.feature_dim is not None else 0
    lines = [f"SEGIDX\t{FORMAT_VERSION}\t{dim}"]
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
    if index.feature_dim is None and len(lines) > 1:
        raise BadHeader("records present but feature dimension is 0")
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


def score(rec: ImageRecord, qbins: np.ndarray) -> float:
    return float(np.minimum(rec.counts / rec.total, qbins).sum())


def _ranked(rec: ImageRecord, score: float) -> RankedResult:
    return RankedResult(id=rec.id, score=score, path=rec.path, description=rec.description)


def search_exhaustive(records: list[ImageRecord], qbins: np.ndarray, top: int) -> list[RankedResult]:
    scored = sorted(((score(r, qbins), r) for r in records), key=lambda sr: (-sr[0], sr[1].id))
    return [_ranked(r, s) for s, r in scored[:top]]


def search_optimized(
    records: list[ImageRecord], qbins: np.ndarray, top: int
) -> tuple[list[RankedResult], int]:
    """One record at a time in ascending (|pivot gap|, id) order, stopping
    once the triangle-inequality cap plus the margin falls below the k-th
    best score; returns the results and the records examined."""
    dim = qbins.size
    dq = float(np.abs(qbins * dim - 1.0).sum() / dim)
    best: list[tuple[float, int, ImageRecord]] = []  # min-heap of (score, -id, record)
    examined = 0
    gaps = {rec.id: abs(pivot_distance(rec.counts, rec.total) - dq) for rec in records}
    for rec in sorted(records, key=lambda r: (gaps[r.id], r.id)):
        if len(best) >= top and 1.0 - gaps[rec.id] / 2.0 + _PRUNE_MARGIN < best[0][0]:
            break
        examined += 1
        item = (score(rec, qbins), -rec.id, rec)
        if len(best) < top:
            heapq.heappush(best, item)
        elif item[:2] > best[0][:2]:
            heapq.heapreplace(best, item)
    by_rank = sorted(best, key=lambda item: (-item[0], -item[1]))
    return [_ranked(rec, s) for s, _, rec in by_rank], examined
