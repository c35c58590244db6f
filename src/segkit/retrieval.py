"""Image database with text descriptions and exact top-k similarity search.

Similarity is histogram intersection (sum of per-bin minima), which for
normalized histograms equals 1 - L1/2. The optimized search orders
candidates by how far their pivot distance sits from the query's pivot
distance; the triangle inequality turns that gap into an upper bound on
the achievable score, so once the bound falls below the current k-th best
score the scan stops. The pruned search returns exactly what the
exhaustive scan returns, ids, order, and scores included.

An index supports one writer or many concurrent readers; searches are
read-only, ingest needs exclusive access.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .errors import BadHeader, BadRecord, DimensionMismatch, EmptyIndex, PreconditionError
from .features import FeatureVector, global_feature_counts
from .raster import GrayImage, RgbImage

FORMAT_VERSION = 1
_HEADER_TAG = "SEGIDX"

# Upper bounds on accumulated float rounding in a 256-term L1/intersection
# sum are below 1e-11; this margin keeps pruning decisions on the safe side
# of any such error without measurably weakening the prune.
_PRUNE_MARGIN = 1e-9


@dataclass(frozen=True)
class ImageRecord:
    """One ingested image: id, source path, description, and its histogram
    stored as raw integer counts (feature = counts / total)."""

    id: int
    path: str
    description: str
    counts: np.ndarray
    total: int

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.ndim != 1 or c.min() < 0:
            raise PreconditionError("counts must be a 1-D nonnegative array")
        # the sum in Python ints, since an int64 sum can wrap around to total
        if self.total != sum(c.tolist()) or not 0 < self.total * c.size < 2**63:
            raise PreconditionError("total must equal the sum of counts, in (0, 2**63 / dim)")
        if "\n" in self.description:
            raise PreconditionError("descriptions must not contain newlines")
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "_bins", c / self.total)
        object.__setattr__(self, "pivot_distance", _pivot_distance(c, self.total))

    @property
    def feature(self) -> FeatureVector:
        return FeatureVector(self._bins)


@dataclass
class Index:
    """Ordered image records sharing one feature dimension.

    feature_dim is None until the first ingest fixes it (serialized as 0
    while the index is empty).
    """

    feature_dim: int | None = None
    records: list[ImageRecord] = field(default_factory=list)
    version: int = FORMAT_VERSION


@dataclass(frozen=True)
class RankedResult:
    id: int
    score: float
    path: str
    description: str


def _pivot_distance(counts: np.ndarray, total: int) -> float:
    """L1 distance from counts/total to the uniform histogram, computed
    from integers and rounded once: sum |c_i * dim - total| / (total * dim)."""
    dim = counts.size
    # the terms sum to zero: |.| sums to twice the positive part, < total * dim < 2**63
    num = 2 * int(np.maximum(counts * dim - total, 0).sum())
    return num / (total * dim)


def similarity(a: FeatureVector, b: FeatureVector) -> float:
    """Histogram intersection sum(min(a_i, b_i)) of two normalized features."""
    if a.dimension != b.dimension:
        raise DimensionMismatch(f"dimensions {a.dimension} and {b.dimension} differ")
    if not (a.normalized and b.normalized):
        raise PreconditionError("similarity needs normalized features")
    return float(np.minimum(a.bins, b.bins).sum())


def ingest(index: Index, image: GrayImage | RgbImage, description: str, path: str) -> int:
    """Append the image's histogram feature; returns the new record id.

    The first ingest fixes the index's feature dimension (256 gray /
    64 color); later ingests must match it.
    """
    counts, total = global_feature_counts(image)
    if index.feature_dim is None:
        index.feature_dim = int(counts.size)
    elif index.feature_dim != counts.size:
        raise DimensionMismatch(
            f"index holds {index.feature_dim}-dim features, image yields {counts.size}"
        )
    rec = ImageRecord(
        id=len(index.records),
        path=path,
        description=description,
        counts=counts,
        total=total,
    )
    index.records.append(rec)
    return rec.id


def _query_bins(index: Index, query: FeatureVector, top: int) -> np.ndarray:
    """The query's bins, after checking top, the index and the query."""
    if top < 1:
        raise PreconditionError("top must be >= 1")
    if not index.records:
        raise EmptyIndex("index holds no records")
    if not query.normalized:
        raise PreconditionError("query feature must be normalized")
    if query.dimension != index.feature_dim:
        raise DimensionMismatch(
            f"query dimension {query.dimension} != index dimension {index.feature_dim}"
        )
    return query.bins


def _score(record: ImageRecord, qbins: np.ndarray) -> float:
    return float(np.minimum(record._bins, qbins).sum())


def _ranked(record: ImageRecord, score: float) -> RankedResult:
    return RankedResult(id=record.id, score=score, path=record.path, description=record.description)


def search_exhaustive(index: Index, query: FeatureVector, top: int) -> list[RankedResult]:
    """Score every record; return the best min(top, n), ties to lower ids."""
    qbins = _query_bins(index, query, top)
    scored = [(_score(r, qbins), r) for r in index.records]
    scored.sort(key=lambda sr: (-sr[0], sr[1].id))
    return [_ranked(r, s) for s, r in scored[:top]]


def search_optimized(
    index: Index, query: FeatureVector, top: int
) -> tuple[list[RankedResult], int]:
    """Exactly search_exhaustive's results, touching fewer records.

    Candidates are scanned in ascending |pivot_distance - dq| order. The
    triangle inequality caps a candidate's score at
    1 - |pivot_distance - dq| / 2; once that cap (plus a rounding-safety
    margin) drops below the k-th best score so far, every remaining
    candidate is provably worse and the scan stops. Returns the ranked
    results and how many records had their bins examined.
    """
    qbins = _query_bins(index, query, top)
    dim = index.feature_dim
    qtotal_scaled = qbins * dim  # query scaled so pivot bins are exactly 1
    dq = float(np.abs(qtotal_scaled - 1.0).sum() / dim)

    order = sorted(index.records, key=lambda r: (abs(r.pivot_distance - dq), r.id))
    # min-heap of (score, -id): the root is the weakest member under the
    # "higher score first, lower id breaks ties" ranking
    best: list[tuple[float, int]] = []
    examined = 0
    for rec in order:
        if len(best) >= top:
            tau = best[0][0]
            cap = 1.0 - abs(rec.pivot_distance - dq) / 2.0
            if cap + _PRUNE_MARGIN < tau:
                break  # bounds only grow from here on
        score = _score(rec, qbins)
        examined += 1
        item = (score, -rec.id)
        if len(best) < top:
            heapq.heappush(best, item)
        elif item > best[0]:
            heapq.heapreplace(best, item)
    by_rank = sorted(best, key=lambda si: (-si[0], -si[1]))
    # ingest and decode_index keep id == position
    return [_ranked(index.records[-ni], s) for s, ni in by_rank], examined


def escape_field(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


def unescape_field(text: str) -> str:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\":
            if i + 1 >= len(text):
                raise ValueError("dangling backslash")
            nxt = text[i + 1]
            if nxt == "\\":
                out.append("\\")
            elif nxt == "t":
                out.append("\t")
            elif nxt == "n":
                out.append("\n")
            else:
                raise ValueError(f"unknown escape \\{nxt}")
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def encode_index(index: Index) -> str:
    """Serialize to the line-based text format.

    Header: SEGIDX <TAB> version <TAB> feature_dim (0 when no ingest has
    fixed the dimension yet). One record per line: id, total,
    comma-joined counts, path, description; path and description escape
    backslash, tab, and newline.
    """
    dim = index.feature_dim if index.feature_dim is not None else 0
    lines = [f"{_HEADER_TAG}\t{index.version}\t{dim}"]
    for rec in index.records:
        counts = ",".join(str(int(c)) for c in rec.counts)
        lines.append(
            f"{rec.id}\t{rec.total}\t{counts}\t{escape_field(rec.path)}\t{escape_field(rec.description)}"
        )
    return "\n".join(lines) + "\n"


def decode_index(text: str) -> Index:
    """Parse encode_index output; raises BadHeader or BadRecord (with the
    offending line number)."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise BadHeader("empty index text")
    head = lines[0].split("\t")
    if len(head) != 3 or head[0] != _HEADER_TAG:
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
