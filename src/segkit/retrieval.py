"""Image database with text descriptions and exact top-k similarity search.

Similarity is histogram intersection (sum of per-bin minima), which for
normalized histograms equals 1 - L1/2. The optimized search orders
candidates by how far their pivot distance sits from the query's pivot
distance; the triangle inequality turns that gap into an upper bound on
the achievable score, so once the bound falls below the current k-th best
score the scan stops. The pruned search returns exactly what the
exhaustive scan returns, ids, order, and scores included.

The index text is canonical: decode_index accepts exactly what
encode_index writes, so every decoded record keeps the line it was read
from and encoding a decoded index joins those lines without formatting any
record again.

An index supports one writer or many concurrent readers; searches are
read-only, ingest needs exclusive access.
"""

from __future__ import annotations

import heapq
import operator
from collections.abc import Sequence
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
    stored as raw integer counts (feature = counts / total).

    counts is a read-only copy of the array given, so the values derived
    from it (bins, pivot distance, encoded line) cannot go stale."""

    id: int
    path: str
    description: str
    counts: np.ndarray
    total: int

    def __post_init__(self):
        try:
            c = np.array(self.counts, dtype=np.int64)
        except OverflowError:
            raise PreconditionError("counts must fit in int64") from None
        if c.ndim != 1:
            raise PreconditionError(_NONNEGATIVE)
        try:  # a Python int, so total * dim cannot wrap as a numpy integer would
            total = operator.index(self.total)
        except TypeError:
            raise PreconditionError(f"total must be an integer, got {self.total!r}") from None
        fault = _record_fault(c[None], [total], [self.description])
        if fault is not None:
            raise PreconditionError(fault[1])
        bins = c / total
        c.flags.writeable = bins.flags.writeable = False
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "_bins", bins)
        object.__setattr__(self, "pivot_distance", _pivot_distances(c[None], [total])[0])
        counts = ",".join(map(str, c.tolist()))
        line = f"{self.id}\t{total}\t{counts}\t{escape_field(self.path)}\t{escape_field(self.description)}"
        object.__setattr__(self, "_line", line)

    @classmethod
    def _checked(cls, bins: np.ndarray, pivot_distance: float, line: str, **fields) -> ImageRecord:
        """A record from fields that already passed _record_fault, with the
        values __post_init__ would derive from them (line is its encoded
        index line; counts and bins are read-only); nothing is checked again."""
        rec = object.__new__(cls)
        rec.__dict__.update(fields, _bins=bins, pivot_distance=pivot_distance, _line=line)
        return rec

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


_NONNEGATIVE = "counts must be a 1-D nonnegative array"


def _record_fault(
    counts: np.ndarray, totals: Sequence[int], descriptions: Sequence[str]
) -> tuple[int, str] | None:
    """The first row of an (n, dim) int64 count matrix whose record breaks
    an ImageRecord invariant, with the reason; None when every row holds."""
    dim = counts.shape[1]
    lows = counts.min(axis=1, initial=0).tolist()
    highs = counts.max(axis=1, initial=0).tolist()
    sums = counts.sum(axis=1).tolist()
    for row, (low, high, s, t, desc) in enumerate(zip(lows, highs, sums, totals, descriptions)):
        if low < 0:
            return row, _NONNEGATIVE
        # no wrap-around: nonnegative counts no larger than total < 2**63 / dim
        # have an int64 sum below 2**63
        if not (0 < t * dim < 2**63 and high <= t and s == t):
            return row, "total must equal the sum of counts, in (0, 2**63 / dim)"
        if "\n" in desc:
            return row, "descriptions must not contain newlines"
    return None


def _pivot_distances(counts: np.ndarray, totals: Sequence[int]) -> list[float]:
    """L1 distance from counts/total to the uniform histogram for each row
    of checked records, computed from integers and rounded once:
    sum |c_i * dim - total| / (total * dim)."""
    dim = counts.shape[1]
    excess = counts * dim
    excess -= np.array(totals, dtype=np.int64)[:, None]
    # a row's terms sum to zero: |.| sums to twice the positive part, < total * dim < 2**63
    halves = np.maximum(excess, 0, out=excess).sum(axis=1).tolist()
    # in Python ints, and int / int rounds the exact quotient once
    return [2 * half / (total * dim) for half, total in zip(halves, totals)]


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
    return text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n").replace("\r", "\\r")


_ESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}


def unescape_field(text: str) -> str:
    """The text escape_field was given; raises ValueError on a field it
    never writes: a raw carriage return, an unknown or dangling escape."""
    if "\r" in text:
        raise ValueError("raw carriage return in a field")
    if "\\" not in text:
        return text
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\":
            if i + 1 >= len(text):
                raise ValueError("dangling backslash")
            nxt = text[i + 1]
            if nxt not in _ESCAPES:
                raise ValueError(f"unknown escape \\{nxt}")
            out.append(_ESCAPES[nxt])
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
    backslash, tab, newline and carriage return. Every number is a plain
    decimal and the text ends in a newline. Each record's line was
    formatted when the record was made or read, so this only joins them.
    """
    dim = index.feature_dim if index.feature_dim is not None else 0
    lines = [f"{_HEADER_TAG}\t{index.version}\t{dim}", *(rec._line for rec in index.records)]
    return "\n".join(lines) + "\n"


# encode_index writes every count below 2**63 / 64 < 10**18
_MAX_DIGITS = 18


def _find(mask: np.ndarray) -> int:
    """Index of the first True in mask, or -1 as str.find has it."""
    return int(mask.argmax()) if mask.any() else -1


def _count_grammar_fault(fields: Sequence[str]) -> tuple[int, str] | None:
    """The first count field that breaks the form encode_index writes,
    counts of 1 to _MAX_DIGITS ASCII digits without a leading zero joined
    by commas, with the reason; None when every field conforms."""
    # every field between two commas
    text = ",".join(["", *fields, ""])
    # one byte per character: a non-ASCII character becomes "?", a stray byte
    buf = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)
    comma = buf == ord(",")
    stray = buf - np.uint8(ord("0")) > 9  # bytes below "0" wrap around
    stray &= ~comma
    # the comma before a count of two or more digits that starts with "0"
    padded = comma[:-2] & (buf[1:-1] == ord("0")) & ~comma[2:]
    # runs of _MAX_DIGITS + 1 non-commas: run[i] covers buf[i : i + width]
    run, width = ~comma, 1
    while width <= _MAX_DIGITS:
        step = min(width, _MAX_DIGITS + 1 - width)
        run = run[:-step] & run[step:]
        width += step
    # the first byte of each defect: a stray byte, the first of too many
    # digits, or the comma before an empty or a zero-padded count
    hits = [pos for pos in (_find(stray), _find(run), text.find(",,"), _find(padded)) if pos >= 0]
    if not hits:
        return None
    pos = min(hits)
    # the comma after field r is at ends[r]
    ends = np.cumsum([len(f) + 1 for f in fields])
    row = int(np.searchsorted(ends, pos, side="right"))
    begin = text.rfind(",", 0, pos + 1) + 1
    count = text[begin : text.find(",", begin)]
    return row, f"count {count!r} is not 1 to {_MAX_DIGITS} ASCII digits without a leading zero"


def _decimal(text: str) -> int:
    """The value of a number spelled as encode_index writes it; raises
    ValueError on any other spelling, such as " 1", "+1", "01" or "1_0"."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"{text!r} is not a plain decimal")
    return value


def decode_index(text: str) -> Index:
    """Parse encode_index output; raises BadHeader or BadRecord (with the
    offending line number).

    Only text that encode_index writes is accepted: header fields, ids and
    totals are plain decimals, counts are 1 to 18 ASCII digits without a
    leading zero, comma-separated, feature_dim of them per record, and the
    text ends in a newline. Counts are parsed and checked for all records
    at once, and each record keeps its line for encode_index.
    """
    lines = text.split("\n")
    terminated = lines[-1] == ""
    if terminated:
        lines.pop()
    if not lines:
        raise BadHeader("empty index text")
    head = lines[0].split("\t")
    if len(head) != 3 or head[0] != _HEADER_TAG:
        raise BadHeader(f"malformed header line {lines[0]!r}")
    try:
        version, dim = _decimal(head[1]), _decimal(head[2])
    except ValueError:
        raise BadHeader(f"header fields in {lines[0]!r} are not plain decimals") from None
    if version != FORMAT_VERSION:
        raise BadHeader(f"unsupported format version {version}")
    if dim not in (0, 64, 256):
        raise BadHeader(f"unsupported feature dimension {dim}")
    if len(lines) == 1 and not terminated:
        raise BadHeader("header line without a final newline")
    index = Index(feature_dim=None if dim == 0 else dim)

    # (row, reason) of the first failing row of each check. A check only
    # looks at the rows before the faults found so far, so the smallest row
    # is the first line that fails any check, as a line-by-line parse finds it
    faults: list[tuple[int, str]] = []
    fields = []
    for row, line in enumerate(lines[1:]):
        parts = line.split("\t")
        if len(parts) != 5:
            faults.append((row, f"expected 5 fields, got {len(parts)}"))
            break
        try:
            fields.append(
                (_decimal(parts[0]), _decimal(parts[1]), parts[2],
                 unescape_field(parts[3]), unescape_field(parts[4]))
            )
        except ValueError as exc:
            faults.append((row, str(exc)))
            break
    ids, totals, count_fields, paths, descriptions = list(zip(*fields)) or [()] * 5
    if fields:
        grammar_fault = _count_grammar_fault(count_fields)
        if grammar_fault is not None:
            faults.append(grammar_fault)

    def clean_rows() -> int:
        return min((row for row, _ in faults), default=len(fields))

    if dim == 0 and len(lines) > 1:
        # the dimension is checked once the first record has parsed
        if clean_rows() > 0:
            raise BadHeader("records present but feature dimension is 0")
    else:
        for row in range(clean_rows()):
            if ids[row] != row:
                faults.append((row, f"expected id {row}, got {ids[row]}"))
                break
            commas = count_fields[row].count(",")
            if commas != dim - 1:
                faults.append((row, f"{commas + 1} counts, expected {dim}"))
                break
        # every clean row holds dim counts of 1 to _MAX_DIGITS digits
        clean = clean_rows()
        if clean:
            counts = np.fromstring(
                ",".join(count_fields[:clean]), dtype=np.int64, count=clean * dim, sep=","
            ).reshape(clean, dim)
            record_fault = _record_fault(counts, totals[:clean], descriptions[:clean])
            if record_fault is not None:
                faults.append(record_fault)
    if not terminated:
        faults.append((len(lines) - 2, "missing final newline"))
    if faults:
        row, reason = min(faults, key=lambda fault: fault[0])
        raise BadRecord(f"line {row + 2}: {reason}")
    if fields:
        pivots = _pivot_distances(counts, totals)
        bins = counts / np.array(totals)[:, None]
        counts.flags.writeable = bins.flags.writeable = False  # rows are the records' views
        index.records = [
            ImageRecord._checked(
                bins[i], pivots[i], lines[i + 1], id=i, path=paths[i], description=descriptions[i],
                counts=counts[i], total=totals[i],
            )
            for i in range(len(fields))
        ]
    return index
