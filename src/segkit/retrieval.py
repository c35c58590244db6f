"""Image database with text descriptions and exact top-k similarity search.

Similarity is histogram intersection (sum of per-bin minima), which for
normalized histograms equals 1 - L1/2. The optimized search orders
candidates by how far their pivot distance sits from the query's pivot
distance; the triangle inequality turns that gap into an upper bound on
the achievable score, so once the bound falls below the current k-th best
score the scan stops. The pruned search returns exactly what the
exhaustive scan returns, ids, order, and scores included.

The index text is canonical: decode_index accepts exactly what
encode_index writes. It checks and parses all record lines at once; when
that fails, it halves the lines to find the first bad one, which works
because several lines parse exactly when each parses on its own. A
decoded index holds its records as columns: a read-only (n, dim) int64
counts matrix, and the totals, paths, descriptions and encoded lines.
Encoding joins the kept lines, and ingest appends a record after the
columns, so neither builds an ImageRecord per line; Index.records builds
them on first access, and callers may then mutate that list. Search reads
a table of the records' columns and pivot distances: the decoded columns,
whose pivot distances are derived on first search, while no record has
been added or read as an object, else columns built from the record list
for that search. It scores bounded blocks of rows as one matrix.

An index supports one writer or many concurrent readers; searches are
read-only, ingest needs exclusive access.
"""

from __future__ import annotations

import bisect
import functools
from collections.abc import Sequence

import numpy as np

from .errors import BadHeader, BadRecord, DimensionMismatch, EmptyIndex, PreconditionError
from .raster import FeatureVector, GrayImage, RgbImage, _exact_cast, frozen, global_feature_counts, require_int

FORMAT_VERSION = 1
_HEADER_TAG = "SEGIDX"

# Upper bounds on accumulated float rounding in a 256-term L1/intersection
# sum are below 1e-11; this margin keeps pruning decisions on the safe side
# of any such error without measurably weakening the prune.
_PRUNE_MARGIN = 1e-9

# Rows scored at once: bounds each search temporary to _BLOCK_ROWS * dim
# entries, and the rows a pruned search scores past its stop.
_BLOCK_ROWS = 256


@frozen
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
        c = _exact_cast(self.counts, np.int64).copy()
        if c.ndim != 1:
            raise PreconditionError(_NONNEGATIVE)
        # a Python int, so total * dim cannot wrap as a numpy integer would
        total = require_int(self.total, "total")
        object.__setattr__(self, "id", require_int(self.id, "id"))
        fault = _record_fault(c[None], [total], [self.description])
        if fault is not None:
            raise PreconditionError(fault)
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


@frozen
class _Columns:
    """Checked records as columns, in index order: int64 ids, a read-only
    (n, dim) int64 counts matrix, and the totals, paths, descriptions and
    encoded lines."""

    ids: np.ndarray
    counts: np.ndarray
    totals: list[int]
    paths: list[str]
    descriptions: list[str]
    lines: list[str]

    @classmethod
    def of(cls, records: Sequence[ImageRecord]) -> _Columns:
        return cls(
            np.array([r.id for r in records], dtype=np.int64), np.stack([r.counts for r in records]),
            [r.total for r in records], [r.path for r in records],
            [r.description for r in records], [r._line for r in records],
        )

    @functools.cached_property
    def divisors(self) -> np.ndarray:
        """The totals as an (n, 1) int64 column."""
        return np.array(self.totals, dtype=np.int64)[:, None]

    @functools.cached_property
    def pivots(self) -> np.ndarray:
        """Pivot distances, a block of rows at a time to bound the temporaries."""
        blocks = range(0, len(self.totals), _BLOCK_ROWS)
        return np.concatenate([
            _pivot_distances(self.counts[s : s + _BLOCK_ROWS], self.totals[s : s + _BLOCK_ROWS])
            for s in blocks
        ])

    def scores(self, rows, qbins: np.ndarray) -> np.ndarray:
        """Histogram intersection of the query with each given row (a slice
        or an index array): the same float operations as one record's
        np.minimum(bins, qbins).sum(), row by row."""
        bins = self.counts[rows] / self.divisors[rows]
        return np.minimum(bins, qbins, out=bins).sum(axis=1)

    def records(self) -> list[ImageRecord]:
        bins = self.counts / self.divisors
        bins.flags.writeable = False
        columns = zip(
            bins, self.pivots.tolist(), self.lines, self.ids.tolist(), self.paths,
            self.descriptions, self.counts, self.totals,
        )
        return [
            ImageRecord._checked(b, p, line, id=i, path=path, description=desc, counts=c, total=t)
            for b, p, line, i, path, desc, c, t in columns
        ]


class Index:
    """Ordered image records sharing one feature dimension.

    feature_dim is None until the first ingest fixes it (serialized as 0
    while the index is empty).

    records is a plain list that callers may append to, replace items of,
    or copy into another Index. A decoded index holds its records as
    columns and builds that list on first access. Concurrent first reads
    may each build a list; every read after them returns the stored one.
    """

    version = FORMAT_VERSION

    def __init__(self, feature_dim: int | None = None, records: list[ImageRecord] | None = None):
        self.feature_dim = feature_dim
        # (decoded records as columns, until records is read; the records
        # after them), replaced as one value so that concurrent readers each
        # see a consistent pair
        self._parts: tuple[_Columns | None, list[ImageRecord]] = (None, [] if records is None else records)

    @property
    def records(self) -> list[ImageRecord]:
        head, tail = self._parts
        if head is not None:
            tail = head.records() + tail
            self._parts = (None, tail)
        return tail

    @records.setter
    def records(self, records: list[ImageRecord]) -> None:
        self._parts = (None, records)

    def _size(self) -> int:
        head, tail = self._parts
        return len(tail) + (0 if head is None else len(head.lines))

    def _table(self) -> _Columns:
        """The search table: the decoded columns while they hold every
        record, else columns of the record list, built for this search."""
        head, tail = self._parts
        return head if head is not None and not tail else _Columns.of(self.records)


@frozen
class RankedResult:
    id: int
    score: float
    path: str
    description: str


_NONNEGATIVE = "counts must be a 1-D nonnegative array"


def _record_fault(
    counts: np.ndarray, totals: Sequence[int], descriptions: Sequence[str]
) -> str | None:
    """Why the first row of an (n, dim) int64 count matrix breaks an
    ImageRecord invariant; None when every row holds."""
    dim = counts.shape[1]
    lows = counts.min(axis=1, initial=0).tolist()
    highs = counts.max(axis=1, initial=0).tolist()
    sums = counts.sum(axis=1).tolist()
    for low, high, s, t, desc in zip(lows, highs, sums, totals, descriptions):
        if low < 0:
            return _NONNEGATIVE
        # no wrap-around: nonnegative counts no larger than total < 2**63 / dim
        # have an int64 sum below 2**63
        if not (0 < t * dim < 2**63 and high <= t and s == t):
            return "total must equal the sum of counts, in (0, 2**63 / dim)"
        if "\n" in desc:
            return "descriptions must not contain newlines"
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
        id=index._size(),
        path=path,
        description=description,
        counts=counts,
        total=total,
    )
    index._parts[1].append(rec)  # after any decoded columns, which stay columns
    return rec.id


def _query_table(index: Index, query: FeatureVector, top: int) -> tuple[_Columns, np.ndarray]:
    """The index's search table and the query's bins, after checking top,
    the index and the query."""
    if require_int(top, "top") < 1:
        raise PreconditionError("top must be >= 1")
    if not index._size():
        raise EmptyIndex("index holds no records")
    if not query.normalized:
        raise PreconditionError("query feature must be normalized")
    if query.dimension != index.feature_dim:
        raise DimensionMismatch(
            f"query dimension {query.dimension} != index dimension {index.feature_dim}"
        )
    return index._table(), query.bins


def _best(table: _Columns, rows: np.ndarray, scores: np.ndarray, top: int) -> list[RankedResult]:
    """The top of the given rows by score, higher first, ties to lower ids."""
    ranked = np.lexsort((table.ids[rows], -scores))[:top]
    return [
        RankedResult(int(table.ids[row]), float(score), table.paths[row], table.descriptions[row])
        for row, score in zip(rows[ranked], scores[ranked])
    ]


def search_exhaustive(index: Index, query: FeatureVector, top: int) -> list[RankedResult]:
    """Score every record; return the best min(top, n), ties to lower ids."""
    table, qbins = _query_table(index, query, top)
    n = len(table.ids)
    scores = np.concatenate(
        [table.scores(slice(s, s + _BLOCK_ROWS), qbins) for s in range(0, n, _BLOCK_ROWS)]
    )
    return _best(table, np.arange(n), scores, top)


def search_optimized(
    index: Index, query: FeatureVector, top: int
) -> tuple[list[RankedResult], int]:
    """Exactly search_exhaustive's results, touching fewer records.

    Candidates are scanned in ascending (|pivot_distance - dq|, id) order.
    The triangle inequality caps a candidate's score at
    1 - |pivot_distance - dq| / 2; once that cap (plus a rounding-safety
    margin) drops below the k-th best score so far, every remaining
    candidate is provably worse and the scan stops. Candidates are scored a
    block of rows at a time, and the stop is found within the block.
    Returns the ranked results and how many records a one-at-a-time scan
    examines before it stops.
    """
    table, qbins = _query_table(index, query, top)
    dim = index.feature_dim
    qtotal_scaled = qbins * dim  # query scaled so pivot bins are exactly 1
    dq = float(np.abs(qtotal_scaled - 1.0).sum() / dim)

    gaps = np.abs(table.pivots - dq)
    order = np.lexsort((table.ids, gaps))
    caps = 1.0 - gaps[order] / 2.0
    scores = np.empty(order.size)  # of the candidates in scan order
    best = scores[:0]  # the top highest scores of the candidates before the block
    start = 0

    def pruned(j: int) -> bool:
        """The stop test before candidate j: a full top, and a cap below
        its k-th best score. Once true it stays true, as caps only fall and
        the k-th best only rises."""
        if j < top:
            return False
        seen = np.concatenate((best, scores[start:j]))
        return bool(caps[j] + _PRUNE_MARGIN < np.partition(seen, seen.size - top)[seen.size - top])

    examined = order.size
    for start in range(0, order.size, _BLOCK_ROWS):
        end = min(start + _BLOCK_ROWS, order.size)
        scores[start:end] = table.scores(order[start:end], qbins)
        if pruned(end - 1):
            examined = start + bisect.bisect_left(range(start, end), True, key=pruned)
            break
        best = np.concatenate((best, scores[start:end]))
        if best.size > top:
            best = np.partition(best, best.size - top)[best.size - top :]
    return _best(table, order[:examined], scores[:examined], top), examined


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
    head, tail = index._parts
    lines = [f"{_HEADER_TAG}\t{index.version}\t{dim}", *(head.lines if head is not None else ()),
             *(r._line for r in tail)]
    return "\n".join(lines) + "\n"


def _decimal(text: str) -> int:
    """The value of a number spelled as encode_index writes it; raises
    ValueError on any other spelling, such as " 1", "+1", "01" or "1_0"."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"{text!r} is not a plain decimal")
    return value


def _parse_counts(fields: Sequence[str], dim: int) -> np.ndarray | str:
    """The (len(fields), dim) int64 counts of count fields that each hold
    dim counts, ASCII digits without a leading zero, joined by commas; why
    not when any field breaks that form. A count past int64 reads as
    2**63 - 1, and a count of more than 18 digits exceeds any total that
    _record_fault accepts."""
    text = ",".join(fields)
    if not text.isascii():
        return "counts must be ASCII"
    buf = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    comma = buf == ord(",")
    n = len(fields) * dim
    # only digits and commas, n - 1 commas, none leading, trailing or doubled:
    # exactly n counts, each a nonempty run of digits
    if (
        np.count_nonzero(comma) != n - 1
        or comma[0]
        or comma[-1]
        or (comma[1:] & comma[:-1]).any()
        or ((buf - np.uint8(ord("0")) > 9) & ~comma).any()
    ):
        return f"expected {dim} counts of ASCII digits joined by commas"
    counts = np.fromstring(text, dtype=np.int64, count=n, sep=",").reshape(-1, dim)
    # A count never has more canonical digits than its run has bytes, and
    # has as many only without a leading zero. So when every row's canonical
    # digits plus its dim - 1 commas add up to its field's length, no count
    # is zero-padded and each field holds exactly its row's dim counts.
    lengths = np.full(len(fields), dim + dim - 1)  # one digit per count, and the commas
    power, high = 10, int(counts.max())
    while power <= high:
        lengths += np.count_nonzero(counts >= power, axis=1)
        power *= 10
    if not np.array_equal(lengths, list(map(len, fields))):
        return "counts must be plain decimals below 2**63"
    counts.flags.writeable = False
    return counts


def _parse_records(lines: list[str], dim: int, first: int = 0) -> _Columns | str:
    """The records of lines as encode_index writes them, with ids first,
    first + 1, ..., checked in bulk; why not when any line breaks the format
    or an ImageRecord invariant. The lines parse exactly when each parses
    on its own (the length argument in _parse_counts), so the reason for a
    single line names the check that it fails."""
    parts = [line.split("\t") for line in lines]
    bad = next((p for p in parts if len(p) != 5), None)
    if bad is not None:
        return f"expected 5 fields, got {len(bad)}"
    ids, total_fields, count_fields, path_fields, description_fields = zip(*parts)
    expected = tuple(map(str, range(first, first + len(lines))))
    if ids != expected:
        got, want = next((g, w) for g, w in zip(ids, expected) if g != w)
        return f"expected id {want}, got {got!r}"
    try:
        totals = list(map(_decimal, total_fields))
        paths = list(map(unescape_field, path_fields))
        descriptions = list(map(unescape_field, description_fields))
    except ValueError as exc:
        return str(exc)
    counts = _parse_counts(count_fields, dim)
    fault = counts if isinstance(counts, str) else _record_fault(counts, totals, descriptions)
    if fault is not None:
        return fault
    return _Columns(np.arange(first, first + len(lines)), counts, totals, paths, descriptions, lines)


def decode_index(text: str) -> Index:
    """Parse encode_index output; raises BadHeader or BadRecord (with the
    offending line number).

    Only text that encode_index writes is accepted: header fields, ids and
    totals are plain decimals, counts are 1 to 18 ASCII digits without a
    leading zero, comma-separated, feature_dim of them per record, and the
    text ends in a newline. Record lines under a header of dimension 0 are
    a bad header. All record lines are split, checked and parsed at once;
    the index keeps them as columns, with each record's line for
    encode_index. When that parse fails, halving the lines finds the first
    bad one.
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
    records = lines[1:]
    if not records:
        return index
    if dim == 0:
        raise BadHeader("records present but feature dimension is 0")
    columns = _parse_records(records, dim)
    if isinstance(columns, str):
        lo, hi = 0, len(records)  # the lines before lo hold; one in [lo, hi) fails
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if isinstance(_parse_records(records[lo:mid], dim, lo), str):
                hi = mid
            else:
                lo = mid
        raise BadRecord(f"line {lo + 2}: {_parse_records(records[lo:hi], dim, lo)}")
    if not terminated:
        raise BadRecord(f"line {len(lines)}: missing final newline")
    index._parts = (columns, [])
    return index
