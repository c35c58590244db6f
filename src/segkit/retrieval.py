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
decoded index holds its records as columns: a read-only (n, dim) counts
matrix, the totals, and the record lines as one text with each line's
start offset; a record's path and description are read from its line
when needed. Encoding writes the kept text, and ingest appends a record
after the columns, so neither builds an ImageRecord per line;
Index.records builds them from the columns and lines on first access,
and callers may then mutate that list. Search reads a table of the
records' columns and pivot distances: the decoded columns, whose pivot
distances are derived on first search, while no record has been added
or read as an object, else columns joined for that search. It scores
bounded blocks of rows as one matrix.

The column sidecar (encode_sidecar, decode_sidecar) holds the columns
that decoding given index bytes yields, keyed by those bytes' length and
importlib.util.source_hash and closed by a wrap-around sum of its words,
so a later process can build the index from it instead of parsing the
text; a sidecar not keyed to the bytes at hand, or damaged so that its
sum fails, is a miss, and the text is decoded. This module only encodes
and decodes it: the CLI writes it beside the index file after an ingest,
and after a query that missed. decode_sidecar, the one reader, takes the
open sidecar file and reads its first SIDECAR_HEAD bytes, which hold the
key, then the rest in one read, so a stale sidecar is read no further
than its head.

An index supports one writer or many concurrent readers; searches are
read-only, ingest needs exclusive access.
"""

from __future__ import annotations

import bisect
import functools
import importlib.util
import itertools
import re
from collections.abc import Sequence
from typing import BinaryIO

import numpy as np

from .errors import BadHeader, BadRecord, DimensionMismatch, EmptyIndex, PreconditionError
from .raster import (COLOR_DIM, GRAY_DIM, FeatureVector, GrayImage, RgbImage, _exact_cast, frozen,
                     global_feature_counts, require_int)

FORMAT_VERSION = 1
_HEADER_TAG = "SEGIDX"

# Upper bounds on accumulated float rounding in a 256-term L1/intersection
# sum are below 1e-11; this margin keeps pruning decisions on the safe side
# of any such error without measurably weakening the prune.
_PRUNE_MARGIN = 1e-9

# Rows scored at once: bounds each search temporary to _BLOCK_ROWS * dim
# entries, and the rows a pruned search scores past its stop.
_BLOCK_ROWS = 256


@functools.lru_cache(maxsize=8)
def _count_template(dim: int) -> str:
    """The count field of dim counts as a %-template: "%d" per count,
    joined by commas. %d spells an int as str does."""
    return ",".join(["%d"] * dim)


@frozen
class ImageRecord:
    """One ingested image: id, source path, description, and its histogram
    stored as raw integer counts.

    counts is read-only and owned by the record (raster._exact_cast), so
    the values derived from it cannot go stale: the encoded line, made with
    the record, and feature (counts / total) and pivot_distance, made when
    read. path and description must be str."""

    id: int
    path: str
    description: str
    counts: np.ndarray
    total: int

    def __post_init__(self):
        c = _exact_cast(self.counts, np.int64, 1, "counts")
        if not isinstance(self.path, str) or not isinstance(self.description, str):
            raise PreconditionError("path and description must be str")
        # total is a Python int (raster.frozen), so total * dim cannot wrap
        fault = _record_fault(c[None], [self.total], [self.description])
        if fault is not None:
            raise PreconditionError(fault)
        object.__setattr__(self, "counts", c)
        # ",".join(map(str, c.tolist())), but formatted by one %-template: less work
        counts = _count_template(c.size) % tuple(c.tolist())
        line = f"{self.id}\t{self.total}\t{counts}\t{escape_field(self.path)}\t{escape_field(self.description)}"
        object.__setattr__(self, "_line", line)

    @classmethod
    def _checked(cls, line: str, **fields) -> ImageRecord:
        """A record from fields that already passed _record_fault (counts
        read-only) and their encoded index line; nothing is checked again."""
        rec = object.__new__(cls)
        rec.__dict__.update(fields, _line=line)
        return rec

    @property
    def feature(self) -> FeatureVector:
        return FeatureVector(self.counts / self.total)

    @functools.cached_property
    def pivot_distance(self) -> float:
        return _pivot_distances(self.counts[None], [self.total])[0]


@frozen
class _Columns:
    """Checked records as columns, in index order: int64 ids, a read-only
    (n, dim) counts matrix of an integer dtype that holds every count (int64
    when parsed from text), the totals, and the records' encoded lines, each
    ending in a newline, in one text (a decoded index's whole text, header
    line first) with the offset of each line's start and the text's length.
    Path and description are read from a row's line when asked for."""

    ids: np.ndarray
    counts: np.ndarray
    totals: list[int]
    text: str
    bounds: list[int]

    @classmethod
    def of(cls, records: Sequence[ImageRecord]) -> _Columns:
        lines = [r._line + "\n" for r in records]
        return cls(
            np.array([r.id for r in records], dtype=np.int64), np.stack([r.counts for r in records]),
            [r.total for r in records], "".join(lines), list(itertools.accumulate(map(len, lines), initial=0)),
        )

    def then(self, other: _Columns) -> _Columns:
        """These rows, if any, followed by other's, the counts in the narrowest
        unsigned dtype that holds them."""
        high = max(int(self.counts.max(initial=0)), int(other.counts.max()))
        # unsafe only in name: every count fits, high being the largest
        counts = np.concatenate((self.counts, other.counts), dtype=np.min_scalar_type(high), casting="unsafe")
        counts.flags.writeable = False
        shift = self.bounds[-1]
        return _Columns(np.concatenate((self.ids, other.ids)), counts, self.totals + other.totals,
                        self.text + other.text, self.bounds + [shift + b for b in other.bounds[1:]])

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

    def line(self, row: int) -> str:
        """The row's encoded line, without its newline."""
        return self.text[self.bounds[row] : self.bounds[row + 1] - 1]

    def path_and_description(self, row: int) -> tuple[str, str]:
        _, _, _, path, desc = self.line(row).split("\t")
        return unescape_field(path), unescape_field(desc)

    def records(self) -> list[ImageRecord]:
        counts = np.asarray(self.counts, dtype=np.int64)  # the same array when already int64
        counts.flags.writeable = False
        records = []
        for row, (i, c, t) in enumerate(zip(self.ids.tolist(), counts, self.totals)):
            path, desc = self.path_and_description(row)
            records.append(ImageRecord._checked(self.line(row), id=i, path=path, description=desc, counts=c, total=t))
        return records


class Index:
    """Ordered image records sharing one feature dimension.

    feature_dim is None until the first ingest fixes it (serialized as 0
    while the index is empty).

    records is a plain list that callers may append to, replace items of,
    or copy into another Index. A decoded index holds its records as
    columns and builds that list on first access. Concurrent first reads
    may each build a list; every read after them returns the stored one.
    """

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

    def _size(self) -> int:
        head, tail = self._parts
        return len(tail) + (0 if head is None else len(head.totals))

    def _table(self) -> _Columns:
        """Every record as columns: the decoded columns alone, while no
        record follows them, else joined with columns of the records after
        them, built for this call."""
        head, tail = self._parts
        if not tail:
            return head
        return _Columns.of(tail) if head is None else head.then(_Columns.of(tail))


@frozen
class RankedResult:
    id: int
    score: float
    path: str
    description: str


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
            return "counts must be nonnegative"
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
    excess = np.multiply(counts, dim, dtype=np.int64)
    excess -= np.array(totals, dtype=np.int64)[:, None]
    # a row's terms sum to zero: |.| sums to twice the positive part, < total * dim < 2**63
    halves = np.maximum(excess, 0, out=excess).sum(axis=1).tolist()
    # in Python ints, and int / int rounds the exact quotient once
    return [2 * half / (total * dim) for half, total in zip(halves, totals)]


def similarity(a: FeatureVector, b: FeatureVector) -> float:
    """Histogram intersection sum(min(a_i, b_i)) of two normalized features."""
    if a.dimension != b.dimension:
        raise DimensionMismatch(f"dimensions {a.dimension} and {b.dimension} differ")
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
    rec = ImageRecord(index._size(), path, description, counts, total)  # by position: the fast bind
    index._parts[1].append(rec)  # after any decoded columns, which stay columns
    return rec.id


def _require_rows(index: Index, dim: int, ids: bool) -> None:
    """PreconditionError naming the first record whose counts are not dim
    long or, when ids is set, whose id is not its position. Decoded columns
    hold ids 0, 1, ... by construction and share one width, so of them only
    the first row is checked."""
    head, tail = index._parts
    start = 0 if head is None else len(head.totals)
    # (position, id, width): the first decoded row, then each record after the decoded rows
    rows = [] if head is None else [(0, 0, head.counts.shape[1])]
    rows += ((p, r.id, r.counts.size) for p, r in enumerate(tail, start))
    for position, rid, size in rows:
        if ids and rid != position:
            raise PreconditionError(f"record {position} has id {rid}; ids must run 0, 1, 2, ...")
        if size != dim:
            raise PreconditionError(f"record {position} has {size} counts; feature_dim is {index.feature_dim}")


def _query_table(index: Index, query: FeatureVector, top: int) -> tuple[_Columns, np.ndarray]:
    """The index's search table and the query's bins, after checking top,
    the index and the query."""
    if require_int(top, "top") < 1:
        raise PreconditionError("top must be >= 1")
    if not index._size():
        raise EmptyIndex("index holds no records")
    if query.dimension != index.feature_dim:
        raise DimensionMismatch(
            f"query dimension {query.dimension} != index dimension {index.feature_dim}"
        )
    _require_rows(index, index.feature_dim, ids=False)
    return index._table(), query.bins


def _best(table: _Columns, rows: np.ndarray, scores: np.ndarray, top: int) -> list[RankedResult]:
    """The top of the given rows by score, higher first, ties to lower ids."""
    ranked = np.lexsort((table.ids[rows], -scores))[:top]
    return [
        RankedResult(int(table.ids[row]), float(score), *table.path_and_description(row))
        for row, score in zip(rows[ranked].tolist(), scores[ranked])
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


# The escapes of an index text field, (character, escape), backslash first:
# escape_field applies them in order, so it never re-escapes its own escapes.
_ESCAPES = (("\\", "\\\\"), ("\t", "\\t"), ("\n", "\\n"), ("\r", "\\r"))
_UNESCAPES = {escape[1]: char for char, escape in _ESCAPES}
_BACKSLASH_ESCAPE = re.compile(r"\\(.?)", re.DOTALL)


def escape_field(text: str) -> str:
    for char, escape in _ESCAPES:
        text = text.replace(char, escape)
    return text


def unescape_field(text: str) -> str:
    """The text escape_field was given; raises ValueError on a field it
    never writes: a raw carriage return, an unknown or dangling escape."""
    if "\r" in text:
        raise ValueError("raw carriage return in a field")
    if "\\" not in text:
        return text
    try:
        return _BACKSLASH_ESCAPE.sub(lambda m: _UNESCAPES[m[1]], text)
    except KeyError as exc:
        bad = exc.args[0]  # the first backslash's next character, "" at the end
        raise ValueError(f"unknown escape \\{bad}" if bad else "dangling backslash") from None


def encode_index(index: Index) -> str:
    """Serialize to the line-based text format.

    Header: SEGIDX <TAB> FORMAT_VERSION (1) <TAB> feature_dim (0 when no
    ingest has fixed the dimension yet). One record per line: id, total,
    comma-joined counts, path, description; path and description escape
    backslash, tab, newline and carriage return. Every number is a plain
    decimal and the text ends in a newline. Each record's line was
    formatted when the record was made or read, so this only joins them.

    Raises PreconditionError for an index that decode_index would refuse:
    a feature_dim other than 64 or 256 (or None while empty), or a record
    whose id is not its position or whose counts are not feature_dim long,
    naming the first such record.
    """
    dim = 0 if index.feature_dim is None else require_int(index.feature_dim, "feature_dim")
    if dim not in (0, COLOR_DIM, GRAY_DIM):
        raise PreconditionError(f"unsupported feature dimension {dim}")
    _require_rows(index, dim, ids=True)
    head, tail = index._parts
    # head.text begins with the header it was decoded from, which is
    # _header(dim) once _require_rows holds: decoding reads only _header's
    # spelling, and dim is the width of head's counts
    return "".join([_header(dim) if head is None else head.text, *(r._line + "\n" for r in tail)])


def _header(dim: int) -> str:
    """The header line, newline included, of an index of dimension dim (0
    while no ingest has fixed it)."""
    return f"{_HEADER_TAG}\t{FORMAT_VERSION}\t{dim}\n"


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


def _parse_records(lines: list[str], dim: int, first: int = 0) -> tuple[np.ndarray, list[int]] | str:
    """The counts and totals of lines as encode_index writes them, with ids
    first, first + 1, ..., checked in bulk; why not when any line breaks the
    format or an ImageRecord invariant. The lines parse exactly when each parses
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
    return counts, totals


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
    if dim not in (0, COLOR_DIM, GRAY_DIM):
        raise BadHeader(f"unsupported feature dimension {dim}")
    if len(lines) == 1 and not terminated:
        raise BadHeader("header line without a final newline")
    index = Index(feature_dim=None if dim == 0 else dim)
    records = lines[1:]
    if not records:
        return index
    if dim == 0:
        raise BadHeader("records present but feature dimension is 0")
    parsed = _parse_records(records, dim)
    if isinstance(parsed, str):
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
    bounds = list(itertools.accumulate((len(line) + 1 for line in records), initial=len(lines[0]) + 1))
    index._parts = (_Columns(np.arange(len(records)), *parsed, text, bounds), [])
    return index


# The column sidecar holds the columns that decoding given index bytes
# yields. Little-endian: the magic, then the key, importlib.util.source_hash
# of those bytes (the SipHash that keys hash-based .pyc files, PEP 552),
# then as uint64 their length, the record count n, the feature dimension
# and the width in bytes of one count; then the (n, dim) counts as unsigned
# ints of that width, the n totals as int64, the n + 1 line bounds of
# _Columns, counted from the first record line's start, as int64, and last
# the uint64 sum, wrapping at 2**64, of every 8-byte word after the key.
_SIDECAR_MAGIC = b"SEGCOLS2"
SIDECAR_HEAD = 48


def _word_sum(*buffers) -> int:
    """The sum, wrapping at 2**64, of the buffers' whole little-endian uint64
    words; bytes short of a word, which only damaged shapes leave, add nothing."""
    return sum(int(np.frombuffer(b, "<u8", count=memoryview(b).nbytes // 8).sum()) for b in buffers) % 2**64


def encode_sidecar(index: Index, data: bytes) -> list[bytes | np.ndarray]:
    """The column sidecar of index, given data, the UTF-8 encoding of
    encode_index(index), as its buffers in order, to be written in turn.
    Each count takes the fewest bytes (1, 2, 4 or 8) that hold the largest
    count. An index with no records, which gets no sidecar, raises
    EmptyIndex."""
    if not index._size():
        raise EmptyIndex("index holds no records")
    table = index._table()
    n, dim = table.counts.shape
    width = np.min_scalar_type(int(table.counts.max())).itemsize
    # C-contiguous arrays, whose buffers a file takes as they are
    words = [np.array([len(data), n, dim, width], dtype="<u8"), table.counts.astype(f"<u{width}", copy=False),
             np.array(table.totals, dtype="<i8"), (np.array(table.bounds) - table.bounds[0]).astype("<i8")]
    return [_SIDECAR_MAGIC, importlib.util.source_hash(data), *words, _word_sum(*words).to_bytes(8, "little")]


def decode_sidecar(data: bytes, file: BinaryIO) -> Index | None:
    """decode_index(data.decode()), built from the sidecar in file, a binary
    file at the sidecar's start, when that is the column sidecar of data:
    its key is data's length and hash, its size fits its shapes, and its
    trailing sum matches. None for any other sidecar (empty, truncated,
    damaged, stale, or keyed by the hash of another Python version). The
    file is read in two reads: its first SIDECAR_HEAD bytes, then the rest
    only when those carry data's key; data is hashed once. The sum finds
    damage, not forgery. Raises only what reading the file raises."""
    head = file.read(SIDECAR_HEAD)
    if not (
        len(head) == SIDECAR_HEAD
        and head.startswith(_SIDECAR_MAGIC)
        and int.from_bytes(head[16:24], "little") == len(data)
        and head[8:16] == importlib.util.source_hash(data)
    ):
        return None
    rest = file.read()
    n, dim, width = np.frombuffer(head, dtype="<u8", count=3, offset=24).tolist()
    totals_at = n * dim * width
    bounds_at = totals_at + 8 * n
    sum_at = bounds_at + 8 * (n + 1)
    if width not in (1, 2, 4, 8) or len(rest) != sum_at + 8:
        return None
    if _word_sum(head[16:], memoryview(rest)[:sum_at]) != int.from_bytes(rest[sum_at:], "little"):
        return None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    # read-only, as an array over bytes is
    counts = np.frombuffer(rest, dtype=f"<u{width}", count=n * dim).reshape(n, dim)
    totals = np.frombuffer(rest, dtype="<i8", count=n, offset=totals_at).tolist()
    bounds = (np.frombuffer(rest, dtype="<i8", count=n + 1, offset=bounds_at) + len(_header(dim))).tolist()
    index = Index(feature_dim=dim)
    index._parts = (_Columns(np.arange(n), counts, totals, text, bounds), [])
    return index
