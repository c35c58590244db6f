"""The index codec against the per-line reference in index_oracle:
byte-identical encodings, equal records, and the same error lines."""

import re

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import index_oracle as oracle
from segkit.errors import BadHeader, BadRecord
from segkit.raster import GrayImage, RgbImage
from segkit.retrieval import ImageRecord, Index, decode_index, encode_index, ingest

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
PATHS = st.text(st.sampled_from("ab.\\\t\nnt é"), max_size=8)
DESCRIPTIONS = st.text(st.sampled_from("ab \\\tnt é"), max_size=8)


@st.composite
def count_rows(draw, dim):
    """dim counts: a small-count histogram, or up to six large counts whose
    total reaches as far as the largest total with total * dim < 2**63."""
    if draw(st.booleans()):
        counts = draw(arrays(np.int64, dim, elements=st.integers(0, 5000)))
        counts[draw(st.integers(0, dim - 1))] += 1
        return counts
    total = draw(st.integers(1, 2**63 // dim - 1))
    cuts = sorted(draw(st.lists(st.integers(0, total), max_size=5)))
    counts = np.zeros(dim, dtype=np.int64)
    for lo, hi in zip([0, *cuts], [*cuts, total]):
        counts[draw(st.integers(0, dim - 1))] += hi - lo
    return counts


@st.composite
def indexes(draw, min_records=0):
    dim = draw(st.sampled_from((64, 256) if min_records else (None, 64, 256)))
    index = Index(feature_dim=dim)
    for rec_id in range(draw(st.integers(min_records, 4)) if dim else 0):
        counts = draw(count_rows(dim))
        index.records.append(
            ImageRecord(
                id=rec_id, path=draw(PATHS), description=draw(DESCRIPTIONS),
                counts=counts, total=sum(counts.tolist()),
            )
        )
    return index


@PROPERTY
@given(indexes())
def test_round_trip_matches_oracle(index):
    text = oracle.encode_index(index)
    assert encode_index(index) == text
    got, want = decode_index(text), oracle.decode_index(text)
    assert got.feature_dim == want.feature_dim
    assert encode_index(got) == text
    assert len(got.records) == len(want.records)
    for g, w in zip(got.records, want.records):
        assert (g.id, g.total, g.path, g.description) == (w.id, w.total, w.path, w.description)
        assert g.counts.dtype == np.int64 and np.array_equal(g.counts, w.counts)
        assert np.array_equal(g.feature.bins, w.counts / w.total)
        assert g.pivot_distance == oracle.pivot_distance(w.counts, w.total) == w.pivot_distance


@PROPERTY
@given(st.sampled_from((1, 2, 300)) | st.integers(1, 300), st.data())
def test_record_lines_match_oracle_at_any_width(dim, data):
    records = [
        ImageRecord(rec_id, data.draw(PATHS), data.draw(DESCRIPTIONS), counts, sum(counts.tolist()))
        for rec_id, counts in enumerate(data.draw(st.lists(count_rows(dim), min_size=1, max_size=3)))
    ]
    index = Index(feature_dim=dim, records=records)
    text = oracle.encode_index(index)
    assert [rec._line for rec in records] == text.split("\n")[1:-1]
    if dim in (64, 256):
        assert encode_index(index) == text


@st.composite
def random_images(draw, kind):
    """A random gray or color image of up to 48 x 48 pixels whose samples
    take levels values, from one to all 256."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    height, width, levels = draw(st.integers(1, 48)), draw(st.integers(1, 48)), draw(st.integers(1, 256))
    shape = (height, width) if kind is GrayImage else (height, width, 3)
    return kind(rng.integers(0, levels, shape, dtype=np.uint8))


@PROPERTY
@given(
    st.sampled_from((GrayImage, RgbImage)).flatmap(lambda kind: st.lists(random_images(kind), min_size=1, max_size=4)),
    PATHS, DESCRIPTIONS,
)
def test_ingested_index_matches_oracle(images, path, description):
    index = Index()
    for image in images:
        ingest(index, image, description, path)
    text = oracle.encode_index(index)
    assert encode_index(index) == text
    assert encode_index(decode_index(text)) == text


ODD_CHARS = "0123456789,\t\n\\+-_ xn٣"
# counts out of range, over 18 digits, or not digits at all
ODD_COUNTS = ("-0", "-1", "", "x", str(10**18), str(2**63 - 1), str(2**63), "9" * 30)
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def respellings(count: str) -> list[str]:
    """Other spellings of the same value, all read by int(); of these only
    zero-padding to at most 18 characters keeps to the counts grammar."""
    underscored = f"{count[0]}_{count[1:]}" if count[1:] else f"0_{count}"
    return [f"+{count}", f" {count}", f"{count} ", underscored,
            count.translate(ARABIC_INDIC), count.rjust(18, "0"), count.rjust(19, "0")]


def _encoded_lines(draw) -> list[str]:
    return oracle.encode_index(draw(indexes(min_records=1))).split("\n")[:-1]


@st.composite
def edited_encodings(draw):
    """A valid encoding with one character inserted, deleted or replaced,
    or one line repeated or dropped."""
    lines = _encoded_lines(draw)
    # counted from the end, so that record lines come up more than the header
    row = len(lines) - 1 - draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(("insert", "delete", "replace", "line")))
    if kind == "line":
        lines[row : row + 1] = draw(st.sampled_from(([], [lines[row]] * 2)))
        return "\n".join(lines) + "\n"
    text = "\n".join(lines) + "\n"
    # the line's last position is its newline
    pos = sum(len(line) + 1 for line in lines[:row]) + draw(st.integers(0, len(lines[row])))
    char = "" if kind == "delete" else draw(st.sampled_from(ODD_CHARS))
    return text[:pos] + char + text[pos + (kind != "insert"):]


@st.composite
def multi_edited_encodings(draw):
    """A valid encoding with two or three of edited_encodings' edits, each
    on a different line, so that the earliest bad line must be the one
    named."""
    lines = [line + "\n" for line in _encoded_lines(draw)]
    rows = draw(st.lists(st.integers(0, len(lines) - 1), min_size=2,
                         max_size=min(3, len(lines)), unique=True))
    # from the last line up, so that dropping or repeating a line moves no
    # line still to be edited
    for row in sorted(rows, reverse=True):
        kind = draw(st.sampled_from(("insert", "delete", "replace", "line")))
        line = lines[row]
        if kind == "line":
            lines[row : row + 1] = draw(st.sampled_from(([], [line] * 2)))
            continue
        # the line's last position is its newline
        pos = draw(st.integers(0, len(line) - 1))
        char = "" if kind == "delete" else draw(st.sampled_from(ODD_CHARS))
        lines[row] = line[:pos] + char + line[pos + (kind != "insert"):]
    return "".join(lines)


@st.composite
def respelled_encodings(draw):
    """A valid encoding with one count of one record respelled or replaced,
    or one total changed by at most 2."""
    lines = _encoded_lines(draw)
    row = draw(st.integers(1, len(lines) - 1))
    parts = lines[row].split("\t")
    if draw(st.booleans()):
        counts = parts[2].split(",")
        k = draw(st.integers(0, len(counts) - 1))
        spellings = respellings(counts[k]) + list(ODD_COUNTS)
        counts[k] = draw(st.sampled_from(spellings) | st.integers(0, 2**64).map(str))
        parts[2] = ",".join(counts)
    else:
        parts[1] = str(int(parts[1]) + draw(st.integers(-2, 2)))
    lines[row] = "\t".join(parts)
    return "\n".join(lines) + "\n"


@st.composite
def respelled_numbers(draw):
    """A valid encoding with one number that int() reads respelled: a
    header field, an id, a total or a count; with or without its final
    newline."""
    lines = _encoded_lines(draw)
    row = draw(st.integers(0, len(lines) - 1))
    parts = lines[row].split("\t")
    col = draw(st.sampled_from((1, 2) if row == 0 else (0, 1, 2)))
    numbers = parts[col].split(",")
    k = draw(st.integers(0, len(numbers) - 1))
    numbers[k] = draw(st.sampled_from(respellings(numbers[k])))
    parts[col] = ",".join(numbers)
    lines[row] = "\t".join(parts)
    return "\n".join(lines) + draw(st.sampled_from(("\n", "")))


def _outcome(decode, text):
    try:
        return decode(text), None
    except (BadHeader, BadRecord) as exc:
        return None, exc


def _line(exc):
    m = re.match(r"line (\d+):", str(exc))
    return int(m.group(1)) if m else None


def _check_against_oracle(text):
    """decode_index raises only BadHeader or BadRecord. Where the oracle
    fails, it fails too: on the oracle's line with the oracle's error type,
    or on an earlier line that the oracle encoder writes differently. Where
    the oracle decodes the text, it fails only on a line that the oracle
    encoder writes differently, or for a missing final newline."""
    want, want_exc = _outcome(oracle.decode_index, text)
    got, got_exc = _outcome(decode_index, text)
    if got_exc is None:
        assert want_exc is None
        assert encode_index(got) == oracle.encode_index(want)
        return
    lineno = 1 if isinstance(got_exc, BadHeader) else _line(got_exc)
    assert lineno is not None
    lines = text.split("\n")
    if want_exc is not None:
        if (type(got_exc), _line(got_exc)) == (type(want_exc), _line(want_exc)):
            return
        # the lines before the oracle's are ones it decodes
        want_lineno = 1 if isinstance(want_exc, BadHeader) else _line(want_exc)
        assert lineno < want_lineno
        want = oracle.decode_index("\n".join(lines[: want_lineno - 1]) + "\n")
    elif not text.endswith("\n"):
        return
    assert lines[lineno - 1] != oracle.encode_index(want).split("\n")[lineno - 1]


@PROPERTY
@given(edited_encodings())
def test_edited_encodings_fail_on_the_oracle_line(text):
    _check_against_oracle(text)


@PROPERTY
@given(respelled_encodings())
def test_respelled_counts_fail_on_the_oracle_line(text):
    _check_against_oracle(text)


# id 0 spelled 00 on line 2 and a wrong id on line 3: decode_index names line
# 2, which the oracle reads but encodes as 0, and the oracle names line 3
ONE_PIXEL = "1" + ",0" * 63
EARLY_FAILURE = f"SEGIDX\t1\t64\n00\t1\t{ONE_PIXEL}\t\t\n11\t1\t{ONE_PIXEL}\t\t\n"


@PROPERTY
@given(edited_encodings() | respelled_encodings() | respelled_numbers() | multi_edited_encodings())
@example(EARLY_FAILURE)
def test_accepted_text_is_the_oracle_encoding(text):
    _check_against_oracle(text)
    got, exc = _outcome(decode_index, text)
    if exc is None:
        assert oracle.encode_index(got) == text
