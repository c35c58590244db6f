"""decode_pnm's header pattern and the index field escapes against the
reference scanner and escapes of format_oracle: equal values, or the same
exception type and message. decode_pnm raises nothing but FormatError."""

from hypothesis import given, settings
from hypothesis import strategies as st

import format_oracle as oracle
from segkit.errors import FormatError, TruncatedData
from segkit.raster import GrayImage, RgbImage, decode_pnm
from segkit.retrieval import escape_field, unescape_field

PROPERTY = settings(max_examples=1000, deadline=None, derandomize=True, database=None)

WHITESPACE = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]
# the bytes that mutate a PNM: whitespace, the comment mark, digits (5 and 6
# among them), the magic's P, and the extreme sample values
MUTATIONS = [*WHITESPACE, b"#", *(bytes([d]) for d in b"0123456789"), b"P", b"\x00", b"\xff"]
SEPARATORS = [*WHITESPACE, b"# c\n", b"#\r", b"#", b"#5 6\n"]
MAXVALS = st.sampled_from([b"255", b"255", b"255", b"0255", b"256"])


def outcome(fn, arg):
    """fn(arg) as comparable values: an image's type, shape and bytes, any
    other value itself, or the exception's type and message."""
    try:
        value = fn(arg)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(value, (GrayImage, RgbImage)):
        return type(value), value.pixels.shape, value.pixels.tobytes()
    return value


@st.composite
def mutated_pnms(draw) -> bytes:
    """A P5 or P6 image of at most 3x3 pixels whose header fields are
    separated by whitespace and comments, with up to four bytes of MUTATIONS
    inserted, replaced or deleted anywhere."""
    magic = draw(st.sampled_from([b"P5", b"P6"]))
    width, height = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    separator = st.lists(st.sampled_from(SEPARATORS), min_size=1, max_size=3).map(b"".join)
    data = bytearray(magic)
    for field in (str(width).encode(), str(height).encode(), draw(MAXVALS)):
        data += draw(separator) + field
    data += draw(st.sampled_from(WHITESPACE))
    need = width * height * (1 if magic == b"P5" else 3)
    data += b"".join(draw(st.lists(st.sampled_from(MUTATIONS), min_size=need, max_size=need + 1)))
    edits = st.tuples(st.sampled_from("ird"), st.integers(0, len(data)), st.sampled_from(MUTATIONS))
    for kind, at, byte in draw(st.lists(edits, max_size=4)):
        if kind == "i":
            data[at:at] = byte
        elif kind == "r":
            data[at : at + 1] = byte
        else:
            del data[at : at + 1]
    return bytes(data)


@PROPERTY
@given(mutated_pnms())
def test_decode_pnm_matches_the_header_scanner(data):
    assert outcome(decode_pnm, data) == outcome(oracle.decode_pnm, data)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.one_of(mutated_pnms(), st.binary(max_size=48),
                 st.lists(st.sampled_from(MUTATIONS), max_size=24).map(lambda b: b"P5" + b"".join(b))))
def test_decode_pnm_raises_only_format_error(data):
    try:
        image = decode_pnm(data)
    except FormatError:
        return
    assert isinstance(image, (GrayImage, RgbImage))


def test_long_header_run_is_read_in_linear_time():
    # a megabyte of spaces or comments that the data ends in is matched, and
    # backed out of, a byte at a time: well under a second, where a pattern
    # that retried from every position would take time quadratic in the run
    for tail in (b" " * (1 << 20), b"#\n" * (1 << 19), b"#" + b" 1" * (1 << 19)):
        assert outcome(decode_pnm, b"P5 1 1 " + tail) == (TruncatedData, "header ended before all fields were read")


@PROPERTY
@given(st.text(alphabet="\\tnr\t\n\r", max_size=12))
def test_escapes_match_the_reference(text):
    assert escape_field(text) == oracle.escape_field(text)
    assert outcome(unescape_field, text) == outcome(oracle.unescape_field, text)
    assert unescape_field(escape_field(text)) == text

