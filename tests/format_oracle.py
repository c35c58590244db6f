"""Reference PNM header scanner and index field escapes: a byte-at-a-time
walk of the header, and a character-at-a-time unescape.

These are the straightforward implementations that segkit.raster replaced
with one compiled header pattern and segkit.retrieval with one escape table
and one compiled escape pattern; the tests compare the two for equal values,
or the same exception type and message.
"""

from __future__ import annotations

import numpy as np

from segkit.errors import BadMagic, TruncatedData, UnsupportedMaxval
from segkit.raster import GrayImage, RgbImage

ESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}


def read_header_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    """The header field starting at pos, and the position after it: skip
    whitespace and '#' comments (a comment runs to a line end), then take a
    run of non-space bytes."""
    n = len(buf)
    while pos < n:
        c = buf[pos : pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < n and buf[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        else:
            break
    if pos >= n:
        raise TruncatedData("header ended before all fields were read")
    start = pos
    while pos < n and not buf[pos : pos + 1].isspace():
        pos += 1
    return buf[start:pos], pos


def decode_pnm(data: bytes) -> GrayImage | RgbImage:
    """segkit.raster.decode_pnm, reading the header with read_header_token."""
    if len(data) < 2:
        raise TruncatedData("fewer than 2 bytes")
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise BadMagic(f"unsupported magic {magic!r}")
    pos = 2
    fields = []
    for _ in range(3):
        tok, pos = read_header_token(data, pos)
        if not tok.isdigit():
            raise TruncatedData(f"malformed header field {tok!r}")
        try:
            fields.append(int(tok))
        except ValueError:
            raise TruncatedData(f"header field of {len(tok)} digits") from None
    width, height, maxval = fields
    if maxval != 255:
        raise UnsupportedMaxval(f"maxval {maxval} (only 255 supported)")
    if width < 1 or height < 1:
        raise TruncatedData(f"bad dimensions {width}x{height}")
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise TruncatedData("missing whitespace byte after maxval")
    pos += 1
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    raw = data[pos : pos + need]
    if len(raw) < need:
        raise TruncatedData(f"need {need} sample bytes, got {len(raw)}")
    arr = np.frombuffer(raw, dtype=np.uint8)
    if channels == 1:
        return GrayImage(arr.reshape(height, width).copy())
    return RgbImage(arr.reshape(height, width, 3).copy())


def escape_field(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n").replace("\r", "\\r")


def unescape_field(text: str) -> str:
    """The text escape_field was given; raises ValueError on a field it
    never writes: a raw carriage return, an unknown or dangling escape."""
    if "\r" in text:
        raise ValueError("raw carriage return in a field")
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\":
            if i + 1 >= len(text):
                raise ValueError("dangling backslash")
            nxt = text[i + 1]
            if nxt not in ESCAPES:
                raise ValueError(f"unknown escape \\{nxt}")
            out.append(ESCAPES[nxt])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)
