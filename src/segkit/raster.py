"""Image containers, binary PNM codec, box smoothing, and Sobel gradients.

Pixels are 8-bit. All window operations handle borders by clamping
coordinates to the image (edge replication), so outputs keep the input
dimensions; window_sums is segkit's only box-sum kernel. Everything here
is a pure function of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadMagic, EvenWindow, PreconditionError, TruncatedData, UnsupportedMaxval

UNLABELED = -1

# Largest window (2 * radius + 1) accepted: it keeps the padded int64 buffer
# of an image under 2**28 px a side below numpy's 2**63-byte array limit.
MAX_WINDOW = (1 << 29) - 1


def _exact_cast(values, dtype: type) -> np.ndarray:
    """values as a dtype array; PreconditionError when the cast would alter
    a value: one out of range, fractional, or not finite."""
    a = np.asarray(values)
    if a.dtype == dtype:
        return a
    info = np.iinfo(dtype)
    # range first, so the cast cannot warn; nan fails both comparisons
    if not ((a >= info.min) & (a <= info.max)).all() or not ((cast := a.astype(dtype)) == a).all():
        raise PreconditionError(f"{a.dtype} values do not convert to {info.dtype} exactly")
    return cast


@dataclass(frozen=True)
class GrayImage:
    """Single-channel image; pixels is a (height, width) uint8 array."""

    pixels: np.ndarray

    def __post_init__(self):
        p = _exact_cast(self.pixels, np.uint8)
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
            raise PreconditionError("GrayImage needs a (height, width) array with both dims >= 1")
        object.__setattr__(self, "pixels", p)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True)
class RgbImage:
    """Three-channel image; pixels is a (height, width, 3) uint8 array."""

    pixels: np.ndarray

    def __post_init__(self):
        p = _exact_cast(self.pixels, np.uint8)
        if p.ndim != 3 or p.shape[2] != 3 or p.shape[0] < 1 or p.shape[1] < 1:
            raise PreconditionError("RgbImage needs a (height, width, 3) array with both dims >= 1")
        object.__setattr__(self, "pixels", p)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True)
class LabelMap:
    """Per-pixel integer labels.

    labels is a (height, width) int32 array. When complete, every entry is
    in [0, k); otherwise entries may be UNLABELED (-1).
    """

    labels: np.ndarray
    k: int
    complete: bool = True

    def __post_init__(self):
        lab = _exact_cast(self.labels, np.int32)
        if lab.ndim != 2:
            raise PreconditionError("labels must be a (height, width) array")
        if self.k < 1:
            raise PreconditionError("k must be >= 1")
        if self.complete:
            if lab.min() < 0 or lab.max() >= self.k:
                raise PreconditionError("complete LabelMap must have all labels in [0, k)")
        else:
            if lab.min() < UNLABELED or lab.max() >= self.k:
                raise PreconditionError("partial LabelMap labels must be UNLABELED or in [0, k)")
        object.__setattr__(self, "labels", lab)

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def height(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True)
class GradientMap:
    """Nonnegative gradient magnitude per pixel, (height, width) int32."""

    magnitude: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.magnitude)
        if m.ndim != 2:
            raise PreconditionError("magnitude must be a (height, width) array")
        if m.min() < 0:
            raise PreconditionError("magnitudes must be nonnegative")
        object.__setattr__(self, "magnitude", m)

    @property
    def width(self) -> int:
        return self.magnitude.shape[1]

    @property
    def height(self) -> int:
        return self.magnitude.shape[0]


def _read_header_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comments (comment runs to end of line)
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
    """Decode binary PGM (P5) or PPM (P6) bytes, maxval 255 only.

    Header fields may be separated by arbitrary whitespace and '#' comments;
    exactly one whitespace byte separates the maxval from the raw samples.

    Raises BadMagic, UnsupportedMaxval, or TruncatedData.
    """
    if len(data) < 2:
        raise TruncatedData("fewer than 2 bytes")
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise BadMagic(f"unsupported magic {magic!r}")
    pos = 2
    fields = []
    for _ in range(3):
        tok, pos = _read_header_token(data, pos)
        if not tok.isdigit():
            raise TruncatedData(f"malformed header field {tok!r}")
        try:
            fields.append(int(tok))
        except ValueError:  # more digits than int() converts
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


def encode_pnm(image: GrayImage | RgbImage) -> bytes:
    """Encode to canonical binary PNM: magic, dims, maxval 255, raw samples."""
    if isinstance(image, GrayImage):
        magic = b"P5"
    elif isinstance(image, RgbImage):
        magic = b"P6"
    else:
        raise TypeError(f"expected GrayImage or RgbImage, got {type(image).__name__}")
    header = magic + b"\n" + f"{image.width} {image.height}".encode() + b"\n255\n"
    return header + image.pixels.tobytes()


def to_gray(image: RgbImage) -> GrayImage:
    """Convert color to gray via 0.299 R + 0.587 G + 0.114 B, rounded half up."""
    p = image.pixels.astype(np.float64)
    luma = 0.299 * p[:, :, 0] + 0.587 * p[:, :, 1] + 0.114 * p[:, :, 2]
    out = np.clip(np.floor(luma + 0.5), 0, 255).astype(np.uint8)
    return GrayImage(out)


def window_sums(values: np.ndarray, window: int) -> np.ndarray:
    """Exact int64 sums of every window x window block of a 2-D integer
    array, read from a zero-bordered summed-area table: entry (i, j) sums
    values[i : i + window, j : j + window]. Callers pad for their borders."""
    h, w = values.shape
    sat = np.zeros((h + 1, w + 1), dtype=np.int64)
    np.cumsum(values, axis=0, dtype=np.int64, out=sat[1:, 1:])
    np.cumsum(sat[1:, 1:], axis=1, out=sat[1:, 1:])
    bottom, top = sat[window:], sat[:-window]
    return bottom[:, window:] - top[:, window:] - bottom[:, :-window] + top[:, :-window]


def box_smooth(image: GrayImage, radius: int) -> GrayImage:
    """Mean filter over the (2r+1)^2 clamped window, rounded half up."""
    if not 0 <= radius <= MAX_WINDOW // 2:
        raise PreconditionError(f"radius must be in [0, {MAX_WINDOW // 2}], got {radius}")
    if radius == 0:
        return GrayImage(image.pixels.copy())
    area = (2 * radius + 1) ** 2
    sums = window_sums(np.pad(image.pixels, radius, mode="edge"), 2 * radius + 1)
    out = (2 * sums + area) // (2 * area)
    return GrayImage(out.astype(np.uint8))


def require_odd_window(window: int) -> None:
    """Raise EvenWindow unless window is an odd size >= 1, and
    PreconditionError when it exceeds MAX_WINDOW."""
    if window < 1 or window % 2 == 0:
        raise EvenWindow(f"window must be odd and >= 1, got {window}")
    if window > MAX_WINDOW:
        raise PreconditionError(f"window {window} exceeds {MAX_WINDOW}")


def boundary_mask(labels: np.ndarray) -> np.ndarray:
    """True where any 4-neighbor carries a different label; neighbors
    outside the image do not count."""
    mask = np.zeros(labels.shape, dtype=bool)
    horizontal = labels[:, :-1] != labels[:, 1:]
    vertical = labels[:-1, :] != labels[1:, :]
    mask[:, :-1] |= horizontal
    mask[:, 1:] |= horizontal
    mask[:-1, :] |= vertical
    mask[1:, :] |= vertical
    return mask


def require_same_shape(labels: LabelMap, image: GrayImage) -> None:
    """Raise PreconditionError unless the label map has the image's height
    and width."""
    if labels.labels.shape != image.pixels.shape:
        raise PreconditionError(
            f"label map is {labels.width}x{labels.height}, image is {image.width}x{image.height}"
        )


def label_bounds(labels: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
    """Inclusive bounding boxes of the labels 0..k-1 of a (height, width)
    array, as four int64 arrays x0, y0, x1, y1 of length k. A label that
    does not occur gets x0 = width, y0 = height and x1 = y1 = -1."""
    h, w = labels.shape
    flat = labels.ravel()
    # runs of one label within a row: the run's ends carry all its extremes
    first = np.empty(flat.size, dtype=bool)
    first[0] = True
    np.not_equal(flat[1:], flat[:-1], out=first[1:])
    first[::w] = True
    starts = np.flatnonzero(first)
    ys, x_starts = np.divmod(starts, w)
    x_ends = np.append(starts[1:] - 1, flat.size - 1) - ys * w
    runs = flat[starts]
    x0, y0 = np.full(k, w, dtype=np.int64), np.full(k, h, dtype=np.int64)
    x1, y1 = np.full(k, -1, dtype=np.int64), np.full(k, -1, dtype=np.int64)
    np.minimum.at(x0, runs, x_starts)
    np.minimum.at(y0, runs, ys)
    np.maximum.at(x1, runs, x_ends)
    np.maximum.at(y1, runs, ys)
    return x0, y0, x1, y1


def sobel_magnitude(image: GrayImage) -> GradientMap:
    """Gradient magnitude |Gx| + |Gy| with the standard 3x3 Sobel kernels.

    Integer arithmetic throughout; borders use edge replication.
    """
    p = np.pad(image.pixels.astype(np.int64), 1, mode="edge")
    gx = (
        (p[:-2, 2:] + 2 * p[1:-1, 2:] + p[2:, 2:])
        - (p[:-2, :-2] + 2 * p[1:-1, :-2] + p[2:, :-2])
    )
    gy = (
        (p[2:, :-2] + 2 * p[2:, 1:-1] + p[2:, 2:])
        - (p[:-2, :-2] + 2 * p[:-2, 1:-1] + p[:-2, 2:])
    )
    mag = (np.abs(gx) + np.abs(gy)).astype(np.int32)
    return GradientMap(mag)
