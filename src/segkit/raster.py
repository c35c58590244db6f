"""Image containers, binary PNM codec, box smoothing, Sobel gradients, and
whole-image histogram features.

Pixels are 8-bit. All window operations handle borders by clamping
coordinates to the image (edge replication), so outputs keep the input
dimensions; window_sums is segkit's only box-sum kernel. Everything here
is a pure function of immutable inputs. The value types of every segkit
module are classes decorated with frozen.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import BadMagic, EvenWindow, PreconditionError, TruncatedData, UnsupportedMaxval

UNLABELED = -1

# Bins of a gray and of a color histogram feature; a normalized feature's
# bins sum to 1 within _NORMALIZATION_TOL.
GRAY_DIM = 256
COLOR_DIM = 64

_NORMALIZATION_TOL = 1e-9

# Largest window require_odd_window accepts. pad_edge refuses larger ones for
# any image under 2**54 px, but features._slide_bounds needs this bound.
MAX_WINDOW = (1 << 29) - 1

# An array padded for a window may hold up to this many times the array's
# entries, or _PAD_FLOOR entries where that is more, so that the padding, and
# with it one entry's window of samples, stays O(array).
_PAD_FACTOR = 16
_PAD_FLOOR = 1 << 20


def _exact_cast(values, dtype: type) -> np.ndarray:
    """values as a dtype array; PreconditionError when the cast would alter
    a value: one out of range, fractional, or not finite. A float64 target
    takes any real value and refuses nan and inf."""
    a = np.asarray(values)
    if dtype is np.float64:
        if not np.isfinite(a := a.astype(dtype, copy=False)).all():
            raise PreconditionError("values must be finite")
        return a
    if a.dtype == dtype:
        return a
    info = np.iinfo(dtype)
    # range first, so the cast cannot warn (nan fails both comparisons); the
    # upper test is < max + 1 because int64's max rounds up to 2**63 as a float
    if not ((a >= info.min) & (a < info.max + 1)).all() or not ((cast := a.astype(dtype)) == a).all():
        raise PreconditionError(f"{a.dtype} values do not convert to {info.dtype} exactly")
    return cast


def require_int(value, name: str) -> int:
    """value as a Python int, read through operator.index: PreconditionError
    for a value that is not an integer (3.0 and 2.5 included)."""
    try:
        return operator.index(value)
    except TypeError:
        raise PreconditionError(f"{name} must be an integer, got {value!r}") from None


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen value."""


def frozen(cls: type) -> type:
    """Class decorator: cls as an immutable value type.

    The fields are cls's annotated names, in order, recorded in cls._fields;
    a class attribute of the same name is the field's default. __init__
    binds positional and keyword arguments to the fields, stores them and
    calls __post_init__ if cls defines it, which may normalize a field with
    object.__setattr__. __repr__ spells each field as name=repr(value), and
    __eq__ and __hash__ compare and hash the tuple of field values. Setting
    or deleting an attribute raises FrozenInstanceError. The methods are
    plain closures, so decorating a class compiles no code."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    known = frozenset(names)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    required = known - defaults.keys()
    post_init = cls.__dict__.get("__post_init__")

    def bind_error(args, kwargs) -> TypeError:
        given = names[: len(args)]
        if len(args) > len(names):
            why = f"takes {len(names) + 1} positional arguments but {len(args) + 1} were given"
        elif (unknown := next((n for n in kwargs if n not in known), None)) is not None:
            why = f"got an unexpected keyword argument {unknown!r}"
        elif (repeated := next((n for n in given if n in kwargs), None)) is not None:
            why = f"got multiple values for argument {repeated!r}"
        else:
            missing = [n for n in names if n in required and n not in kwargs and n not in given]
            why = f"missing required arguments: {', '.join(map(repr, missing))}"
        return TypeError(f"{cls.__qualname__}.__init__() {why}")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            values = dict(zip(names, args), **kwargs) if args else kwargs
            # a shorter dict: too many positional arguments or a repeated one
            if len(values) != len(args) + len(kwargs) or not known >= values.keys() >= required:
                raise bind_error(args, kwargs)
            if len(values) < len(names):
                self.__dict__.update(defaults)
            self.__dict__.update(values)
        else:  # every field by position: the common call, kept fast
            self.__dict__.update(zip(names, args))
        if post_init is not None:
            post_init(self)

    def values_of(self) -> tuple:
        return tuple([getattr(self, name) for name in names])

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values_of(self) == values_of(other)

    def __hash__(self):
        return hash(values_of(self))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls._fields = names
    return cls


@frozen
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


@frozen
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


@frozen
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
        if lab.ndim != 2 or lab.shape[0] < 1 or lab.shape[1] < 1:
            raise PreconditionError("labels must be a (height, width) array with both dims >= 1")
        object.__setattr__(self, "k", require_int(self.k, "k"))
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


@frozen
class GradientMap:
    """Nonnegative gradient magnitude per pixel, (height, width) int32."""

    magnitude: np.ndarray

    def __post_init__(self):
        m = _exact_cast(self.magnitude, np.int32)
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1 or m.min() < 0:
            raise PreconditionError("magnitude must be a nonnegative (height, width) array, both dims >= 1")
        object.__setattr__(self, "magnitude", m)

    @property
    def width(self) -> int:
        return self.magnitude.shape[1]

    @property
    def height(self) -> int:
        return self.magnitude.shape[0]


@frozen
class FeatureVector:
    """Histogram feature; bins sum to 1 when normalized."""

    bins: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        b = _exact_cast(self.bins, np.float64)
        if b.ndim != 1 or b.size < 1 or b.min() < 0:
            raise PreconditionError("bins must be a nonempty 1-D nonnegative array")
        if self.normalized and abs(b.sum() - 1.0) > _NORMALIZATION_TOL:
            raise PreconditionError("normalized feature bins must sum to 1")
        object.__setattr__(self, "bins", b)

    @property
    def dimension(self) -> int:
        return self.bins.size


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
    """Mean filter over the (2r+1)^2 clamped window, rounded half up;
    PreconditionError for a radius that is not an integer (require_int) or
    is negative or too large for the image (see pad_edge)."""
    radius = require_int(radius, "radius")
    if radius < 0:
        raise PreconditionError(f"radius must be >= 0, got {radius}")
    area = (2 * radius + 1) ** 2
    sums = window_sums(pad_edge(image.pixels, radius), 2 * radius + 1)
    out = (2 * sums + area) // (2 * area)
    return GrayImage(out.astype(np.uint8))


def pad_edge(values: np.ndarray, radius: int) -> np.ndarray:
    """values with radius edge-replicated entries added at both ends of
    every axis: segkit's only edge padding. Raises PreconditionError, before
    allocating, when the padded array would hold more than
    max(_PAD_FACTOR * values.size, _PAD_FLOOR) entries."""
    if math.prod(n + 2 * radius for n in values.shape) > max(_PAD_FACTOR * values.size, _PAD_FLOOR):
        raise PreconditionError(f"window radius {radius} is too large for a {values.shape} array")
    return np.pad(values, radius, mode="edge")


def require_odd_window(window: int) -> int:
    """window as a Python int. Raise PreconditionError unless it is an
    integer (require_int), EvenWindow unless it is odd and >= 1, and
    PreconditionError when it exceeds MAX_WINDOW."""
    window = require_int(window, "window")
    if window < 1 or window % 2 == 0:
        raise EvenWindow(f"window must be odd and >= 1, got {window}")
    if window > MAX_WINDOW:
        raise PreconditionError(f"window {window} exceeds {MAX_WINDOW}")
    return window


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

    Integer arithmetic throughout; borders use edge replication. Each
    kernel is a [1, 2, 1] smoothing times a [-1, 0, 1] difference, applied
    as two passes in int16: |Gx| + |Gy| <= 2 * 4 * 255 fits.
    """
    p = pad_edge(image.pixels, 1).astype(np.int16)
    smooth = p[:-2] + 2 * p[1:-1] + p[2:]
    gx = np.abs(smooth[:, 2:] - smooth[:, :-2])
    diff = p[2:] - p[:-2]
    gy = np.abs(diff[:, :-2] + 2 * diff[:, 1:-1] + diff[:, 2:])
    mag = (gx + gy).astype(np.int32)
    return GradientMap(mag)


def global_feature(image: GrayImage | RgbImage) -> FeatureVector:
    """Whole-image histogram feature: 256 bins for gray, 64 for color."""
    counts, total = global_feature_counts(image)
    return FeatureVector(counts / total)


def global_feature_counts(image: GrayImage | RgbImage) -> tuple[np.ndarray, int]:
    """Raw integer histogram behind global_feature.

    Gray images count intensities into 256 bins; color images quantize
    each channel to 4 levels and count into 64 bins indexed
    (r div 64)*16 + (g div 64)*4 + (b div 64).
    """
    if isinstance(image, GrayImage):
        counts = np.bincount(image.pixels.ravel(), minlength=GRAY_DIM)
    elif isinstance(image, RgbImage):
        p = image.pixels.astype(np.int64)
        idx = (p[:, :, 0] // 64) * 16 + (p[:, :, 1] // 64) * 4 + p[:, :, 2] // 64
        counts = np.bincount(idx.ravel(), minlength=COLOR_DIM)
    else:
        raise TypeError(f"expected GrayImage or RgbImage, got {type(image).__name__}")
    return counts.astype(np.int64), int(counts.sum())
