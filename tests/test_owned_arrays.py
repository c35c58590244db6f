"""Every value type owns its array fields through raster._exact_cast: a
field is read-only, and no array outside the value can write it. An array
nobody can write is kept as it is, a fresh array the cast made is frozen in
place, and anything else is copied once."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from segkit.clustering import Assignment, ClusterModel, PointSet, Weights
from segkit.raster import FeatureVector, GradientMap, GrayImage, LabelMap, RgbImage, decode_pnm, encode_pnm
from segkit.retrieval import ImageRecord
from segkit.threshold import Histogram

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _normalized(a: np.ndarray) -> np.ndarray:
    """a's entries, plus one to bring their sum to a power of two, over that
    sum: exact in float32 and float64, so a float32 copy is normalized too."""
    flat = a.ravel().astype(np.int64)
    total = 1 << int(flat.sum()).bit_length()
    return np.append(flat, total - flat.sum()) / total


# name: (the value built from an array, its array field's name, a valid array
# in the field's dtype made from a (h, w) array of ints in [0, 200), and
# another dtype that holds those values exactly)
CASES = {
    "GrayImage": (GrayImage, "pixels", lambda a: a.astype(np.uint8), np.int64),
    "RgbImage": (RgbImage, "pixels", lambda a: np.stack([a, a // 2, a // 3], axis=-1).astype(np.uint8), np.int16),
    "LabelMap": (lambda v: LabelMap(v, 3), "labels", lambda a: (a % 3).astype(np.int32), np.uint8),
    "GradientMap": (GradientMap, "magnitude", lambda a: a.astype(np.int32), np.int64),
    "FeatureVector": (FeatureVector, "bins", _normalized, np.float32),
    "PointSet": (PointSet, "points", lambda a: a / 4, np.float32),
    "Weights": (Weights, "values", lambda a: (a.ravel() + 1) / 4, np.float32),
    "Assignment": (Assignment, "member_of", lambda a: a.ravel().astype(np.int32), np.int64),
    "ClusterModel": (ClusterModel, "centers", lambda a: a / 2, np.float32),
    "ImageRecord": (lambda v: ImageRecord(0, "p", "d", v, int(np.sum(v))), "counts",
                    lambda a: a.ravel().astype(np.int64) + 1, np.int32),
    "Histogram": (Histogram, "counts", lambda a: np.resize(a.ravel(), 256).astype(np.int64), np.int32),
}

SOURCES = ["own", "view", "read-only view", "other dtype", "list"]


def _hand(valid: np.ndarray, source: str, other) -> tuple:
    """What the caller gives the value type, and the caller's array behind
    it (None for a list), which it writes after the value is built."""
    if source == "own":
        return valid, valid
    if source in ("view", "read-only view"):
        base = np.concatenate([valid, valid])
        view = base[: len(valid)]
        view.flags.writeable = source == "view"
        return view, base
    if source == "other dtype":
        cast = valid.astype(other)
        return cast, cast
    return valid.tolist(), None


ARRAYS = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: st.lists(st.integers(0, 199), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]).map(
        lambda ints: np.array(ints).reshape(shape)))


@PROPERTY
@given(st.sampled_from(sorted(CASES)), st.sampled_from(SOURCES), ARRAYS)
def test_a_field_is_read_only_and_no_later_write_reaches_it(name, source, ints):
    make, field, valid_of, other = CASES[name]
    handed, writable = _hand(valid_of(ints), source, other)
    array = getattr(make(handed), field)
    before = array.copy()
    first = (0,) * array.ndim
    try:
        array[first] = array[first]
    except ValueError:
        pass
    else:
        raise AssertionError(f"{name}.{field} took a write")
    if writable is not None:
        writable += 1
    assert array.dtype == before.dtype and np.array_equal(array, before)


@PROPERTY
@given(st.sampled_from(sorted(CASES)), ARRAYS, st.booleans())
def test_an_array_nobody_can_write_is_kept(name, ints, over_bytes):
    make, field, valid_of, _ = CASES[name]
    valid = valid_of(ints)
    if over_bytes:
        handed = np.frombuffer(valid.tobytes(), dtype=valid.dtype).reshape(valid.shape)
    else:
        handed = valid.copy()
        handed.flags.writeable = False
    assert getattr(make(handed), field) is handed


@PROPERTY
@given(ARRAYS, st.booleans())
def test_decoded_pixels_are_a_read_only_view_of_the_bytes(ints, color):
    pixels = CASES["RgbImage" if color else "GrayImage"][2](ints)
    data = encode_pnm(RgbImage(pixels) if color else GrayImage(pixels))
    decoded = decode_pnm(data).pixels
    assert not decoded.flags.writeable
    assert np.shares_memory(decoded, np.frombuffer(data, dtype=np.uint8))
    assert np.array_equal(decoded, pixels)


def test_decoding_a_bytearray_copies_it():
    data = bytearray(encode_pnm(GrayImage(np.arange(6, dtype=np.uint8).reshape(2, 3))))
    decoded = decode_pnm(data).pixels
    data[-1] = 0
    assert decoded[1, 2] == 5 and not decoded.flags.writeable


def test_a_label_map_of_an_assignment_shares_its_memory():
    assignment = Assignment(np.array([0, 1, 2, 1, 0, 2]))
    labels = LabelMap(assignment.member_of.reshape(2, 3), 3).labels
    assert np.shares_memory(labels, assignment.member_of)


def test_an_array_handed_out_by_dunder_array_is_copied_not_frozen():
    class Holder:
        def __init__(self):
            self.pixels = np.zeros((2, 2), dtype=np.uint8)

        def __array__(self, dtype=None, copy=None):
            return self.pixels

    holder = Holder()
    pixels = GrayImage(holder).pixels
    holder.pixels[0, 0] = 9
    assert pixels[0, 0] == 0 and not pixels.flags.writeable
