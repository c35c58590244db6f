import numpy as np
import pytest

from segkit.errors import BadMagic, PreconditionError, TruncatedData, UnsupportedMaxval
from segkit.raster import (
    GrayImage,
    LabelMap,
    RgbImage,
    box_smooth,
    decode_pnm,
    encode_pnm,
    sobel_magnitude,
    to_gray,
)

from fixture_builders import lcg_bytes


def gray(rows):
    return GrayImage(np.array(rows, dtype=np.uint8))


# values the uint8 / int32 cast would wrap, truncate, or turn into garbage
NOT_UINT8 = [[[300, -1], [256, 5]], [[1.7, 254.9]], [[np.nan, 1.0]], [[np.inf, 0.0]]]


class TestValueTypes:
    @pytest.mark.parametrize("rows", NOT_UINT8)
    def test_gray_rejects_values_it_would_alter(self, rows):
        with pytest.raises(PreconditionError):
            GrayImage(np.array(rows))

    @pytest.mark.parametrize("rows", NOT_UINT8)
    def test_rgb_rejects_values_it_would_alter(self, rows):
        with pytest.raises(PreconditionError):
            RgbImage(np.repeat(np.array(rows)[:, :, None], 3, axis=2))

    @pytest.mark.parametrize("rows", [[[2**32, 1]], [[0.5, 1.0]], [[np.nan, 1.0]]])
    def test_label_map_rejects_values_it_would_alter(self, rows):
        with pytest.raises(PreconditionError):
            LabelMap(np.array(rows), k=2)


class TestDecodePnm:
    def test_p5_basic(self):
        img = decode_pnm(b"P5 2 2 255 " + bytes([0, 0, 255, 7]))
        assert isinstance(img, GrayImage)
        assert img.width == 2 and img.height == 2
        assert img.pixels.ravel().tolist() == [0, 0, 255, 7]

    def test_p6_basic(self):
        img = decode_pnm(b"P6 1 1 255 " + bytes([255, 0, 0]))
        assert isinstance(img, RgbImage)
        assert img.pixels[0, 0].tolist() == [255, 0, 0]

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            decode_pnm(b"P4 1 1 255 \x00")

    def test_unsupported_maxval(self):
        with pytest.raises(UnsupportedMaxval):
            decode_pnm(b"P5 1 1 65535 \x00\x00")

    def test_truncated_samples(self):
        with pytest.raises(TruncatedData):
            decode_pnm(b"P5 2 2 255 \x00\x00")

    def test_truncated_header(self):
        with pytest.raises(TruncatedData):
            decode_pnm(b"P5 2")

    def test_comments_in_header(self):
        img = decode_pnm(b"P5 # comment\n1 1\n# another\n255\n\x09")
        assert img.pixels[0, 0] == 9


class TestEncodePnm:
    def test_canonical_gray(self):
        assert encode_pnm(gray([[9]])) == b"P5\n1 1\n255\n\x09"

    def test_round_trip_examples(self):
        img = gray([[0, 0], [255, 7]])
        again = decode_pnm(encode_pnm(img))
        assert np.array_equal(again.pixels, img.pixels)

    def test_round_trip_random_corpus(self):
        # 100 random images, gray and color alternating
        for trial in range(100):
            data = lcg_bytes(seed=trial, n=2)
            w, h = 1 + data[0] % 9, 1 + data[1] % 9
            if trial % 2 == 0:
                img = GrayImage(lcg_bytes(trial + 1000, w * h).reshape(h, w))
            else:
                img = RgbImage(lcg_bytes(trial + 1000, w * h * 3).reshape(h, w, 3))
            again = decode_pnm(encode_pnm(img))
            assert type(again) is type(img)
            assert np.array_equal(again.pixels, img.pixels)


class TestToGray:
    def test_white(self):
        img = RgbImage(np.full((1, 1, 3), 255, dtype=np.uint8))
        assert to_gray(img).pixels[0, 0] == 255

    def test_black(self):
        img = RgbImage(np.zeros((1, 1, 3), dtype=np.uint8))
        assert to_gray(img).pixels[0, 0] == 0

    def test_pure_red(self):
        img = RgbImage(np.array([[[255, 0, 0]]], dtype=np.uint8))
        assert to_gray(img).pixels[0, 0] == 76  # round(0.299 * 255)


class TestBoxSmooth:
    def test_radius_zero_identity(self):
        img = gray([[1, 2], [3, 4]])
        assert np.array_equal(box_smooth(img, 0).pixels, img.pixels)

    def test_constant_unchanged(self):
        img = GrayImage(np.full((5, 7), 42, dtype=np.uint8))
        for radius in (1, 2, 3):
            assert np.array_equal(box_smooth(img, radius).pixels, img.pixels)

    def test_center_spike(self):
        img = gray([[0, 0, 0], [0, 9, 0], [0, 0, 0]])
        out = box_smooth(img, 1)
        assert out.pixels[1, 1] == 1  # round(9 / 9)

    def test_output_within_input_range(self):
        img = GrayImage(lcg_bytes(7, 48).reshape(6, 8))
        out = box_smooth(img, 2)
        assert out.pixels.min() >= img.pixels.min()
        assert out.pixels.max() <= img.pixels.max()


class TestSobelMagnitude:
    def test_constant_is_zero(self):
        img = GrayImage(np.full((4, 4), 123, dtype=np.uint8))
        assert sobel_magnitude(img).magnitude.max() == 0

    def test_vertical_step_hand_convolution(self):
        # columns 0-1 at 0, columns 2-3 at 100; interior pixel at column 1
        # sees Gx = (1+2+1) * 100 = 400 and Gy = 0
        img = GrayImage(np.repeat(np.array([[0, 0, 100, 100]], dtype=np.uint8), 4, axis=0))
        mag = sobel_magnitude(img).magnitude
        assert mag[1, 1] == 400
        assert mag[2, 1] == 400

    def test_transpose_invariance(self):
        img = GrayImage(lcg_bytes(99, 35).reshape(5, 7))
        mag = sobel_magnitude(img).magnitude
        mag_t = sobel_magnitude(GrayImage(img.pixels.T.copy())).magnitude
        assert np.array_equal(mag.T, mag_t)
