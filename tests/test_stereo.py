import os
import re
import struct
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stereosim import (
    DisparityFormatError,
    DisparityMap,
    GrayImage,
    MatchParams,
    compute_disparity,
    disparity_to_depth,
    parse_disparity,
    rle_decode_disparity,
    rle_encode_disparity,
    rle_num_bytes,
    scale_to_gray,
    serialize_disparity,
    shifted_pair,
    sidecar_num_bytes,
    texture,
)
from stereosim import imaging, stereo
from stereosim.stereo import METHODS, _agg_dtype

from oracles import count_rle_records, naive_disparity


def test_match_params_validation():
    with pytest.raises(ValueError, match="window_radius"):
        MatchParams(window_radius=-1)
    with pytest.raises(ValueError, match="max_disparity"):
        MatchParams(max_disparity=-1)
    with pytest.raises(ValueError, match="method"):
        MatchParams(method="census")
    assert MatchParams(window_radius=3).window_side == 7
    assert MatchParams(np.int64(1), np.int64(4)).window_side == 3


@pytest.mark.parametrize(
    "args, message",
    [
        ((1.5, 4), "window_radius must be an integer, got 1.5"),
        ((1, 4.0), "max_disparity must be an integer, got 4.0"),
        ((True, 4), "window_radius must be an integer, got True"),
        ((1, False), "max_disparity must be an integer, got False"),
    ],
)
def test_match_params_require_integer_sizes(args, message):
    # a size that is not an integer would otherwise reach the matcher's numpy calls
    with pytest.raises(ValueError, match=f"^{message}$"):
        MatchParams(*args)


def test_identical_images_give_zero_disparity():
    img = texture(12, 10, seed=3)
    for method in ("sad", "ssd"):
        dmap, _ = compute_disparity(img, img, MatchParams(1, 3, method))
        assert np.all(dmap.disparities[dmap.valid] == 0)
        assert dmap.valid.any()


def test_shifted_pair_recovers_shift():
    left, right = shifted_pair(16, 16, 2, seed=99)
    for method in ("sad", "ssd"):
        dmap, _ = compute_disparity(left, right, MatchParams(1, 4, method))
        assert np.all(dmap.disparities[dmap.valid] == 2)
    # cross-check the same case against the quadruple-loop reference
    disp_ref, valid_ref = naive_disparity(
        left.pixels.tolist(), right.pixels.tolist(), 1, 4, "sad"
    )
    dmap, _ = compute_disparity(left, right, MatchParams(1, 4, "sad"))
    assert dmap.disparities.tolist() == disp_ref
    assert dmap.valid.tolist() == valid_ref


def test_sad_and_ssd_identical_on_noise_free_shift():
    left, right = shifted_pair(16, 16, 2, seed=99)
    sad_map, _ = compute_disparity(left, right, MatchParams(1, 4, "sad"))
    ssd_map, _ = compute_disparity(left, right, MatchParams(1, 4, "ssd"))
    assert sad_map == ssd_map


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="left is"):
        compute_disparity(texture(4, 4, 0), texture(5, 4, 0), MatchParams(0, 0, "sad"))


def test_params_checked_against_image():
    img = texture(8, 8, seed=0)
    with pytest.raises(ValueError, match="window side"):
        compute_disparity(img, img, MatchParams(4, 0, "sad"))
    with pytest.raises(ValueError, match="max_disparity"):
        compute_disparity(img, img, MatchParams(0, 8, "sad"))


def test_deterministic_repeat_runs():
    left, right = shifted_pair(20, 14, 3, seed=5)
    params = MatchParams(2, 5, "sad")
    a, _ = compute_disparity(left, right, params)
    b, _ = compute_disparity(left, right, params)
    assert a == b


def test_elementary_ops_closed_form():
    left, right = shifted_pair(16, 12, 1, seed=6)
    for radius, maxd in ((0, 0), (1, 3), (2, 5)):
        params = MatchParams(radius, maxd, "sad")
        dmap, stats = compute_disparity(left, right, params)
        n_valid = int(dmap.valid.sum())
        side = 2 * radius + 1
        assert stats.elementary_ops == n_valid * (maxd + 1) * side * side


def test_empty_valid_region_counts_zero_ops():
    img = texture(8, 8, seed=2)
    # radius 3 plus max_disparity 4 leaves no column with every window in bounds
    dmap, stats = compute_disparity(img, img, MatchParams(3, 4, "sad"))
    assert not dmap.valid.any()
    assert stats.elementary_ops == 0


def test_cost_sum_dtype_thresholds():
    from stereosim.stereo import _agg_dtype

    # sad: 255 * side^2 crosses int16 between side 11 and 13
    assert _agg_dtype("sad", 11) == np.int16
    assert _agg_dtype("sad", 13) == np.int32
    # ssd: 255^2 alone exceeds int16; 255^2 * side^2 crosses int32 at side 183
    assert _agg_dtype("ssd", 1) == np.int32
    assert _agg_dtype("ssd", 181) == np.int32
    assert _agg_dtype("ssd", 183) == np.int64
    # 255^2 * side^2 crosses int64 at side 11,909,806
    assert _agg_dtype("ssd", 11_909_805) == np.int64
    with pytest.raises(ValueError, match="^window side 11909806 overflows 64-bit cost sums$"):
        _agg_dtype("ssd", 11_909_806)


def test_wide_window_sad_matches_reference():
    # radius 6 pushes sad window sums past int16 into the int32 path
    rng = np.random.default_rng(50)
    left = GrayImage(rng.integers(0, 256, size=(16, 20)))
    right = GrayImage(rng.integers(0, 256, size=(16, 20)))
    params = MatchParams(6, 3, "sad")
    dmap, _ = compute_disparity(left, right, params)
    disp_ref, valid_ref = naive_disparity(left.pixels.tolist(), right.pixels.tolist(), 6, 3, "sad")
    assert dmap.disparities.tolist() == disp_ref
    assert dmap.valid.tolist() == valid_ref


def test_huge_window_ssd_matches_reference():
    # radius 91 pushes ssd window sums past int32 into the int64 path
    rng = np.random.default_rng(51)
    left = GrayImage(rng.integers(0, 256, size=(185, 186)))
    right = GrayImage(rng.integers(0, 256, size=(185, 186)))
    params = MatchParams(91, 1, "ssd")
    dmap, _ = compute_disparity(left, right, params)
    disp_ref, valid_ref = naive_disparity(
        left.pixels.tolist(), right.pixels.tolist(), 91, 1, "ssd"
    )
    assert dmap.valid.tolist() == valid_ref
    assert dmap.disparities.tolist() == disp_ref


def test_oracle_equivalence_small_randomized():
    rng = np.random.default_rng(77)
    for _ in range(20):
        radius = int(rng.integers(0, 3))
        side = 2 * radius + 1
        maxd = int(rng.integers(0, 5))
        w = int(rng.integers(max(side, maxd + 1), 13))
        h = int(rng.integers(side, 13))
        left = GrayImage(rng.integers(0, 256, size=(h, w)))
        right = GrayImage(rng.integers(0, 256, size=(h, w)))
        for method in ("sad", "ssd"):
            dmap, _ = compute_disparity(left, right, MatchParams(radius, maxd, method))
            disp_ref, valid_ref = naive_disparity(
                left.pixels.tolist(), right.pixels.tolist(), radius, maxd, method
            )
            assert dmap.valid.tolist() == valid_ref
            assert dmap.disparities.tolist() == disp_ref


@st.composite
def banded_matches(draw):
    """A small random pair, match params, and a band height of a few rows."""
    radius = draw(st.integers(0, 3))
    side = 2 * radius + 1
    maxd = draw(st.integers(0, 5))
    w = draw(st.integers(max(side, maxd + 1), 12))
    h = draw(st.integers(side, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left = rng.integers(0, 256, size=(h, w))
    right = rng.integers(0, 256, size=(h, w))
    return left, right, radius, maxd, draw(st.integers(1, 4))


def _match_in_bands(left, right, params, band_rows):
    """compute_disparity with each band cut to band_rows rows of the frame's width."""
    itemsize = np.dtype(_agg_dtype(params.method, params.window_side)).itemsize
    with mock.patch.object(imaging, "_BAND_BYTES", band_rows * left.shape[1] * itemsize):
        return compute_disparity(GrayImage(left), GrayImage(right), params)[0]


@settings(max_examples=60)
@given(banded_matches())
# 7 output rows in bands of 3, 3 and 1
@example((np.arange(90).reshape(9, 10) * 37 % 256, np.arange(90).reshape(9, 10) * 11 % 256,
          1, 3, 3))
def test_multi_band_matcher_matches_reference(case):
    left, right, radius, maxd, band_rows = case
    for method in METHODS:
        dmap = _match_in_bands(left, right, MatchParams(radius, maxd, method), band_rows)
        disp_ref, valid_ref = naive_disparity(left.tolist(), right.tolist(), radius, maxd, method)
        assert dmap.valid.tolist() == valid_ref
        assert dmap.disparities.tolist() == disp_ref


def test_wide_short_frame_spans_two_bands():
    # 17 rows of 4096 int32 ssd costs: a band of 16 rows, then one of 1 row
    rng = np.random.default_rng(52)
    left = rng.integers(0, 256, size=(19, 4096))
    right = rng.integers(0, 256, size=(19, 4096))
    assert imaging._row_bands(17, 4096 * 4) == [(0, 16), (16, 17)]
    dmap, _ = compute_disparity(GrayImage(left), GrayImage(right), MatchParams(1, 2, "ssd"))
    disp_ref, valid_ref = naive_disparity(left.tolist(), right.tolist(), 1, 2, "ssd")
    assert dmap.valid.tolist() == valid_ref
    assert dmap.disparities.tolist() == disp_ref


def test_depth_direct_substitution():
    dmap = DisparityMap([[10]], [[True]], 16)
    depth = disparity_to_depth(dmap, 100.0, 0.5)
    assert depth.available[0, 0]
    assert depth.depths[0, 0] == 5.0


def test_depth_zero_disparity_unavailable():
    dmap = DisparityMap([[0, 3]], [[True, True]], 4)
    depth = disparity_to_depth(dmap, 100.0, 0.5)
    assert not depth.available[0, 0] and np.isnan(depth.depths[0, 0])
    assert depth.available[0, 1]


def test_depth_linear_in_baseline():
    rng = np.random.default_rng(4)
    disp = rng.integers(0, 8, size=(6, 6))
    dmap = DisparityMap(disp, np.ones((6, 6), bool), 8)
    d1 = disparity_to_depth(dmap, 120.0, 0.25)
    d2 = disparity_to_depth(dmap, 120.0, 0.5)
    assert np.allclose(d2.depths[d2.available], 2.0 * d1.depths[d1.available])


def test_depth_rejects_bad_geometry():
    dmap = DisparityMap([[1]], [[True]], 1)
    with pytest.raises(ValueError, match="focal_length"):
        disparity_to_depth(dmap, 0.0, 0.5)
    with pytest.raises(ValueError, match="baseline"):
        disparity_to_depth(dmap, 100.0, -1.0)
    with pytest.raises(ValueError, match="finite"):
        disparity_to_depth(dmap, float("inf"), 0.5)
    with pytest.raises(ValueError, match="finite"):
        disparity_to_depth(dmap, 1e308, 10.0)
    with pytest.raises(ValueError, match="finite and positive"):  # f * B underflows to 0.0
        disparity_to_depth(dmap, 1e-200, 1e-200)


def test_scale_to_gray_endpoints_and_midpoint():
    dmap = DisparityMap([[0, 2, 4]], [[True, True, True]], 4)
    gray = scale_to_gray(dmap)
    assert gray.pixels.tolist() == [[0, 128, 255]]


def test_scale_to_gray_invalid_pixels_render_zero():
    dmap = DisparityMap([[4, 4]], [[True, False]], 4)
    assert scale_to_gray(dmap).pixels.tolist() == [[255, 0]]


def test_scale_to_gray_zero_range():
    dmap = DisparityMap([[0, 0]], [[True, True]], 0)
    assert scale_to_gray(dmap).pixels.tolist() == [[0, 0]]


def test_scale_to_gray_constant_map_is_constant():
    dmap = DisparityMap(np.full((4, 4), 3), np.ones((4, 4), bool), 9)
    gray = scale_to_gray(dmap)
    assert np.all(gray.pixels == gray.pixels[0, 0])


def _random_map(rng, w, h, maxd):
    disp = rng.integers(0, maxd + 1, size=(h, w))
    valid = rng.integers(0, 2, size=(h, w)).astype(bool)
    return DisparityMap(disp, valid, maxd)


def test_sidecar_layout_and_round_trip():
    dmap = DisparityMap([[1, 0], [2, 2]], [[True, False], [True, True]], 3)
    data = serialize_disparity(dmap)
    assert data[:4] == b"DSP1"
    assert len(data) == sidecar_num_bytes(2, 2) == 16 + 3 * 4
    # width, height, max_disparity as u32 little endian
    assert data[4:16] == (2).to_bytes(4, "little") * 2 + (3).to_bytes(4, "little")
    # first pixel record: disparity 1, valid 1
    assert data[16:19] == b"\x01\x00\x01"
    assert parse_disparity(data) == dmap


def test_sidecar_round_trip_randomized():
    rng = np.random.default_rng(21)
    for _ in range(15):
        dmap = _random_map(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)), int(rng.integers(0, 7)))
        assert parse_disparity(serialize_disparity(dmap)) == dmap


@pytest.mark.parametrize(
    "encode, decode",
    [(serialize_disparity, parse_disparity), (rle_encode_disparity, rle_decode_disparity)],
    ids=["dsp1", "dsr1"],
)
def test_a_map_decoded_from_a_bytearray_is_its_own_after_the_buffer_changes(encode, decode):
    dmap = DisparityMap([[1, 0, 3], [2, 2, 0]], [[True, False, True], [True, True, False]], 3)
    data = bytearray(encode(dmap))
    decoded = decode(data)
    data[16:] = b"\x01" * (len(data) - 16)
    assert decoded == dmap
    for values, dtype in ((decoded.disparities, np.int32), (decoded.valid, np.bool_)):
        assert values.dtype == dtype and not values.flags.writeable


def test_sidecar_error_cases():
    with pytest.raises(DisparityFormatError, match="magic"):
        parse_disparity(b"XXXX" + bytes(12))
    good = serialize_disparity(DisparityMap([[1]], [[True]], 2))
    with pytest.raises(DisparityFormatError, match="truncated"):
        parse_disparity(good[:-1])
    with pytest.raises(DisparityFormatError, match="trailing"):
        parse_disparity(good + b"\x00")
    with pytest.raises(DisparityFormatError, match="exceeds max_disparity"):
        parse_disparity(good[:16] + b"\x03\x00\x01")
    with pytest.raises(DisparityFormatError, match="neither 0 nor 1"):
        parse_disparity(good[:16] + b"\x01\x00\x02")


def test_rle_round_trip_and_size():
    rng = np.random.default_rng(31)
    for _ in range(10):
        dmap = _random_map(rng, int(rng.integers(1, 20)), int(rng.integers(1, 10)), int(rng.integers(0, 9)))
        blob = rle_encode_disparity(dmap)
        assert rle_decode_disparity(blob) == dmap
        records = count_rle_records(dmap.disparities.tolist(), dmap.valid.tolist())
        assert len(blob) == rle_num_bytes(dmap) == 16 + 5 * records


def test_rle_constant_map_is_compact():
    dmap = DisparityMap(np.full((64, 64), 5), np.ones((64, 64), bool), 8)
    blob = rle_encode_disparity(dmap)
    assert len(blob) == rle_num_bytes(dmap) == 16 + 5 * 64  # one run per row
    assert rle_decode_disparity(blob) == dmap


def test_rle_splits_runs_longer_than_u16():
    for width, records in [(65535, 1), (65536, 2), (70000, 2), (131071, 3)]:
        dmap = DisparityMap(np.zeros((1, width), int), np.ones((1, width), bool), 1)
        blob = rle_encode_disparity(dmap)
        assert count_rle_records(dmap.disparities.tolist(), dmap.valid.tolist()) == records
        assert len(blob) == rle_num_bytes(dmap) == 16 + 5 * records
        assert rle_decode_disparity(blob) == dmap


def test_rle_rejects_corrupt_streams():
    dmap = DisparityMap([[1, 1]], [[True, True]], 1)
    blob = rle_encode_disparity(dmap)
    with pytest.raises(DisparityFormatError, match="magic"):
        rle_decode_disparity(b"NOPE" + blob[4:])
    with pytest.raises(DisparityFormatError, match="truncated"):
        rle_decode_disparity(blob[:-2])
    with pytest.raises(DisparityFormatError, match="trailing"):
        rle_decode_disparity(blob + b"\x00")
    header = blob[:16]
    with pytest.raises(DisparityFormatError, match="overflows row 0"):
        rle_decode_disparity(header + b"\x00\x00\x01\x00\x01")  # empty run
    with pytest.raises(DisparityFormatError, match="overflows row 0"):
        rle_decode_disparity(header + b"\x03\x00\x01\x00\x01")
    with pytest.raises(DisparityFormatError, match="exceeds max_disparity"):
        rle_decode_disparity(header + b"\x02\x00\x02\x00\x01")
    with pytest.raises(DisparityFormatError, match="neither 0 nor 1"):
        rle_decode_disparity(header + b"\x02\x00\x01\x00\x02")
    # the header alone must not size an allocation the records cannot back
    huge = b"DSR1" + struct.pack("<III", 0xFFFFFFFF, 0xFFFFFFFF, 1)
    with pytest.raises(DisparityFormatError, match="truncated"):
        rle_decode_disparity(huge + b"\xff\xff\x01\x00\x01")


def test_disparity_map_validation():
    with pytest.raises(ValueError, match="shape"):
        DisparityMap([[1]], [[True, False]], 2)
    with pytest.raises(ValueError, match=r"\[0, 2\]"):
        DisparityMap([[3]], [[True]], 2)
    with pytest.raises(ValueError, match="^disparities must form a non-empty 2-D raster$"):
        DisparityMap([1, 2], [True, True], 2)
    with pytest.raises(ValueError, match="^disparities must be integers, got dtype float64$"):
        DisparityMap([[1.5]], [[True]], 2)


def test_disparity_map_is_immutable_and_equal_only_to_maps():
    dmap = DisparityMap([[1, 2]], [[True, False]], 2)
    with pytest.raises(AttributeError, match="^DisparityMap is immutable$"):
        dmap.max_disparity = 3
    assert dmap == DisparityMap([[1, 2]], [[True, False]], 2)
    assert dmap.__eq__(dmap.disparities) is NotImplemented
    assert dmap != "map"


@pytest.mark.parametrize(
    "max_disparity, message",
    [
        (3.5, "max_disparity must be an integer, got 3.5"),
        (3.0, "max_disparity must be an integer, got 3.0"),
        (True, "max_disparity must be an integer, got True"),
        (-1, "max_disparity must be >= 0, got -1"),
    ],
)
def test_disparity_map_requires_an_integer_max_disparity(max_disparity, message):
    # 3.5 used to be truncated to 3
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DisparityMap([[3]], [[True]], max_disparity)
    assert DisparityMap([[3]], [[True]], np.int64(3)).max_disparity == 3


def test_disparity_map_refuses_a_max_disparity_beyond_its_int32_storage():
    top = 2**31 - 1
    dmap = DisparityMap([[top, 1]], [[True, True]], top)
    assert dmap.disparities.tolist() == [[top, 1]]
    assert dmap.max_disparity == top
    # 3_000_000_000 used to be stored as -1294967296
    with pytest.raises(ValueError, match=f"^max_disparity must be <= {top}, got {2**31}$"):
        DisparityMap([[2**31, 1]], [[True, True]], 2**31)
    with pytest.raises(ValueError, match="max_disparity"):
        DisparityMap([[3_000_000_000, 1]], [[True, True]], 4_000_000_000)


# ---------------------------------------------------------------------------
# codec properties


@st.composite
def disparity_maps(draw, max_width=40):
    h = draw(st.integers(1, 5))
    w = draw(st.integers(1, max_width))
    maxd = draw(st.sampled_from([0, 1, 3, 0xFFFF]))
    # few distinct values make long runs, many make a run per pixel
    values = draw(st.lists(st.integers(0, maxd), min_size=1, max_size=4))
    disp = draw(st.lists(st.sampled_from(values), min_size=h * w, max_size=h * w))
    valid = draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
    return DisparityMap(np.reshape(disp, (h, w)), np.reshape(valid, (h, w)), maxd)


def _alternating(h, w):
    return DisparityMap(np.indices((h, w)).sum(axis=0) % 2, np.ones((h, w), bool), 1)


@settings(max_examples=200)
@given(disparity_maps())
@example(DisparityMap(np.zeros((4, 1), int), np.ones((4, 1), bool), 0))  # width 1
@example(DisparityMap(np.arange(6).reshape(6, 1) % 3, np.zeros((6, 1), bool), 2))
@example(DisparityMap(np.zeros((3, 9), int), np.zeros((3, 9), bool), 5))  # all invalid
@example(_alternating(3, 33))  # a run per pixel
def test_rle_num_bytes_and_round_trip(dmap):
    blob = rle_encode_disparity(dmap)
    assert rle_num_bytes(dmap) == len(blob)
    assert len(blob) == 16 + 5 * count_rle_records(dmap.disparities.tolist(), dmap.valid.tolist())
    assert rle_decode_disparity(blob) == dmap


def _header(magic):
    dims = st.one_of(st.integers(0, 6), st.integers(0, 0xFFFFFFFF))
    return st.builds(
        lambda w, h, m: magic + struct.pack("<III", w, h, m), dims, dims, st.integers(0, 0xFFFFFFFF)
    )


def _damaged(encode):
    """Valid streams with bytes overwritten, cut off or appended."""

    @st.composite
    def damage(draw):
        blob = bytearray(encode(draw(disparity_maps(max_width=8))))
        for _ in range(draw(st.integers(0, 3))):
            blob[draw(st.integers(4, len(blob) - 1))] = draw(st.integers(0, 255))
        cut = draw(st.integers(0, len(blob)))
        return bytes(blob[:cut]) + draw(st.binary(max_size=6))

    return damage()


def _streams(magic, encode):
    return st.one_of(
        st.binary(max_size=64),
        st.builds(bytes.__add__, _header(magic), st.binary(max_size=64)),
        _damaged(encode),
    )


# max_disparity 70000 fits the u32 header field but not the u16 records
@settings(max_examples=300)
@given(_streams(b"DSR1", rle_encode_disparity))
@example(b"DSR1" + struct.pack("<III", 1, 1, 70000) + b"\x01\x00\x00\x00\x01")
def test_rle_decoder_raises_only_its_format_error(data):
    try:
        dmap = rle_decode_disparity(data)
    except DisparityFormatError:
        return
    assert rle_decode_disparity(rle_encode_disparity(dmap)) == dmap


@settings(max_examples=300)
@given(_streams(b"DSP1", serialize_disparity))
@example(b"DSP1" + struct.pack("<III", 1, 1, 70000) + b"\x00\x00\x01")
def test_sidecar_decoder_raises_only_its_format_error(data):
    try:
        dmap = parse_disparity(data)
    except DisparityFormatError:
        return
    # the sidecar has one encoding per map, so whatever decodes re-encodes exactly
    assert serialize_disparity(dmap) == data


def _shifted_noisy_pair(w, h, shift, seed):
    """A random left frame and a right frame shifted by shift, with a tenth of its pixels redrawn."""
    rng = np.random.default_rng(seed)
    master = rng.integers(0, 256, size=(h, w + shift))
    right = master[:, shift:].copy()
    noisy = rng.random((h, w)) < 0.1
    right[noisy] = rng.integers(0, 256, size=int(noisy.sum()))
    return master[:, :w], right


def _matching_threads(monkeypatch, left, right, params):
    """compute_disparity's map and the number of threads that summed its windows."""
    idents = set()

    def spying(*args):
        idents.add(threading.get_ident())
        return window_sums(*args)

    window_sums = stereo._window_sums
    monkeypatch.setattr(stereo, "_window_sums", spying)
    dmap, _ = compute_disparity(GrayImage(left), GrayImage(right), params)
    monkeypatch.setattr(stereo, "_window_sums", window_sums)
    return dmap, len(idents)


def _split_evals(w, h, params):
    """The cost evaluations compute_disparity counts against stereo._SPLIT_EVALS."""
    r, dmax = params.window_radius, params.max_disparity
    return (h - 2 * r) * (w - dmax - 2 * r) * (dmax + 1)


# 640x480 at radius 1 and max_disparity 48: 13.8 million evaluations
_SPLIT_PARAMS = {method: MatchParams(1, 48, method) for method in METHODS}


@pytest.mark.parametrize("method", METHODS)
def test_a_frame_above_the_split_threshold_equals_its_row_crops_matched_on_one_thread(
    monkeypatch, method
):
    # two CPUs, whatever this host has, so that the frame is split
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    params, w, h = _SPLIT_PARAMS[method], 640, 480
    left, right = _shifted_noisy_pair(w, h, 3, seed=len(method))
    assert _split_evals(w, h, params) >= stereo._SPLIT_EVALS
    # the threads hand the interpreter over as often as it allows
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        dmap, threads = _matching_threads(monkeypatch, left, right, params)
    finally:
        sys.setswitchinterval(switch_interval)
    assert threads == 2
    # two crops that overlap by a window, each too small to split
    half = h // 2
    for top, bottom in ((0, half + 6), (half - 6, h)):
        assert _split_evals(w, bottom - top, params) < stereo._SPLIT_EVALS
        crop, threads = _matching_threads(monkeypatch, left[top:bottom], right[top:bottom], params)
        assert threads == 1
        rows = slice(top + 1, bottom - 1)
        assert np.array_equal(dmap.disparities[rows], crop.disparities[1:-1])
        assert np.array_equal(dmap.valid[rows], crop.valid[1:-1])
    assert np.count_nonzero(dmap.disparities == 3) > 0.8 * dmap.valid.sum()


def test_a_frame_above_the_split_threshold_stays_on_one_thread_with_one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    left, right = _shifted_noisy_pair(640, 480, 3, seed=1)
    dmap, threads = _matching_threads(monkeypatch, left, right, _SPLIT_PARAMS["ssd"])
    assert threads == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert _matching_threads(monkeypatch, left, right, _SPLIT_PARAMS["ssd"]) == (dmap, 2)


@pytest.mark.parametrize("method", METHODS)
def test_a_frame_above_the_split_threshold_with_one_valid_row_stays_on_one_thread(
    monkeypatch, method
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    # three rows at radius 1 leave one valid row of 3,998 pixels, each with 4,001 candidates
    params, w, h = MatchParams(1, 4000, method), 8000, 3
    assert _split_evals(w, h, params) >= stereo._SPLIT_EVALS
    master = np.random.default_rng(9).integers(0, 256, size=(h, w + 5))
    dmap, threads = _matching_threads(monkeypatch, master[:, :w], master[:, 5:], params)
    assert threads == 1
    assert dmap.valid[1, 4001:-1].all() and dmap.valid.sum() == w - 4002
    assert set(dmap.disparities[dmap.valid].tolist()) == {5}


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_a_split_match_leaves_no_thread_running_and_raises_what_either_thread_raised(
    monkeypatch, failing
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    left, right = (GrayImage(p) for p in _shifted_noisy_pair(640, 480, 3, seed=2))
    params = _SPLIT_PARAMS["ssd"]
    before = threading.active_count()
    compute_disparity(left, right, params)
    assert threading.active_count() == before
    window_sums = stereo._window_sums

    def failing_sums(*args):
        on_caller = threading.current_thread() is threading.main_thread()
        if on_caller == (failing == "caller"):
            raise RuntimeError(f"failed on the {failing}")
        return window_sums(*args)

    monkeypatch.setattr(stereo, "_window_sums", failing_sums)
    with pytest.raises(RuntimeError, match=f"^failed on the {failing}$"):
        compute_disparity(left, right, params)
    assert threading.active_count() == before


@pytest.mark.parametrize("radius, max_disparity", [(1, 9), (2, 12)])
def test_packed_ssd_keeps_ties_on_the_smallest_disparity(radius, max_disparity):
    # a flat frame costs 0 at every disparity
    flat = GrayImage(np.full((12, 30), 77))
    dmap, _ = compute_disparity(flat, flat, MatchParams(radius, max_disparity, "ssd"))
    assert not dmap.disparities.any() and dmap.valid.any()
    # columns of period 4, shifted by 1: disparities 1, 5 and 9 all cost 0
    stripes = np.tile(np.array([10, 200, 60, 140]), (12, 9))[:, :34]
    left, right = stripes[:, :30], stripes[:, 1:31]
    dmap, _ = compute_disparity(GrayImage(left), GrayImage(right), MatchParams(radius, max_disparity, "ssd"))
    disp_ref, valid_ref = naive_disparity(left.tolist(), right.tolist(), radius, max_disparity, "ssd")
    assert dmap.disparities.tolist() == disp_ref
    assert dmap.valid.tolist() == valid_ref
    assert set(dmap.disparities[dmap.valid].tolist()) == {1}


def test_ssd_with_a_window_too_wide_to_pack_matches_reference():
    # 256 * 255**2 * 13**2 exceeds int32, so radius 6 selects with a comparison
    assert 256 * 255**2 * 13**2 > np.iinfo(np.int32).max >= 255**2 * 13**2
    left, right = _shifted_noisy_pair(24, 16, 2, seed=6)
    dmap, _ = compute_disparity(GrayImage(left), GrayImage(right), MatchParams(6, 3, "ssd"))
    disp_ref, valid_ref = naive_disparity(left.tolist(), right.tolist(), 6, 3, "ssd")
    assert dmap.valid.tolist() == valid_ref
    assert dmap.disparities.tolist() == disp_ref


@pytest.mark.parametrize(
    "disparities, expected",
    [
        # a table of six entries, the largest disparity present plus one
        ([[0, 1, 2], [3, 4, 5]], [[0, 0, 0], [0, 0, 0]]),
        # disparities beyond the pixel count are rendered one by one
        ([[0, 2**31 - 1, 2**30]], [[0, 255, 128]]),
    ],
)
def test_scale_to_gray_of_the_widest_disparity_range_allocates_no_table_of_its_size(
    disparities, expected
):
    dmap = DisparityMap(disparities, np.ones(np.shape(disparities), bool), 2**31 - 1)
    tracemalloc.start()
    try:
        gray = scale_to_gray(dmap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gray.pixels.tolist() == expected
    assert peak < 64 * 1024
