import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stereosim import (
    GrayImage,
    PgmParseError,
    parse_pgm,
    pgm_num_bytes,
    serialize_pgm,
    shifted_sequence,
    texture,
)
from stereosim import imaging

from oracles import naive_window_sums


def test_parse_minimal():
    img = parse_pgm(b"P5\n2 1\n255\n" + bytes([0x00, 0xFF]))
    assert (img.width, img.height) == (2, 1)
    assert img.pixels.tolist() == [[0, 255]]


def test_parse_skips_comments():
    img = parse_pgm(b"P5\n# cam0\n1 1\n255\n" + bytes([0x7F]))
    assert (img.width, img.height) == (1, 1)
    assert img.pixels[0, 0] == 127


def test_parse_bad_magic():
    with pytest.raises(PgmParseError, match="magic"):
        parse_pgm(b"P6\n1 1\n255\n\x00")


def test_parse_maxval_too_large():
    with pytest.raises(PgmParseError, match="maxval"):
        parse_pgm(b"P5\n1 1\n65535\n\x00\x00")


def test_parse_truncated_pixels():
    with pytest.raises(PgmParseError, match="truncated"):
        parse_pgm(b"P5\n3 2\n255\n" + bytes(5))


def test_parse_zero_dimension():
    with pytest.raises(PgmParseError, match="width"):
        parse_pgm(b"P5\n0 2\n255\n")
    with pytest.raises(PgmParseError, match="height"):
        parse_pgm(b"P5\n2 0\n255\n")


def test_parse_non_numeric_header():
    with pytest.raises(PgmParseError, match="width"):
        parse_pgm(b"P5\nxx 2\n255\n\x00\x00")


def test_parse_rejects_pixels_above_maxval():
    assert parse_pgm(b"P5\n2 1\n100\n\x05\x64").pixels.tolist() == [[5, 100]]
    with pytest.raises(PgmParseError, match="200 exceeds maxval 100 at byte offset 12"):
        parse_pgm(b"P5\n2 1\n100\n\x05\xc8")


def test_parse_rejects_trailing_bytes():
    with pytest.raises(PgmParseError, match="4 trailing bytes after pixel data at byte offset 12"):
        parse_pgm(b"P5\n1 1\n255\n\x07junk")


def _pgm_streams():
    """Arbitrary bytes, bytes behind the magic, and small headers over random pixel bytes."""
    header = st.builds(
        lambda w, h, m: b"P5\n%d %d\n%d\n" % (w, h, m),
        st.integers(-1, 6),
        st.integers(-1, 6),
        st.one_of(st.integers(0, 256), st.sampled_from([1, 254, 255, 65535])),
    )
    return st.one_of(
        st.binary(max_size=64),
        st.builds(bytes.__add__, st.just(b"P5"), st.binary(max_size=64)),
        st.builds(bytes.__add__, header, st.binary(max_size=48)),
    )


@settings(max_examples=300)
@given(_pgm_streams())
@example(b"P5\n1 1\n255\n\x07junk")  # trailing bytes
def test_parse_pgm_raises_only_its_parse_error(data):
    try:
        img = parse_pgm(data)
    except PgmParseError:
        return
    assert isinstance(img, GrayImage)


@settings(max_examples=200)
@given(
    st.integers(1, 12).flatmap(
        lambda w: st.lists(
            st.lists(st.integers(0, 255), min_size=w, max_size=w), min_size=1, max_size=12
        )
    )
)
def test_parse_pgm_round_trips_serialize_pgm(rows):
    img = GrayImage(rows)
    assert parse_pgm(serialize_pgm(img)) == img


def _independent_pgm(rng, width, height, flat):
    """PGM writer sharing nothing with serialize_pgm: random header noise."""

    def sep():
        out = bytearray()
        for _ in range(rng.randint(1, 3)):
            out += rng.choice([b" ", b"\n", b"\t", b"\r"])
        if rng.random() < 0.4:
            out += b"# " + bytes(rng.randrange(97, 123) for _ in range(rng.randint(0, 6))) + b"\n"
        return bytes(out)

    header = b"P5" + sep() + str(width).encode() + sep() + str(height).encode()
    header += sep() + b"255" + b"\n"
    return header + bytes(flat)


def test_round_trip_of_randomized_foreign_files():
    rng = random.Random(1234)
    for _ in range(60):
        w = rng.randint(1, 9)
        h = rng.randint(1, 9)
        flat = [rng.randint(0, 255) for _ in range(w * h)]
        data = _independent_pgm(rng, w, h, flat)
        img = parse_pgm(data)
        assert (img.width, img.height) == (w, h)
        assert img.pixels.reshape(-1).tolist() == flat
        # one serialization pass canonicalizes; a second is a fixed point
        canon = serialize_pgm(img)
        assert canon == serialize_pgm(parse_pgm(canon))
        assert parse_pgm(canon) == img


def test_serialize_minimal():
    assert serialize_pgm(GrayImage([[0]])) == b"P5\n1 1\n255\n\x00"


def test_serialize_parse_identity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        w, h = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        img = GrayImage(rng.integers(0, 256, size=(h, w)))
        assert parse_pgm(serialize_pgm(img)) == img


def test_serialize_injective_on_small_images():
    seen = {}
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    data = serialize_pgm(GrayImage([[a, b], [c, d]]))
                    assert data not in seen, f"collision with {seen.get(data)}"
                    seen[data] = (a, b, c, d)
    assert len(seen) == 81


def test_pgm_num_bytes_matches_serialization():
    rng = np.random.default_rng(3)
    for _ in range(10):
        w, h = int(rng.integers(1, 200)), int(rng.integers(1, 50))
        img = GrayImage(rng.integers(0, 256, size=(h, w)))
        assert pgm_num_bytes(img) == len(serialize_pgm(img))


def test_gray_image_validation():
    with pytest.raises(ValueError, match="2-D"):
        GrayImage([1, 2, 3])
    with pytest.raises(ValueError, match="1x1"):
        GrayImage(np.zeros((0, 3), dtype=np.uint8))
    with pytest.raises(ValueError, match=r"\[0, 255\]"):
        GrayImage([[256]])
    with pytest.raises(ValueError, match=r"\[0, 255\]"):
        GrayImage([[-1]])
    with pytest.raises(ValueError, match="integers"):
        GrayImage([[1.5]])


def test_gray_image_immutable():
    img = GrayImage([[1, 2]])
    with pytest.raises((ValueError, AttributeError)):
        img.pixels[0, 0] = 9


def test_equal_images_hash_equal_and_the_hash_is_cached():
    a = GrayImage([[1, 2, 3], [4, 5, 6]])
    b = GrayImage(np.array([[1, 2, 3], [4, 5, 6]], dtype=np.int64))
    assert a is not b and a == b
    first = hash(a)
    assert first == hash(b) == hash(a) == hash(a)
    assert first == hash(((2, 3), a.pixels.tobytes()))  # the value hash, kept
    assert GrayImage([[1, 2, 3], [4, 5, 7]]) != a
    assert a.__eq__(a.pixels) is NotImplemented
    assert a != "image"
    with pytest.raises(AttributeError):
        a._hash = 1
    assert hash(a) == first


def test_shifted_sequence_builds_one_right_frame_per_distinct_shift():
    frames = shifted_sequence(12, 6, [1, 3, 1, 0, 3], seed=2)
    assert len({id(lf) for lf, _ in frames}) == 1
    assert len({id(rf) for _, rf in frames}) == 3
    assert frames[0][1] is frames[2][1] and frames[1][1] is frames[4][1]
    master = texture(15, 6, seed=2).pixels
    for (lf, rf), s in zip(frames, [1, 3, 1, 0, 3]):
        assert np.array_equal(lf.pixels, master[:, :12])
        assert np.array_equal(rf.pixels, master[:, s : s + 12])
    with pytest.raises(ValueError, match="^shifts must name at least one step$"):
        shifted_sequence(12, 6, [], seed=2)


def test_texture_rejects_a_negative_seed_in_its_own_words():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        texture(4, 4, seed=-1)
    assert texture(4, 4, seed=0) == texture(4, 4, seed=0)


def test_synthetic_frames_refuse_a_bool_seed_or_shift():
    # True used to pass as seed 1 and as shift 1
    with pytest.raises(ValueError, match="^seed must be an integer, got True$"):
        texture(4, 4, seed=True)
    with pytest.raises(ValueError, match="^shifts must be an integer, got True$"):
        shifted_sequence(8, 8, [True], 0)


# window-sum kernel


def test_row_bands_cover_every_row_once_in_order():
    for row_bytes in (1, 7, 1000, imaging._BAND_BYTES // 3):
        step = max(1, imaging._BAND_BYTES // row_bytes)
        for rows in list(range(1, 40)) + [step - 1, step, step + 1, 3 * step + 1]:
            if rows < 1:
                continue
            bands = imaging._row_bands(rows, row_bytes)
            assert [y for y0, y1 in bands for y in range(y0, y1)] == list(range(rows))
            assert all(y1 - y0 == step for y0, y1 in bands[:-1])
    # a row wider than a band gets a band of its own
    assert imaging._row_bands(3, imaging._BAND_BYTES + 1) == [(0, 1), (1, 2), (2, 3)]
    assert imaging._row_bands(2, 10 * imaging._BAND_BYTES) == [(0, 1), (1, 2)]


@st.composite
def window_sum_cases(draw):
    """An array at its dtype's bound for side, or random values below it."""
    side = draw(st.integers(1, 40))
    dt = draw(st.sampled_from([np.int16, np.int32]))
    peak = min(255 * 255, np.iinfo(dt).max // (side * side))
    h = draw(st.integers(side, side + 6))
    w = draw(st.integers(side, side + 6))
    if draw(st.booleans()):
        arr = np.full((h, w), peak, dtype=dt)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        arr = rng.integers(0, peak + 1, size=(h, w)).astype(dt)
    return arr, side


@settings(max_examples=150)
@given(window_sum_cases())
def test_window_sums_match_reference(case):
    arr, side = case
    h, w = arr.shape
    out = np.empty((h - side + 1) * w, dtype=arr.dtype)
    scratch = np.empty(2 * h * w, dtype=arr.dtype)
    sums = imaging._window_sums(arr.reshape(-1), w, side, out, scratch)
    assert sums.dtype == arr.dtype
    assert np.shares_memory(sums, out[:1]) and sums.size == out.size - side + 1
    # sum i * w + j is the window whose top-left pixel is (i, j); the rest wrap a row's end
    assert out.reshape(-1, w)[:, : w - side + 1].tolist() == naive_window_sums(arr.tolist(), side)
