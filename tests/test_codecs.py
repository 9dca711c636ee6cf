"""Golden decoder results for mutated PGM, DSP1 and DSR1 byte streams, and byte counts.

The corpus starts from a few small valid streams of each format and mutates
each one deterministically: every truncation, and at every byte position
each of SUBSTITUTES in place of the byte, the byte deleted, and INSERT put
before it. For every input, golden/codec_errors.json pins either the decoded
shape and a digest of the result, or the error's type and message, in corpus
order. Regenerate the fixture only for an intended change to a decoder:

    PYTHONPATH=src python tests/test_codecs.py
"""

import hashlib
import json
import struct
import sys
import tracemalloc
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stereosim import (
    DisparityFormatError,
    DisparityMap,
    GrayImage,
    PgmParseError,
    parse_disparity,
    parse_pgm,
    pgm_num_bytes,
    rle_decode_disparity,
    rle_encode_disparity,
    rle_num_bytes,
    serialize_disparity,
    serialize_pgm,
    sidecar_num_bytes,
    texture,
)

GOLDEN = Path(__file__).parent / "golden" / "codec_errors.json"

SUBSTITUTES = b"\x00\x01\t\n #09A\xff"
INSERT = b"#"

_MAP = DisparityMap([[0, 3, 3], [1, 1, 4]], [[False, True, True], [True, True, True]], 4)
# one run of 65537 pixels splits into a full record and a one-pixel record
_WIDE = DisparityMap(np.full((1, 65537), 2), np.ones((1, 65537), bool), 2)

SEEDS = [
    ("pgm", parse_pgm, serialize_pgm(texture(3, 2, 1))),
    ("pgm-comments", parse_pgm, b"P5 # a\n#b\n2\t2 #c\n200\r" + bytes([0, 200, 7, 99])),
    ("dsp1", parse_disparity, serialize_disparity(_MAP)),
    ("dsr1", rle_decode_disparity, rle_encode_disparity(_MAP)),
    ("dsr1-split-run", rle_decode_disparity, rle_encode_disparity(_WIDE)),
]


def _mutations(data: bytes):
    """(label, bytes) for every mutation of data, in a fixed order."""
    for k in range(len(data)):
        yield f"truncated to {k}", data[:k]
    for i in range(len(data)):
        for b in SUBSTITUTES:
            yield f"byte {i} set to {b:#04x}", data[:i] + bytes([b]) + data[i + 1 :]
        yield f"byte {i} deleted", data[:i] + data[i + 1 :]
        yield f"{INSERT!r} inserted at {i}", data[:i] + INSERT + data[i:]


def corpus():
    """(label, decoder, bytes) for every mutation of every seed, in a fixed order."""
    for name, decode, data in SEEDS:
        yield f"{name} unchanged", decode, data
        for label, mutated in _mutations(data):
            yield f"{name} {label}", decode, mutated


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def outcome(decode, data: bytes) -> list:
    """["ok", shape, digest] for a decoded stream, or [error type, message]."""
    try:
        result = decode(data)
    except Exception as exc:
        return [type(exc).__name__, str(exc)]
    if isinstance(result, DisparityMap):
        max_disparity = np.array([result.max_disparity], "<i8")
        digest = _digest(result.disparities.astype("<i4"), result.valid, max_disparity)
        return ["ok", [result.height, result.width], digest]
    return ["ok", [result.height, result.width], _digest(result.pixels)]


def test_codec_corpus_matches_golden():
    expected = json.loads(GOLDEN.read_text())
    cases = list(corpus())
    assert len(cases) == len(expected)
    for (label, decode, data), want in zip(cases, expected):
        assert outcome(decode, data) == want, label


@settings(max_examples=100)
@given(
    st.integers(1, 300),
    st.integers(1, 40),
    st.sampled_from([0, 1, 5, 0xFFFF]),
    st.integers(0, 2**32 - 1),
)
@example(65537, 1, 0, 0)  # a run longer than 65535 takes two records
def test_byte_counters_equal_encoded_lengths(width, height, max_disparity, seed):
    rng = np.random.default_rng(seed)
    img = GrayImage(rng.integers(0, 256, (height, width)))
    assert pgm_num_bytes(img) == len(serialize_pgm(img))
    # a few distinct disparities and a drawn valid fraction make runs of every length
    values = rng.integers(0, max_disparity + 1, 3)
    valid = rng.random((height, width)) < rng.random()
    dmap = DisparityMap(rng.choice(values, (height, width)), valid, max_disparity)
    assert sidecar_num_bytes(width, height) == len(serialize_disparity(dmap))
    assert rle_num_bytes(dmap) == len(rle_encode_disparity(dmap))


# ---------------------------------------------------------------------------
# allocation bounds: no header may drive an allocation its stream cannot back

# header fields at the edges of the u16, i32 and u32 ranges, and small sizes
# that a short body can fill
_EDGES = (0, 1, 2**16 - 1, 2**16, 2**31 - 1, 2**32 - 1)
_FIELD = st.sampled_from(_EDGES) | st.integers(1, 4)
# a decode may take this much, plus _PER_UNIT bytes per byte (PGM, DSP1) or
# per run pixel (DSR1) of the stream
_SLACK, _PER_UNIT = 64 * 1024, 16


def _traced(decode, error: type, data: bytes):
    """decode(data), or the error of that type it raised, and the tracemalloc peak of the call."""
    tracemalloc.start()
    try:
        try:
            result = decode(data)
        except error as exc:
            result = exc
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@st.composite
def _reshaped(draw, body: bytes) -> bytes:
    """body as is, truncated, padded, or with one byte replaced."""
    how = draw(st.sampled_from(["as is", "truncated", "padded", "mutated"]))
    if how == "truncated":
        return body[: draw(st.integers(0, max(len(body) - 1, 0)))]
    if how == "padded":
        return body + draw(st.binary(min_size=1, max_size=8))
    if how == "mutated" and body:
        i = draw(st.integers(0, len(body) - 1))
        return body[:i] + bytes([draw(st.integers(0, 255))]) + body[i + 1 :]
    return body


@st.composite
def _edge_pgm_streams(draw):
    width, height, maxval = draw(_FIELD), draw(_FIELD), draw(_FIELD | st.just(255))
    # a raster that fits gets a body of its size, so that some streams decode
    size = width * height if width * height <= 64 else draw(st.integers(0, 64))
    body = draw(st.binary(min_size=size, max_size=size))
    return b"P5\n%d %d\n%d\n" % (width, height, maxval) + draw(_reshaped(body))


_DISPARITY = st.sampled_from([0, 1, 2**16 - 1]) | st.integers(0, 4)
_VALID = st.sampled_from([0, 1, 2])


@st.composite
def _edge_dsp1_streams(draw):
    width, height, max_disparity = draw(_FIELD), draw(_FIELD), draw(_FIELD)
    count = width * height if width * height <= 32 else draw(st.integers(0, 4))
    body = b"".join(struct.pack("<HB", draw(_DISPARITY), draw(_VALID)) for _ in range(count))
    return b"DSP1" + struct.pack("<III", width, height, max_disparity) + draw(_reshaped(body))


@st.composite
def _edge_dsr1_streams(draw):
    width, height, max_disparity = draw(_FIELD), draw(_FIELD), draw(_FIELD)
    # one run per row tiles a raster of rows up to 65535 wide
    if 1 <= width <= 0xFFFF and height <= 4:
        runs = [width] * height
    else:
        runs = draw(st.lists(st.sampled_from([0, 1, 0xFFFF]) | st.integers(1, 4), max_size=6))
    body = b"".join(struct.pack("<HHB", run, draw(_DISPARITY), draw(_VALID)) for run in runs)
    return b"DSR1" + struct.pack("<III", width, height, max_disparity) + draw(_reshaped(body))


def _run_pixels(data: bytes) -> int:
    """The sum of the run lengths of every whole DSR1 record after the 16-byte header."""
    count = max(len(data) - 16, 0) // 5
    return sum(run for run, _, _ in struct.iter_unpack("<HHB", data[16 : 16 + 5 * count]))


def _header_dims(data: bytes) -> tuple[int, int]:
    """The (height, width) of a DSP1 or DSR1 header."""
    width, height = struct.unpack_from("<II", data, 4)
    return height, width


@settings(max_examples=150)
@given(_edge_pgm_streams())
@example(b"P5\n%d %d\n255\n" % (2**32 - 1, 2**32 - 1) + bytes(10))
def test_parse_pgm_allocates_no_more_than_its_stream_backs(data):
    img, peak = _traced(parse_pgm, PgmParseError, data)
    assert peak <= _SLACK + _PER_UNIT * len(data)
    if not isinstance(img, PgmParseError):
        assert isinstance(img, GrayImage)
        assert data.startswith(b"P5\n%d %d\n" % (img.width, img.height))
        assert data.endswith(img.pixels.tobytes())


@settings(max_examples=150)
@given(_edge_dsp1_streams())
@example(b"DSP1" + struct.pack("<III", 60000, 60000, 1) + bytes(9))
def test_parse_disparity_allocates_no_more_than_its_stream_backs(data):
    dmap, peak = _traced(parse_disparity, DisparityFormatError, data)
    assert peak <= _SLACK + _PER_UNIT * len(data)
    if not isinstance(dmap, DisparityFormatError):
        # the constructor re-checks every invariant the decoder skipped
        assert DisparityMap(dmap.disparities, dmap.valid, dmap.max_disparity) == dmap
        assert dmap.disparities.shape == _header_dims(data)
        assert serialize_disparity(dmap) == data


@settings(max_examples=150)
@given(_edge_dsr1_streams())
@example(b"DSR1" + struct.pack("<III", 2**32 - 1, 1, 1) + struct.pack("<HHB", 0xFFFF, 1, 1))
@example(b"DSR1" + struct.pack("<III", 1, 2**32 - 1, 1) + struct.pack("<HHB", 1, 1, 1) * 3)
@example(b"DSR1" + struct.pack("<III", 0xFFFF, 1, 0) + struct.pack("<HHB", 0xFFFF, 0, 1))
def test_rle_decode_disparity_allocates_no_more_than_its_runs_cover(data):
    dmap, peak = _traced(rle_decode_disparity, DisparityFormatError, data)
    assert peak <= _SLACK + _PER_UNIT * _run_pixels(data)
    if not isinstance(dmap, DisparityFormatError):
        assert DisparityMap(dmap.disparities, dmap.valid, dmap.max_disparity) == dmap
        assert dmap.disparities.shape == _header_dims(data)
        assert rle_decode_disparity(rle_encode_disparity(dmap)) == dmap


if __name__ == "__main__":
    results = [outcome(decode, data) for _, decode, data in corpus()]
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r) for r in results) + "\n]\n")
    print(f"wrote {len(results)} decoder results to {GOLDEN}", file=sys.stderr)
