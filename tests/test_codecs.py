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
import sys
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stereosim import (
    DisparityMap,
    GrayImage,
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


if __name__ == "__main__":
    results = [outcome(decode, data) for _, decode, data in corpus()]
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r) for r in results) + "\n]\n")
    print(f"wrote {len(results)} decoder results to {GOLDEN}", file=sys.stderr)
