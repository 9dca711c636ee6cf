"""Grayscale raster type and bit-exact binary PGM (P5) file I/O."""

from __future__ import annotations

import re

import numpy as np

__all__ = [
    "GrayImage",
    "PgmParseError",
    "parse_pgm",
    "serialize_pgm",
    "pgm_num_bytes",
]

class PgmParseError(ValueError):
    """Raised when a byte stream is not a valid 8-bit binary PGM."""


class GrayImage:
    """Immutable 8-bit grayscale raster.

    Pixels are held as a read-only (height, width) uint8 array; every
    intensity lies in [0, 255] and both dimensions are at least 1. The hash
    is computed from the pixels once, on first use.
    """

    __slots__ = ("_pixels", "_hash")

    def __init__(self, pixels):
        arr = np.asarray(pixels)
        if arr.ndim != 2:
            raise ValueError(f"pixels must form a 2-D raster, got {arr.ndim} dimension(s)")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"image dimensions must be at least 1x1, got {arr.shape[1]}x{arr.shape[0]}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"intensities must be integers, got dtype {arr.dtype}")
        if arr.dtype != np.uint8:
            lo, hi = int(arr.min()), int(arr.max())
            if lo < 0 or hi > 255:
                raise ValueError(f"intensities must lie in [0, 255], got range [{lo}, {hi}]")
        out = arr.astype(np.uint8, copy=True)
        out.setflags(write=False)
        object.__setattr__(self, "_pixels", out)
        object.__setattr__(self, "_hash", None)

    @property
    def pixels(self) -> np.ndarray:
        """Read-only (height, width) uint8 array of intensities."""
        return self._pixels

    @property
    def width(self) -> int:
        return self._pixels.shape[1]

    @property
    def height(self) -> int:
        return self._pixels.shape[0]

    def __setattr__(self, name, value):
        raise AttributeError("GrayImage is immutable")

    def __eq__(self, other):
        if not isinstance(other, GrayImage):
            return NotImplemented
        return self._pixels.shape == other._pixels.shape and bool(
            np.array_equal(self._pixels, other._pixels)
        )

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self._pixels.shape, self._pixels.tobytes())))
        return self._hash

    def __repr__(self):
        return f"GrayImage({self.width}x{self.height})"


# A header field: a separator of whitespace and '#' comments, each comment
# running to the end of its line, then a token up to the next of either.
_HEADER_FIELD = re.compile(rb"((?:\s|#[^\n]*\n?)*)([^\s#]*)")


def _pgm_header(width: int, height: int) -> bytes:
    """The canonical header that serialize_pgm writes."""
    return b"P5\n%d %d\n255\n" % (width, height)


def parse_pgm(data: bytes) -> GrayImage:
    """Decode a binary PGM (magic P5, maxval up to 255) into a GrayImage.

    Header comments introduced by '#' are skipped. Pixels keep their stored
    values, may not exceed maxval, and end the stream. Raises PgmParseError
    naming the offending header field or byte offset on malformed input.
    """
    buf = bytes(data)
    if buf[:2] != b"P5":
        raise PgmParseError(f"bad magic {buf[:2]!r} at byte offset 0, expected b'P5'")
    pos = 2
    fields = []
    for field in ("width", "height", "maxval"):
        m = _HEADER_FIELD.match(buf, pos)
        if not m[1]:
            raise PgmParseError(f"expected whitespace before {field} at byte offset {pos}")
        pos = m.end()
        try:
            fields.append(int(m[2]))
        except ValueError:
            what = f"invalid {field} {m[2]!r}" if m[2] else f"missing {field}"
            raise PgmParseError(f"{what} at byte offset {m.start(2)}") from None
    width, height, maxval = fields
    if width < 1:
        raise PgmParseError(f"width must be positive, got {width}")
    if height < 1:
        raise PgmParseError(f"height must be positive, got {height}")
    if not 1 <= maxval <= 255:
        raise PgmParseError(f"maxval must lie in [1, 255], got {maxval}")
    if not buf[pos : pos + 1].isspace():
        raise PgmParseError(
            f"expected a single whitespace byte after maxval at byte offset {pos}"
        )
    start = pos + 1
    need = width * height
    have = len(buf) - start
    if have < need:
        raise PgmParseError(
            f"pixel data truncated at byte offset {start}: need {need} bytes, have {have}"
        )
    if have > need:
        raise PgmParseError(
            f"{have - need} trailing bytes after pixel data at byte offset {start + need}"
        )
    px = np.frombuffer(buf, dtype=np.uint8, count=need, offset=start)
    if maxval < 255:
        over = np.flatnonzero(px > maxval)
        if over.size:
            i = int(over[0])
            raise PgmParseError(
                f"pixel value {px[i]} exceeds maxval {maxval} at byte offset {start + i}"
            )
    return GrayImage(px.reshape(height, width))


def serialize_pgm(img: GrayImage) -> bytes:
    """Encode a GrayImage as canonical binary PGM, byte-deterministic."""
    return _pgm_header(img.width, img.height) + img.pixels.tobytes()


def pgm_num_bytes(img: GrayImage) -> int:
    """Size in bytes of the canonical PGM encoding, without materializing it."""
    return len(_pgm_header(img.width, img.height)) + img.width * img.height


def _require_int(name: str, value, minimum: int):
    """Raise ValueError unless value is an integer (a bool is not) of at least minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _require_same_dims(a: GrayImage, b: GrayImage, a_name: str, b_name: str):
    """Raise ValueError naming both operands unless the images have equal dimensions."""
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError(f"{a_name} is {a.width}x{a.height} but {b_name} is {b.width}x{b.height}")


# Bytes of one banded working array. A band pass of the matcher or of ssim
# touches a handful of arrays of this size, which together fit a 2 MiB L2
# cache. A property of the cache, not of the input or the user. A match
# the matcher splits over two threads (stereo._SPLIT_EVALS) uses bands four
# times as large instead: each numpy call then runs long enough for the
# other thread's calls to overlap it, which outweighs the cache.
_BAND_BYTES = 256 * 1024


def _row_bands(rows: int, row_bytes: int, band_bytes: int | None = None) -> list[tuple[int, int]]:
    """Consecutive [start, stop) ranges that cover range(rows) once, in order.

    Each band holds as many rows of row_bytes bytes as fit in band_bytes
    (by default _BAND_BYTES), and at least one.
    """
    step = max(1, (band_bytes or _BAND_BYTES) // row_bytes)
    return [(y, min(y + step, rows)) for y in range(0, rows, step)]


def _sum_dtype(peak: int, window_side: int) -> type:
    """Narrowest signed integer type that holds any window sum exactly.

    peak bounds each summed value from above and 0 from below, so a window
    sum is at most peak * window_side ** 2. The ssd matcher (peak 255 ** 2),
    the sad matcher (peak 255) and ssim (pixel products, peak 255 ** 2) all
    size their sums with this rule.
    """
    max_window_sum = peak * window_side * window_side
    for dt in (np.int16, np.int32, np.int64):
        if max_window_sum <= np.iinfo(dt).max:
            return dt
    raise ValueError(f"window side {window_side} overflows 64-bit cost sums")


def _strided_window_sums(
    x: np.ndarray, side: int, stride: int, out: np.ndarray, tmp: np.ndarray
) -> np.ndarray:
    """out[t] = x[t] + x[t + stride] + ... + x[t + (side - 1) * stride].

    Fills and returns the prefix of out whose t have all side terms in x.
    The sum of 2m terms is two sums of m terms, plus one more term where
    side's next bit is set, so side terms take about 2 * log2(side) passes
    instead of side - 1. Each partial sum is a sum of fewer non-negative
    terms than the whole, so none overflows a type that holds the whole.
    out and tmp need x.size elements each.
    """
    size = x.size
    doublings = side.bit_length() - 1
    acc, m = x, 1
    for i, bit in enumerate(bin(side)[3:]):
        # alternate the two buffers so that the last doubling writes into out
        dst = out if (doublings - i) % 2 else tmp
        n = size - (2 * m - 1) * stride
        np.add(acc[:n], acc[m * stride : m * stride + n], out=dst[:n])
        acc, m = dst, 2 * m
        if bit == "1":
            n = size - m * stride
            np.add(acc[:n], x[m * stride : m * stride + n], out=acc[:n])
            m += 1
    n = size - (side - 1) * stride
    if acc is x:
        out[:n] = x[:n]
    return out[:n]


def _window_sums(x: np.ndarray, w: int, side: int, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Sliding-window sums of side x side windows over x, a flat row-major run of rows w wide.

    The sums are exact whenever x's dtype holds every window sum. The run
    is summed down the columns at stride w and then along the rows at
    stride 1, so every pass is one contiguous numpy operation. Sum
    i * w + j is the window whose top-left element is row i, column j; the
    sums whose window wraps past the end of a row are sums of other
    elements, still bounded by the largest window sum, and callers skip
    them.

    Returns the (x.size // w - side + 1) * w - side + 1 sums as a prefix of
    out. out is a 1-D buffer of x's dtype with at least that many
    elements; scratch one with at least 2 * x.size.

    There is no switch-over to a summed-area table (Crow 1984), chosen by
    timing both on one 256 KiB int32 band of a 640-wide frame at sides
    3-181 (2-vCPU Xeon, numpy 2.4.6). The table takes O(1) passes per
    window, but numpy's cumsum costs ~30 numpy adds per element: it beat
    side - 1 shifted adds from side ~24 on, and lost to the doubling sums
    at every side (side 7: 0.46 ms against 0.10 ms; side 64: 0.57 ms
    against 0.18 ms; side 181: 0.96 ms against 0.58 ms).
    """
    n = x.size
    tmp = scratch[n : 2 * n]
    vert = _strided_window_sums(x, side, w, scratch[:n], tmp)
    return _strided_window_sums(vert, side, 1, out, tmp)
