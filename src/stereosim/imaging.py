"""Grayscale raster type and bit-exact binary PGM (P5) file I/O."""

from __future__ import annotations

import numpy as np

__all__ = [
    "GrayImage",
    "PgmParseError",
    "parse_pgm",
    "serialize_pgm",
    "pgm_num_bytes",
    "downscale",
]

_WHITESPACE = b" \t\n\r\x0b\x0c"


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
        if self is other:
            return True
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


class _HeaderScanner:
    """Cursor over the PGM header that tracks byte offsets for diagnostics."""

    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def skip_separator(self, context: str):
        """Consume at least one byte of whitespace, with '#' comments running to end of line."""
        start = self.pos
        buf = self.buf
        while self.pos < len(buf):
            b = buf[self.pos]
            if b in _WHITESPACE:
                self.pos += 1
            elif b == ord("#"):
                nl = buf.find(b"\n", self.pos)
                self.pos = len(buf) if nl < 0 else nl + 1
            else:
                break
        if self.pos == start:
            raise PgmParseError(
                f"expected whitespace before {context} at byte offset {start}"
            )

    def read_int(self, field: str) -> int:
        start = self.pos
        buf = self.buf
        while self.pos < len(buf) and buf[self.pos] not in _WHITESPACE and buf[self.pos] != ord("#"):
            self.pos += 1
        token = buf[start : self.pos]
        if not token:
            raise PgmParseError(f"missing {field} at byte offset {start}")
        try:
            return int(token)
        except ValueError:
            raise PgmParseError(
                f"invalid {field} {token!r} at byte offset {start}"
            ) from None


def parse_pgm(data: bytes) -> GrayImage:
    """Decode a binary PGM (magic P5, maxval up to 255) into a GrayImage.

    Header comments introduced by '#' are skipped. Pixels keep their stored
    values, may not exceed maxval, and end the stream. Raises PgmParseError
    naming the offending header field or byte offset on malformed input.
    """
    buf = bytes(data)
    if buf[:2] != b"P5":
        raise PgmParseError(f"bad magic {buf[:2]!r} at byte offset 0, expected b'P5'")
    scan = _HeaderScanner(buf)
    scan.pos = 2
    scan.skip_separator("width")
    width = scan.read_int("width")
    scan.skip_separator("height")
    height = scan.read_int("height")
    scan.skip_separator("maxval")
    maxval = scan.read_int("maxval")
    if width < 1:
        raise PgmParseError(f"width must be positive, got {width}")
    if height < 1:
        raise PgmParseError(f"height must be positive, got {height}")
    if not 1 <= maxval <= 255:
        raise PgmParseError(f"maxval must lie in [1, 255], got {maxval}")
    if scan.pos >= len(buf) or buf[scan.pos] not in _WHITESPACE:
        raise PgmParseError(
            f"expected a single whitespace byte after maxval at byte offset {scan.pos}"
        )
    start = scan.pos + 1
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
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


def pgm_num_bytes(img: GrayImage) -> int:
    """Size in bytes of the canonical PGM encoding, without materializing it."""
    return len(f"P5\n{img.width} {img.height}\n255\n") + img.width * img.height


def downscale(img: GrayImage, factor: int) -> GrayImage:
    """Reduce resolution by averaging factor x factor blocks.

    Output dimensions are ceil(width/factor) x ceil(height/factor); partial
    blocks at the right and bottom edges are averaged over the pixels they
    actually cover. Means are rounded half away from zero.
    """
    if not isinstance(factor, (int, np.integer)) or factor < 1:
        raise ValueError(f"factor must be a positive integer, got {factor!r}")
    if factor == 1:
        return img
    px = img.pixels.astype(np.int64)
    rows = np.arange(0, img.height, factor)
    cols = np.arange(0, img.width, factor)
    sums = np.add.reduceat(np.add.reduceat(px, rows, axis=0), cols, axis=1)
    row_counts = np.minimum(rows + factor, img.height) - rows
    col_counts = np.minimum(cols + factor, img.width) - cols
    counts = row_counts[:, None] * col_counts[None, :]
    # exact round-half-away-from-zero for non-negative integer means
    out = (2 * sums + counts) // (2 * counts)
    return GrayImage(out)


def _require_same_dims(a: GrayImage, b: GrayImage, a_name: str, b_name: str):
    """Raise ValueError naming both operands unless the images have equal dimensions."""
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError(f"{a_name} is {a.width}x{a.height} but {b_name} is {b.width}x{b.height}")


def _window_sums(arr: np.ndarray, side: int) -> np.ndarray:
    """Sliding-window sums over all fully-in-bounds side x side windows of a 2-D integer array.

    The sums are exact whenever arr's dtype holds every window sum. Small
    windows accumulate side shifted slices per axis; every partial sum is
    bounded by the window sum, so no intermediate overflows. Large windows
    switch to an integral image whose running totals may wrap, which the
    four-term combination cancels.
    """
    h, w = arr.shape
    if side <= 24:
        vert = arr[: h - side + 1].copy()
        for k in range(1, side):
            vert += arr[k : h - side + 1 + k]
        out = vert[:, : w - side + 1].copy()
        for k in range(1, side):
            out += vert[:, k : w - side + 1 + k]
        return out
    ii = np.zeros((h + 1, w + 1), dtype=arr.dtype)
    ii[1:, 1:] = arr.cumsum(axis=0).cumsum(axis=1)
    return ii[side:, side:] - ii[:-side, side:] - ii[side:, :-side] + ii[:-side, :-side]
