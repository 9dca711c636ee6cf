"""Block-matching disparity on rectified stereo pairs.

Costs are sums of absolute (sad) or squared (ssd) intensity differences
over a square support window, aggregated per candidate disparity, with
winner-takes-all selection. All cost arithmetic is integer-exact.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .imaging import GrayImage, _require_int, _require_same_dims, _row_bands, _sum_dtype, _window_sums

__all__ = [
    "METHODS",
    "MatchParams",
    "DisparityMap",
    "DepthMap",
    "CostStats",
    "compute_disparity",
    "disparity_to_depth",
    "scale_to_gray",
    "serialize_disparity",
    "parse_disparity",
    "sidecar_num_bytes",
    "rle_num_bytes",
    "rle_encode_disparity",
    "rle_decode_disparity",
    "DisparityFormatError",
]

METHODS = ("sad", "ssd")

SIDECAR_MAGIC = b"DSP1"
RLE_MAGIC = b"DSR1"

# The header both sidecar formats share: magic, then u32le width, height and
# max_disparity. A DSP1 body holds one _PIXEL_RECORD per pixel, row-major; a
# DSR1 body holds _RLE_RECORDs, each a run of equal pixels within a row.
_HEADER = struct.Struct("<4sIII")
_PIXEL_RECORD = np.dtype([("disparity", "<u2"), ("valid", "u1")])
_RLE_RECORD = np.dtype([("run", "<u2"), ("disparity", "<u2"), ("valid", "u1")])
_MAX_RUN = 0xFFFF


class DisparityFormatError(ValueError):
    """Raised when a disparity sidecar byte stream is malformed."""


@dataclass(frozen=True)
class MatchParams:
    """Matching configuration: window radius, disparity search range, cost method.

    The support window side is 2 * window_radius + 1 and must fit inside the
    matched images; max_disparity must be smaller than the image width.
    extent_findings checks those two constraints once the image size is known.
    """

    window_radius: int = 3
    max_disparity: int = 64
    method: str = "sad"

    def __post_init__(self):
        _require_int("window_radius", self.window_radius, 0)
        _require_int("max_disparity", self.max_disparity, 0)
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")

    @property
    def window_side(self) -> int:
        return 2 * self.window_radius + 1

    def extent_findings(self, width: int, height: int, noun: str) -> list[str]:
        """Each way a width x height image is too small for these params; noun names the image."""
        findings = []
        if self.window_side > min(width, height):
            findings.append(f"window side {self.window_side} exceeds {noun} extent {width}x{height}")
        if self.max_disparity >= width:
            findings.append(
                f"max_disparity {self.max_disparity} must be smaller than {noun} width {width}"
            )
        return findings


class DisparityMap:
    """Per-pixel integer disparity with a validity mask.

    A pixel is valid exactly when its support window and every
    disparity-shifted window lie inside image bounds, which leaves a border
    band of window_radius on all sides plus window_radius + max_disparity
    on the left. Valid disparities lie in [0, max_disparity].
    """

    __slots__ = ("_disparities", "_valid", "_max_disparity")

    def __init__(self, disparities, valid, max_disparity: int):
        _require_int("max_disparity", max_disparity, 0)
        limit = np.iinfo(np.int32).max  # disparities are stored as int32
        if max_disparity > limit:
            raise ValueError(f"max_disparity must be <= {limit}, got {max_disparity}")
        d = np.asarray(disparities)
        v = np.asarray(valid)
        if d.ndim != 2 or d.shape[0] < 1 or d.shape[1] < 1:
            raise ValueError("disparities must form a non-empty 2-D raster")
        if v.shape != d.shape:
            raise ValueError(f"valid mask shape {v.shape} does not match disparities shape {d.shape}")
        if not np.issubdtype(d.dtype, np.integer):
            raise ValueError(f"disparities must be integers, got dtype {d.dtype}")
        if d.size and (int(d.min()) < 0 or int(d.max()) > max_disparity):
            raise ValueError(f"disparities must lie in [0, {max_disparity}]")
        dd = d.astype(np.int32, copy=True)
        vv = v.astype(bool, copy=True)
        dd.setflags(write=False)
        vv.setflags(write=False)
        object.__setattr__(self, "_disparities", dd)
        object.__setattr__(self, "_valid", vv)
        object.__setattr__(self, "_max_disparity", int(max_disparity))

    @classmethod
    def _trusted(cls, disparities: np.ndarray, valid: np.ndarray, max_disparity: int):
        """Adopt arrays the matcher just built, skipping validation scans.

        Callers must hand over int32/bool arrays that already satisfy every
        invariant and must not keep writable references.
        """
        self = object.__new__(cls)
        disparities.setflags(write=False)
        valid.setflags(write=False)
        object.__setattr__(self, "_disparities", disparities)
        object.__setattr__(self, "_valid", valid)
        object.__setattr__(self, "_max_disparity", int(max_disparity))
        return self

    @property
    def disparities(self) -> np.ndarray:
        return self._disparities

    @property
    def valid(self) -> np.ndarray:
        return self._valid

    @property
    def max_disparity(self) -> int:
        return self._max_disparity

    @property
    def width(self) -> int:
        return self._disparities.shape[1]

    @property
    def height(self) -> int:
        return self._disparities.shape[0]

    def __setattr__(self, name, value):
        raise AttributeError("DisparityMap is immutable")

    def __eq__(self, other):
        if not isinstance(other, DisparityMap):
            return NotImplemented
        return (
            self._max_disparity == other._max_disparity
            and self._disparities.shape == other._disparities.shape
            and bool(np.array_equal(self._disparities, other._disparities))
            and bool(np.array_equal(self._valid, other._valid))
        )

    def __repr__(self):
        return f"DisparityMap({self.width}x{self.height}, max_disparity={self.max_disparity})"


@dataclass(frozen=True)
class DepthMap:
    """Per-pixel depth in meters where available.

    depths holds NaN where unavailable; available marks pixels whose source
    disparity was valid and nonzero.
    """

    depths: np.ndarray
    available: np.ndarray
    focal_length: float
    baseline: float


@dataclass(frozen=True)
class CostStats:
    """Work accounting for one disparity computation.

    elementary_ops is the nominal count of per-pixel difference evaluations,
    valid_pixels * (max_disparity + 1) * window_side ** 2, regardless of how
    the aggregation is implemented internally.
    """

    elementary_ops: int


def _agg_dtype(method: str, window_side: int) -> type:
    """Narrowest signed integer type that holds any window cost exactly.

    Absolute differences peak at 255 while squared differences peak at
    255 ** 2, so sad fits narrower arithmetic than ssd at equal window
    sizes.
    """
    return _sum_dtype(255 if method == "sad" else 255 * 255, window_side)


# A match of at least _SPLIT_EVALS cost evaluations (valid pixels times
# candidate disparities, the same count for sad and ssd) runs on two
# threads, each in bands of _SPLIT_BAND_BYTES. A thread holds the GIL
# between numpy calls, so the threads overlap only while their calls run.
# Set from two-thread against one-thread timings (2-vCPU Xeon): sad frames
# of 448x448 at dmax 64 (10.9 million evaluations) and below ran slower on
# two threads, 512x512 (14.5 million) ran faster with both methods, and so
# did every larger frame measured; frames with radius-1 windows and 5.5
# million evaluations ran slower. The window side is left out of the count:
# window sums take a pass per doubling of the side, not per pixel of the
# window, and 256x256 frames at radius 10 ran slower on two threads.
_SPLIT_EVALS = 12_000_000
_SPLIT_BAND_BYTES = 1024 * 1024


def _cpu_count() -> int:
    """The CPUs this process may run on, or os.cpu_count() where affinity is unknown."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _band_matcher(a, b, w: int, out, side: int, dmax: int, ssd: bool, packed: bool, bands):
    """A function that matches each [y0, y1) band of window rows and writes
    its winners into out[y0:y1], the valid columns of those rows.

    a and b are compute_disparity's flat frames of rows w wide, b with
    dmax zeros in front. The band buffers are allocated here, by the
    calling thread, so that a worker thread running the function allocates
    nothing: buffers a worker allocates stay in its own malloc arena and
    raise the peak resident size.
    """
    band_rows = max(y1 - y0 for y0, y1 in bands)
    diff = np.empty((band_rows + side - 1) * w, dtype=a.dtype)
    scratch = np.empty(2 * diff.size, dtype=a.dtype)
    cost = np.empty(band_rows * w, dtype=a.dtype)
    best = np.empty(band_rows * w, dtype=a.dtype)
    if not packed:
        d_type = np.min_scalar_type(dmax)
        best_d = np.empty(band_rows * w, dtype=d_type)
        step = np.empty(band_rows * w, dtype=d_type)
        improved = np.empty(band_rows * w, dtype=bool)

    def match():
        for y0, y1 in bands:
            n_in = (y1 - y0 + side - 1) * w
            n = (y1 - y0) * w - side + 1
            a_band, band_diff = a[y0 * w : y0 * w + n_in], diff[:n_in]
            cost_n, best_n = cost[:n], best[:n]
            for d in range(dmax + 1):
                at = dmax - d + y0 * w
                np.subtract(a_band, b[at : at + n_in], out=band_diff)
                # the square of a difference equals the square of its absolute value
                if ssd:
                    np.multiply(band_diff, band_diff, out=band_diff)
                else:
                    np.abs(band_diff, out=band_diff)
                if d == 0:
                    _window_sums(band_diff, w, side, best, scratch)
                    if not packed:
                        best_d[:n] = 0
                    continue
                _window_sums(band_diff, w, side, cost, scratch)
                if packed:
                    cost_n += d
                else:
                    np.less(cost_n, best_n, out=improved[:n])
                    # d only grows, so an improved pixel's new winner is the largest d so far
                    np.multiply(improved[:n].view(np.uint8), d_type.type(d), out=step[:n])
                    np.maximum(best_d[:n], step[:n], out=best_d[:n])
                np.minimum(best_n, cost_n, out=best_n)
            cols = slice(dmax, dmax + out.shape[1])
            if packed:
                np.bitwise_and(best[: (y1 - y0) * w].reshape(-1, w)[:, cols], 255, out=out[y0:y1])
            else:
                out[y0:y1] = best_d[: (y1 - y0) * w].reshape(-1, w)[:, cols]

    return match


def compute_disparity(
    left: GrayImage, right: GrayImage, params: MatchParams
) -> tuple[DisparityMap, CostStats]:
    """Dense winner-takes-all disparity of the left image against the right.

    For every valid pixel the disparity is the argmin over d in
    [0, max_disparity] of the window cost: the sum, over the support window,
    of the absolute (sad) or squared (ssd) difference between left(x, y) and
    right(x - d, y). Ties break toward the smallest d.
    Border pixels whose windows cannot be evaluated at every candidate
    disparity are marked invalid. Calls on equal inputs return equal maps
    and stats: the matcher keeps no clock, so a caller times the call.

    A match of at least _SPLIT_EVALS cost evaluations over two or more
    valid rows runs on two threads when the process may run on two CPUs: a
    worker thread matches the lower half of the rows while the calling
    thread matches the upper half, and the worker has ended when this
    returns.
    """
    _require_same_dims(left, right, "left", "right")
    findings = params.extent_findings(left.width, left.height, "image")
    if findings:
        raise ValueError(findings[0])

    h, w = left.height, left.width
    r = params.window_radius
    dmax = params.max_disparity
    row0, row1 = r, h - r
    col0, col1 = dmax + r, w - r

    disp = np.zeros((h, w), dtype=np.int32)
    valid = np.zeros((h, w), dtype=bool)
    n_valid = 0

    if row1 > row0 and col1 > col0:
        n_valid = (row1 - row0) * (col1 - col0)
        side = params.window_side
        ssd = params.method == "ssd"
        dt = _agg_dtype(params.method, side)
        # Packed selection: with both frames scaled by 16, every ssd window
        # cost is 256 times the true one, so cost + d holds the cost above
        # the low byte and d below it, and one np.minimum per disparity keeps
        # the least cost and, among equal costs, the smallest d. It applies
        # where the packed cost fits int32, the type _agg_dtype gives ssd at
        # these sides; sad and wider windows select with a comparison.
        packed = ssd and dmax < 256 and 256 * 255**2 * side**2 <= np.iinfo(np.int32).max
        # Both frames are matched as flat row-major runs. In a band from row
        # y0, window sum i * w + x is the window whose top-left pixel is
        # (y0 + i, x), centered on pixel (row0 + y0 + i, x + r); the columns
        # x < dmax and the windows that wrap past a row's end are summed too,
        # and never read.
        a = left.pixels.astype(dt).reshape(-1)
        # dmax zeros before the right frame keep every shifted read in bounds
        b = np.zeros(dmax + h * w, dtype=dt)
        b[dmax:] = right.pixels.reshape(-1)
        if packed:
            a <<= 4
            b <<= 4
        out = disp[row0:row1, col0:col1]
        rows, row_bytes = row1 - row0, w * a.itemsize
        if rows >= 2 and n_valid * (dmax + 1) >= _SPLIT_EVALS and _cpu_count() >= 2:
            mid = rows // 2
            upper = _row_bands(mid, row_bytes, _SPLIT_BAND_BYTES)
            lower = _row_bands(rows - mid, row_bytes, _SPLIT_BAND_BYTES)
            lower = [(mid + y0, mid + y1) for y0, y1 in lower]
            match_upper = _band_matcher(a, b, w, out, side, dmax, ssd, packed, upper)
            match_lower = _band_matcher(a, b, w, out, side, dmax, ssd, packed, lower)
            # imported here, so that a match that does not split never loads it
            from concurrent.futures import ThreadPoolExecutor

            # leaving the block joins the worker; result() raises what it raised
            with ThreadPoolExecutor(1, thread_name_prefix="stereosim-match") as pool:
                lower_matched = pool.submit(match_lower)
                match_upper()
                lower_matched.result()
        else:
            _band_matcher(a, b, w, out, side, dmax, ssd, packed, _row_bands(rows, row_bytes))()
        valid[row0:row1, col0:col1] = True

    ops = n_valid * (dmax + 1) * params.window_side**2
    return DisparityMap._trusted(disp, valid, dmax), CostStats(ops)


def disparity_to_depth(dmap: DisparityMap, focal_length: float, baseline: float) -> DepthMap:
    """Triangulate metric depth: depth = focal_length * baseline / disparity.

    Depth is available exactly where the disparity is valid and nonzero;
    zero disparity means the point is at infinity. focal_length * baseline
    must be finite and positive, so every available depth is finite and positive too.
    """
    if not focal_length > 0:
        raise ValueError(f"focal_length must be positive, got {focal_length}")
    if not baseline > 0:
        raise ValueError(f"baseline must be positive, got {baseline}")
    scale = focal_length * baseline
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(
            f"focal_length * baseline must be finite and positive, got {focal_length} * {baseline}"
        )
    available = dmap.valid & (dmap.disparities > 0)
    depths = np.divide(scale, dmap.disparities, out=np.full(available.shape, np.nan), where=available)
    depths.setflags(write=False)
    available.setflags(write=False)
    return DepthMap(depths, available, float(focal_length), float(baseline))


def scale_to_gray(dmap: DisparityMap) -> GrayImage:
    """Render a disparity map as an 8-bit image.

    Valid pixels map linearly, round(255 * d / max_disparity) with half away
    from zero; invalid pixels render as 0. max_disparity 0 renders all 0.
    """
    m, d = dmap.max_disparity, dmap.disparities
    if m == 0:
        return GrayImage(np.zeros(d.shape, dtype=np.uint8))
    # Each disparity's level is looked up in a uint8 table, sized by the
    # largest disparity present, not by m, which may be 2**31 - 1; a map
    # holding a disparity beyond its pixel count is rendered pixel by pixel.
    top = int(d.max())
    levels = np.arange(top + 1) if top < d.size else d.astype(np.int64)
    gray = ((2 * 255 * levels + m) // (2 * m)).astype(np.uint8)
    if top < d.size:
        gray = gray.take(d)
    return GrayImage(gray * dmap.valid)


def sidecar_num_bytes(width: int, height: int) -> int:
    """Size of the exact disparity sidecar: the header plus one record per pixel."""
    return _HEADER.size + _PIXEL_RECORD.itemsize * width * height


def _check_max_disparity(max_disparity: int):
    """Both sidecar formats store disparities as u16, so max_disparity must fit in 16 bits."""
    if max_disparity > 0xFFFF:
        raise DisparityFormatError(
            f"max_disparity {max_disparity} exceeds the 16-bit sidecar range"
        )


def _sidecar_header(magic: bytes, dmap: DisparityMap) -> bytes:
    _check_max_disparity(dmap.max_disparity)
    return _HEADER.pack(magic, dmap.width, dmap.height, dmap.max_disparity)


def serialize_disparity(dmap: DisparityMap) -> bytes:
    """Encode the exact DSP1 sidecar: the header, then one (u16le disparity,
    u8 valid) record per pixel, row-major. Bit-exact."""
    header = _sidecar_header(SIDECAR_MAGIC, dmap)
    records = np.empty(dmap.disparities.shape, dtype=_PIXEL_RECORD)
    records["disparity"] = dmap.disparities
    records["valid"] = dmap.valid
    return header + records.tobytes()


def _parse_sidecar(buf: bytes, magic: bytes, record: np.dtype):
    """The header's width, height and max_disparity, then every whole record after it."""
    if buf[: len(magic)] != magic:
        raise DisparityFormatError(f"bad magic {buf[: len(magic)]!r}, expected {magic!r}")
    if len(buf) < _HEADER.size:
        raise DisparityFormatError(f"header truncated: need {_HEADER.size} bytes, have {len(buf)}")
    _, width, height, max_disparity = _HEADER.unpack_from(buf)
    if width < 1 or height < 1:
        raise DisparityFormatError(f"dimensions must be positive, got {width}x{height}")
    _check_max_disparity(max_disparity)
    count = (len(buf) - _HEADER.size) // record.itemsize
    return width, height, max_disparity, np.frombuffer(buf, record, count, _HEADER.size)


def _checked_map(records: np.ndarray, shape, max_disparity: int, runs=None) -> DisparityMap:
    """The row-major map of the records, each repeated runs times if given,
    once the records are checked."""
    disp, valid = records["disparity"], records["valid"]
    if disp.size and int(disp.max()) > max_disparity:
        raise DisparityFormatError(
            f"disparity {int(disp.max())} exceeds max_disparity {max_disparity}"
        )
    if valid.size and int(valid.max()) > 1:
        raise DisparityFormatError(f"valid flag {int(valid.max())} is neither 0 nor 1")
    disp, valid = disp.astype(np.int32), valid.astype(bool)
    if runs is not None:
        disp, valid = np.repeat(disp, runs), np.repeat(valid, runs)
    return DisparityMap._trusted(disp.reshape(shape), valid.reshape(shape), max_disparity)


def parse_disparity(data: bytes) -> DisparityMap:
    """Decode a DSP1 sidecar produced by serialize_disparity."""
    buf = bytes(data)
    width, height, max_disparity, records = _parse_sidecar(buf, SIDECAR_MAGIC, _PIXEL_RECORD)
    need = _PIXEL_RECORD.itemsize * width * height
    have = len(buf) - _HEADER.size
    if have < need:
        raise DisparityFormatError(f"pixel records truncated: need {need} bytes, have {have}")
    if have > need:
        raise DisparityFormatError(f"{have - need} trailing bytes after last pixel")
    return _checked_map(records, (height, width), max_disparity)


def _row_runs(width: int, *flat_keys: np.ndarray) -> np.ndarray:
    """The flat start of every maximal run of pixels, within a row of width
    pixels, that are equal in every one of the row-major flat_keys.

    Every row opens a run, so no run spans a row boundary.
    """
    first, *rest = flat_keys
    begins = np.empty(first.size, dtype=bool)
    np.not_equal(first[1:], first[:-1], out=begins[1:])
    for key in rest:
        begins[1:] |= key[1:] != key[:-1]
    begins[::width] = True
    return np.flatnonzero(begins)


def _rle_runs(dmap: DisparityMap) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every maximal run of equal (disparity, valid) within a row.

    Returns each run's flat start index, its length, and the number of
    records it takes: runs longer than 65535 split into full records plus
    the remainder. This is the run rule of the DSR1 format.
    """
    d = dmap.disparities
    starts = _row_runs(dmap.width, d.ravel(), dmap.valid.ravel())
    lengths = np.diff(starts, append=d.size)
    return starts, lengths, (lengths + _MAX_RUN - 1) // _MAX_RUN


def rle_num_bytes(dmap: DisparityMap) -> int:
    """Size of rle_encode_disparity(dmap): the header plus its run records."""
    return _HEADER.size + _RLE_RECORD.itemsize * int(_rle_runs(dmap)[2].sum())


def rle_encode_disparity(dmap: DisparityMap) -> bytes:
    """Row-wise run-length encoding of (disparity, valid) pairs.

    Layout: the header, then for each row a sequence of (u16le run length,
    u16le disparity, u8 valid) records; runs longer than 65535 are split.
    Rows never share runs.
    """
    header = _sidecar_header(RLE_MAGIC, dmap)
    starts, lengths, pieces = _rle_runs(dmap)
    run_of = np.repeat(np.arange(len(starts)), pieces)
    # index of each record within its run: 0 for all but split runs
    k = np.arange(len(run_of)) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    records = np.empty(len(run_of), dtype=_RLE_RECORD)
    records["run"] = np.minimum(lengths[run_of] - k * _MAX_RUN, _MAX_RUN)
    first = starts[run_of]
    records["disparity"] = dmap.disparities.ravel()[first]
    records["valid"] = dmap.valid.ravel()[first]
    return header + records.tobytes()


def rle_decode_disparity(data: bytes) -> DisparityMap:
    """Decode the row-wise RLE sidecar produced by rle_encode_disparity.

    The records are checked before the raster is allocated, so the header
    alone cannot demand more memory than the stream's runs cover.
    """
    buf = bytes(data)
    width, height, max_disparity, records = _parse_sidecar(buf, RLE_MAGIC, _RLE_RECORD)
    size = _RLE_RECORD.itemsize
    runs = records["run"].astype(np.int64)
    ends = np.cumsum(runs)
    total = width * height
    # keep the records up to the one that completes the raster, or all of them
    covered = len(records) > 0 and int(ends[-1]) >= total
    used = int(np.searchsorted(ends, total)) + 1 if covered else len(records)
    records, runs, ends = records[:used], runs[:used], ends[:used]
    begins = ends - runs
    # a run is bad when empty or when it spills past the end of its row
    bad = (runs == 0) | (begins // width != (ends - 1) // width)
    if bad.any():
        i = int(np.argmax(bad))
        raise DisparityFormatError(
            f"run of {int(runs[i])} at byte offset {_HEADER.size + size * i} "
            f"overflows row {int(begins[i]) // width}"
        )
    pos = _HEADER.size + size * used
    if not covered:
        raise DisparityFormatError(f"run records truncated at byte offset {pos}")
    if pos != len(buf):
        raise DisparityFormatError(f"{len(buf) - pos} trailing bytes after last row")
    return _checked_map(records, (height, width), max_disparity, runs)
