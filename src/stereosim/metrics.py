"""Image similarity metrics: MSE, PSNR, and windowed SSIM.

Window statistics are derived from exact integer sums, so identical inputs
score SSIM 1.0 exactly and the metrics are exactly symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imaging import GrayImage, _require_int, _require_same_dims, _row_bands, _sum_dtype, _window_sums

__all__ = ["MetricResult", "mse", "psnr", "ssim"]


# The luminance and contrast stabilizers C1 = (K1 * L) ** 2 and
# C2 = (K2 * L) ** 2 of Wang et al. (IEEE TIP 2004): K1 = 0.01, K2 = 0.03
# and the dynamic range L = 255 of 8-bit pixels.
_C1 = (0.01 * 255) ** 2
_C2 = (0.03 * 255) ** 2


@dataclass(frozen=True)
class MetricResult:
    """Metric score with an explicit flag for the unbounded PSNR case.

    infinite is True only when the compared images are identical; value is
    math.inf in that case, never a sentinel.
    """

    value: float
    infinite: bool = False


def mse(a: GrayImage, b: GrayImage) -> float:
    """Mean squared intensity difference over all pixels."""
    _require_same_dims(a, b, "a", "b")
    diff = np.subtract(a.pixels, b.pixels, dtype=np.int32)
    np.multiply(diff, diff, out=diff)
    total = int(diff.sum(dtype=np.int64))
    return total / (a.width * a.height)


def psnr(a: GrayImage, b: GrayImage) -> MetricResult:
    """Peak signal-to-noise ratio in dB against a 255 intensity peak.

    Identical images have zero MSE and report the infinite flag.
    """
    m = mse(a, b)
    if m == 0:
        return MetricResult(math.inf, infinite=True)
    return MetricResult(10.0 * math.log10(255.0 * 255.0 / m))


def ssim(a: GrayImage, b: GrayImage, window_side: int = 8) -> MetricResult:
    """Mean structural similarity over all fully-in-bounds sliding windows.

    The windows are uniform squares window_side pixels wide, slid at stride
    1. Per window: ((2*mu_a*mu_b + C1) * (2*cov + C2)) /
    ((mu_a^2 + mu_b^2 + C1) * (var_a + var_b + C2)), with variances and the
    covariance using the unbiased n-1 denominator, so window_side must be at
    least 2. The window means use exact integer sums, and the per-window
    scores are totaled exactly and rounded once (as math.fsum does), so
    results are deterministic.
    """
    _require_int("window_side", window_side, 2)
    _require_same_dims(a, b, "a", "b")
    side = window_side
    if a.width < side or a.height < side:
        raise ValueError(f"image {a.width}x{a.height} is smaller than the {side}x{side} ssim window")
    total = _exact_sum(_ssim_band_scores(a.pixels, b.pixels, side))
    windows = (a.height - side + 1) * (a.width - side + 1)
    return MetricResult(total / windows)


# frexp gives every finite double as m * 2**e with e >= -1073 and 2**53 * m
# an integer, so each one is an integer multiple of 2**-1126.
_LEAST_EXPONENT = -1073 - 53


def _exact_sum(arrays) -> float:
    """math.fsum of every value in the float64 arrays: their exact sum, rounded once.

    The arrays must be non-empty and their values finite. Each value is
    split by np.frexp into m * 2**e, and m * 2**27 by np.modf into a whole
    part below 2**27 in magnitude and a fraction that is a multiple of
    2**-26, so np.bincount's float64 totals of either by exponent are exact
    for arrays of fewer than 2**26 values. The totals are shifted together
    as one Python int, a multiple of 2**_LEAST_EXPONENT, and one int
    division rounds it correctly. Only one array's parts are held at a time.
    """
    total = 0
    for x in arrays:
        m, e = np.frexp(x)
        fraction, whole = np.modf(np.multiply(m, 2.0**27, out=m))
        low = int(e.min())
        bins = np.subtract(e, low, out=e).ravel()
        for part in whole, fraction:
            sums = np.bincount(bins, weights=part.ravel()) * 2.0**26
            for k, v in enumerate(sums.tolist()):
                if v:
                    total += int(v) << (low + k - 27 - 26 - _LEAST_EXPONENT)
    return total / (1 << -_LEAST_EXPONENT)


def _ssim_band_scores(pa: np.ndarray, pb: np.ndarray, side: int):
    """Yield the per-window ssim scores, one float64 array per band of window rows, in row-major order.

    The five window sums are exact integers in the narrowest type that holds
    255 ** 2 * side ** 2, the bound that also sizes ssd costs. The float
    terms are evaluated in ssim's documented order, each operation written
    into a preallocated band buffer.
    """
    h, w = pa.shape
    dt = _sum_dtype(255 * 255, side)
    pa = pa.astype(dt).reshape(-1)
    pb = pb.astype(dt).reshape(-1)
    n = side * side
    # the float64 terms are the widest working arrays
    bands = _row_bands(h - side + 1, w * 8)
    band_rows = bands[0][1]
    prod = np.empty((band_rows + side - 1) * w, dtype=dt)
    scratch = np.empty(2 * prod.size, dtype=dt)
    sums = np.empty(band_rows * w, dtype=dt)
    f = np.empty((6, band_rows * w))
    for y0, y1 in bands:
        n_in = (y1 - y0 + side - 1) * w
        # window sum i * w + x has its top-left pixel at (y0 + i, x); the
        # windows that wrap past a row's end are computed and dropped below
        count = (y1 - y0) * w - side + 1
        ra, rb = pa[y0 * w : y0 * w + n_in], pb[y0 * w : y0 * w + n_in]
        s_a, s_b, s_aa, s_bb, s_ab, t = f[:, :count]
        terms = ((s_a, ra, None), (s_b, rb, None), (s_aa, ra, ra), (s_bb, rb, rb), (s_ab, ra, rb))
        for s, x, y in terms:
            if y is not None:
                x = np.multiply(x, y, out=prod[:n_in])
            s[...] = _window_sums(x, w, side, sums, scratch)
        # var = (s_xx - s_x * s_x / n) / (n - 1), in place of s_xx
        for s_x, s_y, s_xy in ((s_a, s_a, s_aa), (s_b, s_b, s_bb), (s_a, s_b, s_ab)):
            np.multiply(s_x, s_y, out=t)
            t /= n
            np.subtract(s_xy, t, out=s_xy)
            s_xy /= n - 1
        mu_a, mu_b, var_a, var_b, cov = s_a, s_b, s_aa, s_bb, s_ab
        mu_a /= n
        mu_b /= n
        # num = (2 * mu_a * mu_b + C1) * (2 * cov + C2), in t
        np.multiply(mu_a, 2.0, out=t)
        t *= mu_b
        t += _C1
        cov *= 2.0
        cov += _C2
        t *= cov
        # den = (mu_a * mu_a + mu_b * mu_b + C1) * (var_a + var_b + C2), in mu_a
        mu_a *= mu_a
        mu_b *= mu_b
        mu_a += mu_b
        mu_a += _C1
        var_a += var_b
        var_a += _C2
        mu_a *= var_a
        t /= mu_a
        yield f[5, : (y1 - y0) * w].reshape(-1, w)[:, : w - side + 1]
