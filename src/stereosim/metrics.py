"""Image similarity metrics: MSE, PSNR, and windowed SSIM.

Window statistics are derived from exact integer sums, so identical inputs
score SSIM 1.0 exactly and the metrics are exactly symmetric.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .imaging import GrayImage, _require_int, _require_same_dims, _row_bands, _sum_dtype, _window_sums

__all__ = ["SsimParams", "MetricResult", "mse", "psnr", "ssim"]


@dataclass(frozen=True)
class SsimParams:
    """SSIM configuration: uniform square windows slid at stride 1.

    C1 = (k1 * dynamic_range) ** 2 and C2 = (k2 * dynamic_range) ** 2
    stabilize the luminance and contrast terms.
    """

    window_side: int = 8
    k1: float = 0.01
    k2: float = 0.03
    dynamic_range: int = 255

    def __post_init__(self):
        # the variances are unbiased (divided by n - 1), so one pixel is too few
        _require_int("window_side", self.window_side, 2)
        if not (0 < self.k1 < math.inf and 0 < self.k2 < math.inf):
            raise ValueError(f"k1 and k2 must be finite and positive, got {self.k1}, {self.k2}")
        if not 1 <= self.dynamic_range < math.inf:
            raise ValueError(f"dynamic_range must be finite and >= 1, got {self.dynamic_range}")
        # ssim divides one product of two factors, each at most 2 * 255**2 plus
        # C1 or C2, by another: the products must be finite, and C1 * C2 nonzero,
        # or two black windows score 0 / 0
        try:
            c1, c2 = self._constants()
            usable = c1 * c2 > 0 and math.isfinite((2 * 255**2 + c1) * (2 * 255**2 + c2))
        except OverflowError:
            usable = False
        if not usable:
            raise ValueError(
                f"k1, k2 and dynamic_range give ssim constants out of range, "
                f"got {self.k1}, {self.k2}, {self.dynamic_range}"
            )

    def _constants(self) -> tuple[float, float]:
        """C1 and C2, the luminance and contrast stabilizers."""
        return (self.k1 * self.dynamic_range) ** 2, (self.k2 * self.dynamic_range) ** 2


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


def ssim(a: GrayImage, b: GrayImage, params: SsimParams | None = None) -> MetricResult:
    """Mean structural similarity over all fully-in-bounds sliding windows.

    Per window: ((2*mu_a*mu_b + C1) * (2*cov + C2)) /
    ((mu_a^2 + mu_b^2 + C1) * (var_a + var_b + C2)), with variances and the
    covariance using the unbiased n-1 denominator. The window means use
    exact integer sums, and the per-window scores are totaled with an
    order-independent exact float sum, so results are deterministic.
    """
    if params is None:
        params = SsimParams()
    _require_same_dims(a, b, "a", "b")
    side = params.window_side
    if a.width < side or a.height < side:
        raise ValueError(
            f"image {a.width}x{a.height} is smaller than the {side}x{side} ssim window"
        )

    c1, c2 = params._constants()
    scores = _ssim_band_scores(a.pixels, b.pixels, side, c1, c2)
    windows = (a.height - side + 1) * (a.width - side + 1)
    return MetricResult(math.fsum(itertools.chain.from_iterable(scores)) / windows)


def _ssim_band_scores(pa: np.ndarray, pb: np.ndarray, side: int, c1: float, c2: float):
    """Yield the per-window ssim scores as one list per row of windows, in row-major order.

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
        # num = (2 * mu_a * mu_b + c1) * (2 * cov + c2), in t
        np.multiply(mu_a, 2.0, out=t)
        t *= mu_b
        t += c1
        cov *= 2.0
        cov += c2
        t *= cov
        # den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2), in mu_a
        mu_a *= mu_a
        mu_b *= mu_b
        mu_a += mu_b
        mu_a += c1
        var_a += var_b
        var_a += c2
        mu_a *= var_a
        t /= mu_a
        yield from f[5, : (y1 - y0) * w].reshape(-1, w)[:, : w - side + 1].tolist()
