"""Image similarity metrics: MSE, PSNR, and windowed SSIM.

Window statistics are derived from exact integer sums, so identical inputs
score SSIM 1.0 exactly and the metrics are exactly symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imaging import GrayImage, _require_same_dims, _window_sums

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
        if self.window_side < 2:
            raise ValueError(f"window_side must be >= 2, got {self.window_side}")
        if not self.k1 > 0 or not self.k2 > 0:
            raise ValueError(f"k1 and k2 must be positive, got {self.k1}, {self.k2}")


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
    diff = a.pixels.astype(np.int64) - b.pixels.astype(np.int64)
    total = int((diff * diff).sum())
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

    pa = a.pixels.astype(np.int64)
    pb = b.pixels.astype(np.int64)
    n = side * side
    s_a = _window_sums(pa, side).astype(np.float64)
    s_b = _window_sums(pb, side).astype(np.float64)
    s_aa = _window_sums(pa * pa, side).astype(np.float64)
    s_bb = _window_sums(pb * pb, side).astype(np.float64)
    s_ab = _window_sums(pa * pb, side).astype(np.float64)

    c1 = (params.k1 * params.dynamic_range) ** 2
    c2 = (params.k2 * params.dynamic_range) ** 2

    mu_a = s_a / n
    mu_b = s_b / n
    var_a = (s_aa - s_a * s_a / n) / (n - 1)
    var_b = (s_bb - s_b * s_b / n) / (n - 1)
    cov = (s_ab - s_a * s_b / n) / (n - 1)

    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    scores = num / den
    value = math.fsum(scores.ravel().tolist()) / scores.size
    return MetricResult(value)
