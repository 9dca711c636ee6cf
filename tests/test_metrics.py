import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stereosim import GrayImage, imaging, metrics, mse, psnr, ssim, texture

from oracles import naive_ssim


def test_mse_identical_is_zero():
    img = texture(8, 8, seed=1)
    assert mse(img, img) == 0.0


def test_mse_single_term():
    assert mse(GrayImage([[10]]), GrayImage([[20]])) == 100.0


def test_mse_two_saturated_terms():
    a = GrayImage([[0, 255]])
    b = GrayImage([[255, 0]])
    assert mse(a, b) == 65025.0


def test_mse_total_exceeds_int32():
    # 90,000 squared differences of 255: the total 5,852,250,000 needs 64 bits
    a = GrayImage(np.zeros((300, 300), dtype=np.uint8))
    b = GrayImage(np.full((300, 300), 255, dtype=np.uint8))
    assert mse(a, b) == 65025.0
    assert psnr(a, b).value == 0.0


def test_mse_dimension_mismatch():
    with pytest.raises(ValueError, match="but b is"):
        mse(GrayImage([[1]]), GrayImage([[1, 2]]))


def test_psnr_identical_reports_infinite():
    img = texture(9, 9, seed=2)
    result = psnr(img, img)
    assert result.infinite
    assert math.isinf(result.value)


def test_psnr_zero_db_at_peak_mse():
    a = GrayImage([[0, 255]])
    b = GrayImage([[255, 0]])
    result = psnr(a, b)
    assert not result.infinite
    assert result.value == 0.0


def test_psnr_twenty_db_case():
    # four pixels with one squared difference of 51*51 = 2601: MSE 650.25,
    # 255^2 / 650.25 is exactly 100, so PSNR is exactly 20 dB
    a = GrayImage([[51, 0], [0, 0]])
    b = GrayImage([[0, 0], [0, 0]])
    result = psnr(a, b)
    assert result.value == 20.0


def test_psnr_near_twenty_db_case():
    # diffs 36 and 3 over two pixels: MSE (1296 + 9) / 2 = 652.5, which is
    # just shy of 20 dB; frozen from a direct log10 evaluation
    a = GrayImage([[36, 3]])
    b = GrayImage([[0, 0]])
    assert mse(a, b) == 652.5
    assert psnr(a, b).value == 19.984998448575915


def test_psnr_formula_against_direct_evaluation():
    a = texture(12, 9, seed=3)
    b = texture(12, 9, seed=4)
    m = mse(a, b)
    assert psnr(a, b).value == pytest.approx(10.0 * math.log10(255.0**2 / m), rel=0, abs=0)


def test_ssim_identical_is_exactly_one():
    for seed in range(5):
        img = texture(16, 11, seed=seed)
        result = ssim(img, img)
        assert result.value == 1.0
        assert not result.infinite


def test_ssim_constant_offset_collapses_luminance():
    a = GrayImage(np.zeros((8, 8), dtype=np.uint8))
    b = GrayImage(np.full((8, 8), 255, dtype=np.uint8))
    # every window has zero variance, so the score reduces to
    # C1 * C2 / ((0 + 255^2 + C1) * C2) with C1 = (0.01 * 255)^2
    c1 = (0.01 * 255) ** 2
    expected = c1 / (255.0**2 + c1)
    result = ssim(a, b)
    assert result.value == pytest.approx(expected, rel=1e-12)
    assert result.value < 1e-3


def test_ssim_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = GrayImage(rng.integers(0, 256, size=(13, 17)))
        b = GrayImage(rng.integers(0, 256, size=(13, 17)))
        assert abs(ssim(a, b).value - ssim(b, a).value) <= 1e-12


def test_ssim_range():
    rng = np.random.default_rng(6)
    for _ in range(10):
        a = GrayImage(rng.integers(0, 256, size=(9, 9)))
        b = GrayImage(rng.integers(0, 256, size=(9, 9)))
        assert -1.0 <= ssim(a, b).value <= 1.0


def test_ssim_window_statistics_match_direct_formula():
    # single 2x2 window, statistics computed by hand with the n-1 denominator
    a = GrayImage([[0, 10], [20, 30]])
    b = GrayImage([[5, 5], [25, 35]])
    mu_a, mu_b = 15.0, 17.5
    var_a = sum((v - mu_a) ** 2 for v in (0, 10, 20, 30)) / 3
    var_b = sum((v - mu_b) ** 2 for v in (5, 5, 25, 35)) / 3
    cov = sum(
        (x - mu_a) * (y - mu_b) for x, y in zip((0, 10, 20, 30), (5, 5, 25, 35))
    ) / 3
    c1 = (0.01 * 255) ** 2
    c2 = (0.03 * 255) ** 2
    expected = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    )
    assert ssim(a, b, 2).value == pytest.approx(expected, rel=1e-14)


@st.composite
def ssim_cases(draw):
    """A random pair, a window side of 2-64, and a band height (None: unpatched)."""
    side = draw(st.integers(2, 64))
    h = draw(st.integers(side, side + 10))
    w = draw(st.integers(side, side + 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(0, 256, size=(h, w))
    kind = draw(st.sampled_from(["independent", "noisy copy", "extremes"]))
    if kind == "independent":
        b = rng.integers(0, 256, size=(h, w))
    elif kind == "noisy copy":
        b = np.clip(a + rng.integers(-8, 9, size=(h, w)), 0, 255)
    else:
        a, b = a // 128 * 255, rng.integers(0, 2, size=(h, w)) * 255
    return a, b, side, draw(st.one_of(st.none(), st.integers(1, 3)))


def _ssim_in_bands(a, b, side, band_rows):
    """ssim with each band cut to band_rows rows of float64 terms, or unpatched."""
    if band_rows is None:
        return ssim(GrayImage(a), GrayImage(b), side).value
    with mock.patch.object(imaging, "_BAND_BYTES", band_rows * a.shape[1] * 8):
        return ssim(GrayImage(a), GrayImage(b), side).value


def _extremes(h, w, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(h, w)) * 255, rng.integers(0, 2, size=(h, w)) * 255


@settings(max_examples=80)
@given(ssim_cases())
@example((*_extremes(64, 70, 1), 64, 2))  # the widest side, in bands of 2 rows
@example((*_extremes(40, 45, 2), 33, 1))  # a side past 24, one row per band
@example((*_extremes(9, 9, 3), 2, None))
def test_ssim_matches_exact_reference_bit_for_bit(case):
    a, b, side, band_rows = case
    assert _ssim_in_bands(a, b, side, band_rows) == naive_ssim(a.tolist(), b.tolist(), side)


def test_ssim_image_smaller_than_window():
    with pytest.raises(ValueError, match="smaller than"):
        ssim(texture(4, 4, 0), texture(4, 4, 0))


def test_ssim_dimension_mismatch():
    with pytest.raises(ValueError, match="but b is"):
        ssim(texture(8, 8, 0), texture(9, 8, 0))


def test_ssim_params_validation():
    img = texture(8, 8, 0)
    with pytest.raises(ValueError, match="window_side"):
        ssim(img, img, window_side=0)
    # one pixel leaves the unbiased variance no degrees of freedom
    with pytest.raises(ValueError, match="window_side must be >= 2, got 1"):
        ssim(img, img, window_side=1)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("window_side", 2.5, "window_side must be an integer, got 2.5"),
        ("window_side", True, "window_side must be an integer, got True"),
    ],
)
def test_ssim_params_reject_values_the_kernel_cannot_use(field, value, message):
    # a float side would fail inside the kernel, and a bool is not a size
    img = texture(8, 8, 0)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ssim(img, img, **{field: value})


# values where a float sum loses or mishandles bits: signed zeros, the least
# subnormal and the largest subnormal, and magnitudes 600 binary orders apart
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e300, -1e300, 1.0, -1.0]


@settings(max_examples=300)
@given(
    st.lists(
        st.one_of(st.floats(-1e300, 1e300), st.sampled_from(_EDGE_FLOATS)), min_size=1, max_size=60
    ),
    st.lists(st.integers(1, 60), max_size=3),
)
@example([1e300, 1.0, -1e300], [1, 2])  # 1.0 survives only an exact total
@example([-0.0, -0.0], [])  # math.fsum gives 0.0, not -0.0
@example([5e-324] * 3 + [-1e-320], [2])
def test_exact_sum_equals_math_fsum_bit_for_bit(values, cuts):
    x = np.array(values)
    # the values arrive as consecutive non-empty arrays, as ssim's bands do
    bounds = sorted({0, len(values), *(c for c in cuts if c < len(values))})
    parts = [x[i:j] for i, j in zip(bounds, bounds[1:])]
    total = metrics._exact_sum(parts)
    assert math.copysign(1.0, total) == math.copysign(1.0, math.fsum(values))
    assert total == math.fsum(values)
