"""Seeded synthetic stereo imagery for tests, benchmarks, and simulations.

A master texture wider than the target frame is sampled at two horizontal
offsets, so the right view is an exact shifted copy of the left with fresh
texture entering at the edge instead of wrap-around artifacts.
"""

from __future__ import annotations

import numpy as np

from .imaging import GrayImage, _require_int

__all__ = ["texture", "shifted_pair", "shifted_sequence"]


def texture(width: int, height: int, seed: int) -> GrayImage:
    """Uniform random 8-bit texture from a fixed-seed generator."""
    _require_int("width", width, 1)
    _require_int("height", height, 1)
    _require_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    try:
        pixels = rng.integers(0, 256, size=(height, width), dtype=np.uint8)
    except (ValueError, MemoryError):  # numpy refuses the size, or the allocation fails at once
        raise ValueError("texture too large to hold in memory") from None
    return GrayImage(pixels)


def shifted_sequence(
    width: int, height: int, shifts: list[int], seed: int
) -> list[tuple[GrayImage, GrayImage]]:
    """Static left view plus a right view shifted by a per-step amount.

    The right frame at step t satisfies right(x, y) = left(x + shifts[t], y),
    so block matching recovers disparity shifts[t] across the valid region.
    All frames for one seed come from a single master texture of width
    width + max(shifts), and steps with equal shifts share one right frame.
    """
    if not shifts:
        raise ValueError("shifts must name at least one step")
    _require_int("width", width, 1)
    for s in shifts:
        _require_int("shifts", s, 0)
        if s >= width:
            raise ValueError(f"shift {s} must be smaller than frame width {width}")
    master = texture(width + max(shifts), height, seed).pixels
    left = GrayImage(master[:, :width])
    rights = {s: GrayImage(master[:, s : s + width]) for s in set(shifts)}
    return [(left, rights[s]) for s in shifts]


def shifted_pair(width: int, height: int, shift: int, seed: int) -> tuple[GrayImage, GrayImage]:
    """Single stereo pair with a uniform exact shift."""
    _require_int("shift", shift, 0)
    return shifted_sequence(width, height, [shift], seed)[0]
