"""Explicit directional lower-bound constants and their empirical inputs.

Each closed formula is a one-dimensional supremum over a stretch factor
lambda; all four decay at both ends of their domain, so a geometric
bracketing scan followed by golden-section refinement on log(lambda) is
exact enough for tabulation.  The slicing constants that the formulas
consume are not explicit; estimate_slicing_constants measures them on a
family of fields.
"""

from __future__ import annotations

import warnings

import numpy as np

from .fields import SmoothnessParams
from .quadrature import QuadratureBundle
from .seminorms import _direction_energies, seminorm

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
# points of the geometric scan that brackets the maximum
_SCAN_POINTS = 400


def _maximize_log_scale(fn, lower: float,
                        upper: float = 1e6) -> tuple[float, float]:
    """Maximize fn(lambda) over (lower, upper] by a geometric scan and a
    golden-section polish in log(lambda).  Returns (max value, argmax)."""
    lo = np.log(lower) + 1e-9
    hi = np.log(upper)
    grid = np.linspace(lo, hi, _SCAN_POINTS)
    vals = fn(np.exp(grid))
    k = int(np.argmax(vals))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, _SCAN_POINTS - 1)]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = fn(np.exp(c))
    fd = fn(np.exp(d))
    while b - a > 1e-12:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(np.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(np.exp(d))
    arg = np.exp(0.5 * (a + b))
    return float(fn(arg)), float(arg)


def c1_first_approach(dimension: int) -> tuple[float, float]:
    """sup over lambda > N^{N-1} of
    (1/N - lambda^{-1/(N-1)}) / (lambda - lambda^{-1/(N-1)})."""
    n = int(dimension)
    if n < 2:
        raise ValueError("dimension must be at least 2")

    def fn(lam):
        inv = lam ** (-1.0 / (n - 1))
        return (1.0 / n - inv) / (lam - inv)

    return _maximize_log_scale(fn, float(n) ** (n - 1))


def c1_second_approach(p: float, dimension: int) -> float:
    """Closed-form alternative: N^{-1/2} for p >= 2, N^{-1/p} below."""
    if p < 1:
        raise ValueError("p must be at least 1")
    n = int(dimension)
    if n < 2:
        raise ValueError("dimension must be at least 2")
    return n ** (-0.5) if p >= 2 else n ** (-1.0 / p)


def c1_general(s: float, dimension: int, k1: float,
               k2: float) -> tuple[float, float, float]:
    """General-order lower-bound constant from a two-sided slicing estimate
    with constants 0 < K1 <= K2:

        sup over lambda > (K2/K1)^{(N-1)/s} of
        (K1 - K2 lambda^{-s/(N-1)}) / (K2^2 (lambda^s - lambda^{-s/(N-1)})).

    Returns (value, argmax, K2); the last entry is the matching upper
    constant of the two-sided directional bound.  The exponent p does not
    enter the formula, only the measurement of K1 and K2.
    """
    if k1 <= 0:
        raise ValueError("K1 must be positive")
    if k1 > k2:
        raise ValueError("K1 must not exceed K2")
    n = int(dimension)
    if n < 2 or s <= 0:
        raise ValueError("need dimension >= 2 and s > 0")

    def fn(lam):
        inv = lam ** (-s / (n - 1))
        return (k1 - k2 * inv) / (k2 ** 2 * (lam ** s - inv))

    lower = (k2 / k1) ** ((n - 1) / s)
    value, arg = _maximize_log_scale(fn, lower, upper=max(1e6, lower * 1e4))
    return value, arg, float(k2)


def c_gamma(gamma: float, dimension: int) -> tuple[float, float]:
    """Approximate-minimizer constant: sup over lambda > gamma^{(N-1)/2} of
    (1 - gamma lambda^{-2/(N-1)}) / (gamma (lambda^2 + lambda^{-2/(N-1)}))."""
    if gamma < 1:
        raise ValueError("gamma must be at least 1")
    n = int(dimension)
    if n < 2:
        raise ValueError("dimension must be at least 2")

    def fn(lam):
        inv = lam ** (-2.0 / (n - 1))
        return (1.0 - gamma * inv) / (gamma * (lam ** 2 + inv))

    lower = gamma ** ((n - 1) / 2.0)
    return _maximize_log_scale(fn, lower, upper=max(1e6, lower * 1e4))


def random_frames(dimension: int, count: int, seed: int = 11) -> list[np.ndarray]:
    """Seeded orthonormal frames (rows are directions), identity first."""
    rng = np.random.default_rng(seed)
    frames = [np.eye(dimension)]
    for _ in range(count):
        q = np.linalg.qr(rng.standard_normal((dimension, dimension)))[0]
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        frames.append(q.T)
    return frames


def estimate_slicing_constants(family, params: SmoothnessParams,
                               quads: QuadratureBundle,
                               frames: list[np.ndarray] | None = None,
                               seed: int = 11) -> tuple[float, float]:
    """Empirical two-sided slicing constants: the min and max over
    family members and orthonormal frames of

        |f|_{W^{s,p}} / (sum_i D(f, u_i))^{1/p}.

    Members with vanishing energy are excluded with a warning; the
    remaining extremes feed c1_general as measured K1, K2.
    """
    if frames is None:
        frames = random_frames(quads.dimension, 4, seed=seed)
    ratios = []
    for member in family:
        total_norm = seminorm(member, params, quads)
        if total_norm <= 0 or not np.isfinite(total_norm):
            warnings.warn("degenerate family member excluded from the "
                          "slicing estimate", RuntimeWarning, stacklevel=2)
            continue
        for frame in frames:
            frame = np.asarray(frame, dtype=float)
            if np.abs(np.linalg.norm(frame, axis=1) - 1.0).max() > 1e-10:
                raise ValueError("frame rows must be unit vectors")
            sliced = float(_direction_energies(member, params, frame,
                                               quads)[0].sum())
            if sliced <= 0:
                warnings.warn("degenerate frame energy excluded from the "
                              "slicing estimate", RuntimeWarning, stacklevel=2)
                continue
            ratios.append(total_norm / sliced ** (1.0 / params.p))
    if not ratios:
        raise ValueError("no usable family member for the slicing estimate")
    return float(min(ratios)), float(max(ratios))


__all__ = [
    "c1_first_approach", "c1_second_approach", "c1_general", "c_gamma",
    "random_frames", "estimate_slicing_constants",
]
