"""Chart-linear paths, a Riemannian upper bound for the left-invariant
distance, and the pointwise growth bounds it feeds.

A path that is linear in coordinates has constant left logarithmic derivative
(w', c' - omega(w, w')/2) on each segment, so its length in the left-invariant
metric is elementary; minimizing over interior waypoints tightens the distance
bound from above, which is the sound direction for every bound downstream:
overestimating the distance only loosens them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np
from scipy.optimize import minimize

from .group import GroupConfig, GroupElement, k_omega
from .poly import Polynomial, heat_expectation
from .mc import MCParams, lp_norm_mc

__all__ = [
    "path_length",
    "distance_upper",
    "c_factor",
    "bargmann_check",
    "gaussian_bound_check",
]


def path_length(config: GroupConfig, points: Sequence[GroupElement]) -> float:
    """Left-invariant length of the chart-linear path through the points.

    On a segment w(t) = w_s + t dw the speed |(dw, dc - omega(w(t), dw)/2)|
    is constant, since omega(dw, dw) = 0; the length is the sum of
    sqrt(|dw|^2 + |dc - omega(w_s, dw)/2|^2) over the segments. A path needs
    at least two points.
    """
    if len(points) < 2:
        raise ValueError(f"a path needs at least two points, got {len(points)}")
    return _length(config, np.array([p.w for p in points]), np.array([p.c for p in points]))


def _length(config: GroupConfig, W: np.ndarray, C: np.ndarray) -> float:
    """path_length over stacked waypoints: W is (points, k), C is (points, d)."""
    dW, dC = np.diff(W, axis=0), np.diff(C, axis=0)
    corr = dC - 0.5 * config.omega_batch(W[:-1], dW)
    speed_sq = np.sum(np.abs(dW) ** 2, axis=1) + np.sum(np.abs(corr) ** 2, axis=1)
    return float(np.sum(np.sqrt(speed_sq)))


def distance_upper(
    config: GroupConfig,
    h: GroupElement,
    segments: int = 4,
    restarts: int = 4,
    seed: int = 0,
) -> float:
    """Upper bound for the distance from the identity to h.

    Minimizes the chart-linear path length over the (segments - 1) interior
    waypoints with Nelder-Mead, starting from the straight path plus seeded
    perturbed restarts. The single straight segment is always a candidate, so
    the result never exceeds sqrt(|w|^2 + |c|^2).
    """
    if segments < 1:
        raise ValueError("segments must be >= 1")
    straight = path_length(config, [config.identity(), h])
    if segments == 1 or straight == 0.0:
        return straight
    n = config.n
    m_int = segments - 1
    dim = m_int * 2 * n
    hz = np.concatenate([h.w, h.c])

    def objective(x: np.ndarray) -> float:
        z = (x[: dim // 2] + 1j * x[dim // 2:]).reshape(m_int, n)
        Z = np.vstack([np.zeros(n), z, hz])
        return _length(config, Z[:, : config.k], Z[:, config.k:])

    straight_pts = np.concatenate([(i / segments) * hz for i in range(1, segments)])
    x0 = np.concatenate([straight_pts.real, straight_pts.imag])
    scale = 0.3 * (1.0 + float(np.linalg.norm(hz)))
    rng = np.random.default_rng(seed)
    best = straight
    for r in range(restarts):
        start = x0 if r == 0 else x0 + scale * rng.standard_normal(dim)
        res = minimize(
            objective,
            start,
            method="Nelder-Mead",
            options={"maxfev": 200 * dim, "xatol": 1e-8, "fatol": 1e-12},
        )
        best = min(best, float(res.fun))
    return best


def c_factor(t: float) -> float:
    """c(t) = t / (e^t - 1), continuously extended by c(0) = 1.

    Decreasing, positive, and finite for all real t; c(1) = 1/(e - 1).
    """
    if t == 0.0:
        return 1.0
    return t / math.expm1(t)


def bargmann_check(
    config: GroupConfig,
    f: Polynomial,
    h: GroupElement,
    T: float,
    d_up: float | None = None,
    **dist_kwargs,
) -> dict:
    """Pointwise bound |f(h)| <= norm_T(f) * exp(d(h)^2 / (2T)) with the
    distance replaced by its upper bound. Returns the comparison row."""
    if not f.is_holomorphic():
        raise ValueError("pointwise bounds apply to holomorphic polynomials")
    if not math.isfinite(T) or T <= 0:
        raise ValueError(f"T must be finite and positive, got T={T}")
    if d_up is None:
        d_up = distance_upper(config, h, **dist_kwargs)
    norm_sq = heat_expectation(f.abs_sq(), T).real
    value = float(abs(f.eval(h)))
    bound = math.sqrt(max(norm_sq, 0.0)) * math.exp(d_up**2 / (2.0 * T))
    return {
        "point": h,
        "value": value,
        "bound": float(bound),
        "margin": float(bound - value),
        "d_upper": float(d_up),
        "pass": bool(value <= bound * (1.0 + 1e-12) + 1e-15),
    }


def gaussian_bound_check(
    config: GroupConfig,
    f: Polynomial,
    h: GroupElement,
    T: float,
    p: float = 2.0,
    params: MCParams | None = None,
    workers: int = 1,
    d_up: float | None = None,
    **dist_kwargs,
) -> dict:
    """Gaussian-type bound |f(h)| <= ||f||_p * exp(c(k T/2) d(h)^2 / ((p-1) T))
    with k the curvature constant of the form and d the distance upper bound.

    ||f||_p is the p-th heat moment root: exact for p = 2, Monte Carlo from
    `params` otherwise.
    """
    if not f.is_holomorphic():
        raise ValueError("pointwise bounds apply to holomorphic polynomials")
    if not math.isfinite(p) or p <= 1:
        raise ValueError(f"p must be finite and exceed 1, got p={p}")
    if not math.isfinite(T) or T <= 0:
        raise ValueError(f"T must be finite and positive, got T={T}")
    if d_up is None:
        d_up = distance_upper(config, h, **dist_kwargs)
    if p == 2.0:
        norm_p = math.sqrt(max(heat_expectation(f.abs_sq(), T).real, 0.0))
    else:
        if params is None:
            raise ValueError("p != 2 needs MC parameters for the norm")
        est = lp_norm_mc(config, f, p, params, workers)
        norm_p = max(est.mean.real, 0.0) ** (1.0 / p)
    kk = k_omega(config)
    factor = math.exp(c_factor(kk * T / 2.0) * d_up**2 / ((p - 1.0) * T))
    value = float(abs(f.eval(h)))
    bound = norm_p * factor
    return {
        "point": h,
        "value": value,
        "bound": float(bound),
        "margin": float(bound - value),
        "d_upper": float(d_up),
        "p": p,
        "pass": bool(value <= bound * (1.0 + 1e-12) + 1e-15),
    }
