"""Chart-linear paths, a Riemannian upper bound for the left-invariant
distance, and the pointwise growth bounds it feeds.

A path that is linear in coordinates has constant left logarithmic derivative
(w', c' - omega(w, w')/2) on each segment, so its length in the left-invariant
metric is elementary, and so is its gradient with respect to the waypoints.
distance_upper minimizes that length over interior waypoints with BFGS
(`_bfgs`, Nocedal-Wright, Numerical Optimization, Alg. 6.1, with a
backtracking line search) and returns the length of the path it ends at, so
the distance is bounded from above, which is the sound direction for every
bound downstream: overestimating the distance only loosens them. The growth
bounds follow the Gaussian-type bound of Driver-Gordina, Heat kernel analysis
on infinite-dimensional Heisenberg groups (J. Funct. Anal. 2008).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .group import (
    GroupConfig,
    GroupElement,
    _check_count,
    _check_group,
    _check_seed,
    _check_time,
    k_omega,
)
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
    _check_group(config, *points)
    return _length(config, np.array([p.w for p in points]), np.array([p.c for p in points]))


def _segments(config: GroupConfig, W: np.ndarray, C: np.ndarray):
    """Per-segment (dW, corr, speed) of the chart-linear path through stacked
    waypoints: W is (points, k), C is (points, d), and corr = dC - omega(W_s, dW)/2."""
    dW = np.diff(W, axis=0)
    corr = np.diff(C, axis=0) - 0.5 * config.omega_batch(W[:-1], dW)
    speed_sq = np.sum(np.abs(dW) ** 2, axis=1) + np.sum(np.abs(corr) ** 2, axis=1)
    return dW, corr, np.sqrt(speed_sq)


def _length(config: GroupConfig, W: np.ndarray, C: np.ndarray) -> float:
    """path_length over stacked waypoints: W is (points, k), C is (points, d)."""
    return float(np.sum(_segments(config, W, C)[2]))


def _length_grad(config: GroupConfig, W: np.ndarray, C: np.ndarray):
    """_length and its gradient with respect to every waypoint.

    The gradients gW, gC have the shapes of W and C; their real parts are the
    derivatives along the real parts of the coordinates, their imaginary parts
    those along the imaginary parts. Per segment, with q = |dW|^2 + |corr|^2,
    d sqrt(q) is 1/(2 sqrt(q)) times

        2 dW - sum_m corr_m conj(Omega_m^T W_s)   along dW,
        -sum_m corr_m conj(Omega_m dW)            along W_s,
        2 corr                                    along dC,

    chained through dW = W_(s+1) - W_s and dC = C_(s+1) - C_s. A zero-speed
    segment contributes 0, a subgradient of its length.
    """
    dW, corr, speed = _segments(config, W, C)
    om = config.omega.conj()
    half_inv = np.divide(0.5, speed, out=np.zeros_like(speed), where=speed > 0)[:, None]
    g_dW = half_inv * (2.0 * dW - np.einsum("sm,mij,si->sj", corr, om, W[:-1].conj()))
    g_Ws = -half_inv * np.einsum("sm,mij,sj->si", corr, om, dW.conj())
    g_dC = half_inv * (2.0 * corr)
    gW = np.zeros_like(W)
    gW[1:] += g_dW
    gW[:-1] += g_Ws - g_dW
    gC = np.zeros_like(C)
    gC[1:] += g_dC
    gC[:-1] -= g_dC
    return float(np.sum(speed)), gW, gC


def _waypoints(config: GroupConfig, h: GroupElement, x: np.ndarray):
    """Stacked (W, C) of the path identity -> interior waypoints -> h, where x
    holds the real parts of the interior coordinates, then their imaginary parts."""
    half = x.size // 2
    z = (x[:half] + 1j * x[half:]).reshape(-1, config.n)
    Z = np.vstack([np.zeros(config.n), z, np.concatenate([h.w, h.c])])
    return Z[:, : config.k], Z[:, config.k:]


def _objective(x: np.ndarray, config: GroupConfig, h: GroupElement):
    """The path length over x, laid out as in `_waypoints`, and its gradient."""
    length, gW, gC = _length_grad(config, *_waypoints(config, h, x))
    g = np.concatenate([gW[1:-1], gC[1:-1]], axis=1).ravel()
    return length, np.concatenate([g.real, g.imag])


# BFGS stops once the largest gradient component is at most GTOL, or once
# neither its own direction nor steepest descent lowers the length by more
# than DESCENT_ULPS units in the last place; a step must also lower it by
# ARMIJO times the decrease its slope predicts.
GTOL = 1e-10
DESCENT_ULPS = 4
ARMIJO = 1e-4


def _line_search(fun, x: np.ndarray, f: float, g: np.ndarray, p: np.ndarray):
    """(x, f, g) at the first accepted step along p, or None.

    Backtracks from the unit step; each retry is the minimizer of the
    quadratic through f, its slope along p and the rejected trial, clipped
    to [0.1, 0.5] times that trial. It gives up once the decrease the slope
    predicts is at most DESCENT_ULPS ulps of f, which no shorter step on a
    convex stretch could beat, and at once if p is not a descent direction.
    """
    slope = float(g @ p)
    floor = DESCENT_ULPS * np.finfo(float).eps * abs(f)
    t = 1.0
    while -t * slope > floor:
        x_new = x + t * p
        f_new, g_new = fun(x_new)
        if f_new <= f + ARMIJO * t * slope and f_new < f - floor:
            return x_new, f_new, g_new
        t = min(max(-0.5 * slope * t * t / (f_new - f - slope * t), 0.1 * t), 0.5 * t)
    return None


def _bfgs(fun, x: np.ndarray) -> np.ndarray:
    """The point where BFGS (Nocedal-Wright, Alg. 6.1) on fun, which returns
    (value, gradient), stops when started from x.

    The inverse Hessian starts as the identity and is scaled by s.y / y.y
    before the first update; a pair with s.y <= 0 updates nothing. When the
    line search fails along -H g, one steepest-descent step is tried with H
    reset. At most 200 iterations per coordinate are taken.
    """
    f, g = fun(x)
    eye = np.eye(x.size)
    H = eye
    for _ in range(200 * x.size):
        if np.max(np.abs(g)) <= GTOL:
            break
        step = _line_search(fun, x, f, g, -(H @ g))
        if step is None and H is not eye:
            H = eye
            step = _line_search(fun, x, f, g, -g)
        if step is None:
            break
        s, y = step[0] - x, step[2] - g
        x, f, g = step
        sy = float(s @ y)
        if sy > 0:
            if H is eye:
                H = (sy / float(y @ y)) * eye
            Hy = H @ y
            H = H + ((sy + float(y @ Hy)) / sy * np.outer(s, s)
                     - np.outer(Hy, s) - np.outer(s, Hy)) / sy
    return x


def distance_upper(
    config: GroupConfig,
    h: GroupElement,
    segments: int = 4,
    restarts: int = 4,
    seed: int = 0,
) -> float:
    """Upper bound for the distance from the identity to h.

    Minimizes the chart-linear path length over the (segments - 1) interior
    waypoints with BFGS (`_bfgs`) on the closed-form gradient
    (`_length_grad`), starting from the straight path plus seeded perturbed
    restarts. Each restart's bound is the length of the path BFGS ended at,
    evaluated afresh, so every candidate is the length of an actual path,
    whichever stopping rule ended the run. The single straight segment is
    always a candidate, so the result never exceeds sqrt(|w|^2 + |c|^2).
    segments and restarts must be integers >= 1, seed an integer in [0, 2^64).
    """
    _check_count("segments", segments)
    _check_count("restarts", restarts)
    _check_seed("seed", seed)

    straight = path_length(config, [config.identity(), h])
    if segments == 1 or straight == 0.0:
        return straight
    dim = (segments - 1) * 2 * config.n
    hz = np.concatenate([h.w, h.c])
    straight_pts = np.concatenate([(i / segments) * hz for i in range(1, segments)])
    x0 = np.concatenate([straight_pts.real, straight_pts.imag])
    scale = 0.3 * (1.0 + float(np.linalg.norm(hz)))
    rng = np.random.default_rng(seed)
    best = straight
    for r in range(restarts):
        start = x0 if r == 0 else x0 + scale * rng.standard_normal(dim)
        end = _bfgs(lambda x: _objective(x, config, h), start)
        best = min(best, _length(config, *_waypoints(config, h, end)))
    return best


def c_factor(t: float) -> float:
    """c(t) = t / (e^t - 1), continuously extended by c(0) = 1.

    Decreasing, positive, and finite for all real t; c(1) = 1/(e - 1).
    """
    if t == 0.0:
        return 1.0
    return t / math.expm1(t)


def _check_bound_inputs(config: GroupConfig, f: Polynomial, h: GroupElement, T: float) -> None:
    _check_group(config, f, h)
    if not f.is_holomorphic():
        raise ValueError("pointwise bounds apply to holomorphic polynomials")
    _check_time("pointwise bound", T)


def _heat_norm(f: Polynomial, T: float) -> float:
    """The exact L^2(nu_T) norm of f, from the heat expectation of |f|^2."""
    return math.sqrt(max(heat_expectation(f.abs_sq(), T).real, 0.0))


def _bound_row(f: Polynomial, h: GroupElement, d_up: float, bound: float, **extra) -> dict:
    """The comparison row of |f(h)| against a bound, with any extra columns."""
    value = float(abs(f.eval(h)))
    return {
        "point": h,
        "value": value,
        "bound": float(bound),
        "margin": float(bound - value),
        "d_upper": float(d_up),
        **extra,
        "pass": bool(value <= bound * (1.0 + 1e-12) + 1e-15),
    }


def bargmann_check(
    config: GroupConfig, f: Polynomial, h: GroupElement, T: float, d_up: float
) -> dict:
    """Pointwise bound |f(h)| <= norm_T(f) * exp(d(h)^2 / (2T)) with the
    distance replaced by its upper bound d_up (from `distance_upper`).
    Returns the comparison row. The bound does not depend on the form, so
    config is read only to check that f and h belong to it."""
    _check_bound_inputs(config, f, h, T)
    bound = _heat_norm(f, T) * math.exp(d_up**2 / (2.0 * T))
    return _bound_row(f, h, d_up, bound)


def gaussian_bound_check(
    config: GroupConfig,
    f: Polynomial,
    h: GroupElement,
    T: float,
    p: float = 2.0,
    params: MCParams | None = None,
    workers: int = 1,
    *,
    d_up: float,
) -> dict:
    """Gaussian-type bound |f(h)| <= ||f||_p * exp(c(k T/2) d(h)^2 / ((p-1) T))
    with k the curvature constant of the form and d replaced by its upper
    bound d_up (from `distance_upper`).

    ||f||_p is the p-th heat moment root: exact for p = 2, Monte Carlo from
    `params` otherwise. `params.T`, when given, must equal T: the norm and
    the exponent are taken at one heat time.
    """
    _check_bound_inputs(config, f, h, T)
    if params is not None and params.T != T:
        raise ValueError(f"params.T={params.T} differs from the bound's T={T}")
    if not math.isfinite(p) or p <= 1:
        raise ValueError(f"p must be finite and exceed 1, got p={p}")
    if p == 2.0:
        norm_p = _heat_norm(f, T)
    else:
        if params is None:
            raise ValueError("p != 2 needs MC parameters for the norm")
        est = lp_norm_mc(config, f, p, params, workers)
        norm_p = max(est.mean.real, 0.0) ** (1.0 / p)
    kk = k_omega(config)
    factor = math.exp(c_factor(kk * T / 2.0) * d_up**2 / ((p - 1.0) * T))
    return _bound_row(f, h, d_up, norm_p * factor, p=p)
