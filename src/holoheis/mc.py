"""Complex Brownian motion on the algebra, the group-valued Brownian motion,
heat-kernel Monte Carlo, skeleton averages, multiple Ito integrals, and chaos
reconstruction.

Normalization: over a grid step dt each complex coordinate increment has
independent real and imaginary parts of variance dt/2, so E|dZ|^2 = dt. All
exact targets elsewhere in the package are derived under this convention.

Reproducibility contract: every path is a pure function of (seed, path_index)
through a counter-based Philox stream, and reductions combine fixed-size
batches in index order with Kahan compensation, so results are bit-identical
for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .group import GroupConfig, GroupElement
from .poly import Polynomial
from .fock import FockTensor, taylor

__all__ = [
    "MCParams",
    "MCEstimate",
    "BrownianPath",
    "GroupPath",
    "sample_path",
    "group_path",
    "heat_mc",
    "skeleton_mc",
    "heat_sweep",
    "skeleton_sweep",
    "heat_mc_grid",
    "iterated_integrals",
    "chaos_eval",
    "chaos_isometry_mc",
    "chaos_residual",
    "gaussian_moment_check",
    "lp_norm_mc",
]

# Fixed reduction granularity; never derived from the worker count, so the
# batch boundaries (and hence rounding) are identical however work is spread.
BATCH = 2048


@dataclass(frozen=True)
class MCParams:
    T: float
    steps: int
    paths: int
    seed: int

    def __post_init__(self):
        if self.T <= 0 or self.steps < 1 or self.paths < 1:
            raise ValueError(f"invalid MC parameters {self}")

    @property
    def dt(self) -> float:
        return self.T / self.steps


@dataclass(frozen=True)
class MCEstimate:
    mean: complex
    stderr: float
    paths: int

    def within(self, target: complex, sigmas: float = 3.0, allowance: float = 0.0) -> bool:
        return abs(self.mean - target) <= sigmas * self.stderr + allowance


class BrownianPath:
    """One sampled algebra-valued path on the uniform grid t_i = i dt.

    values[i] holds the k+d complex coordinates of b(t_i); the first k are the
    W part, the rest the central part. b(0) = 0.
    """

    __slots__ = ("config", "params", "times", "values", "increments")

    def __init__(self, config: GroupConfig, params: MCParams, increments: np.ndarray):
        values = np.vstack(
            [np.zeros((1, config.n), complex), np.cumsum(increments, axis=0)]
        )
        values.flags.writeable = False
        increments.flags.writeable = False
        self.config = config
        self.params = params
        self.times = np.linspace(0.0, params.T, params.steps + 1)
        self.values = values
        self.increments = increments

    @property
    def B(self) -> np.ndarray:
        """W-component of the path, shape (steps+1, k)."""
        return self.values[:, : self.config.k]

    @property
    def B0(self) -> np.ndarray:
        """Central component before the area correction, shape (steps+1, d)."""
        return self.values[:, self.config.k:]


class GroupPath:
    """Group-valued path: w equals the sampled B, c carries the left-point
    Ito area sum c(t) = B0(t) + (1/2) sum_i omega(B(t_i), dB_i)."""

    __slots__ = ("config", "times", "W", "C")

    def __init__(self, config: GroupConfig, times, W, C):
        W.flags.writeable = False
        C.flags.writeable = False
        self.config = config
        self.times = times
        self.W = W
        self.C = C

    def terminal(self) -> GroupElement:
        return GroupElement(self.config, self.W[-1], self.C[-1])


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Standard complex Gaussians (E|z|^2 = 2) from uniform pairs u[..., 0:2]."""
    r = np.sqrt(-2.0 * np.log1p(-u[..., 0]))  # 1-u in (0,1] avoids log(0)
    return r * np.exp(2j * np.pi * u[..., 1])


def _increment_batch(config: GroupConfig, params: MCParams, start: int, count: int) -> np.ndarray:
    """Complex increments for paths [start, start+count), shape (count, steps, n).

    Layout inside a path stream is (step, coordinate, uniform pair); the
    Box-Muller pair becomes one complex coordinate increment of total
    variance dt.
    """
    u = np.empty((count, params.steps, config.n, 2), dtype=np.float64)
    for i in range(count):
        key = np.array(
            [np.uint64(params.seed & 0xFFFFFFFFFFFFFFFF), np.uint64(start + i)],
            np.uint64,
        )
        gen = np.random.Generator(np.random.Philox(key=key))
        gen.random(out=u[i])
    return math.sqrt(params.dt / 2.0) * _box_muller(u)


def sample_path(config: GroupConfig, params: MCParams, path_index: int) -> BrownianPath:
    """The path for (seed, path_index); independent of batching and scheduling."""
    inc = _increment_batch(config, params, path_index, 1)[0]
    return BrownianPath(config, params, inc)


def group_path(config: GroupConfig, b: BrownianPath) -> GroupPath:
    k = config.k
    dW = b.increments[:, :k]
    Bprev = b.B[:-1]
    area = np.einsum("si,mij,sj->sm", Bprev, config.omega, dW)
    C = b.B0.copy()
    C[1:] += 0.5 * np.cumsum(area, axis=0)
    return GroupPath(config, b.times, b.B.copy(), C)


def _terminal_batch(config: GroupConfig, params: MCParams, start: int, count: int):
    """Terminal (W, C) of the group Brownian motion for one batch of paths."""
    inc = _increment_batch(config, params, start, count)
    k = config.k
    dW = inc[:, :, :k]
    B = np.cumsum(dW, axis=1)
    Bprev = np.concatenate([np.zeros((count, 1, k), complex), B[:, :-1]], axis=1)
    area = np.einsum("psi,mij,psj->pm", Bprev, config.omega, dW)
    W_T = B[:, -1].copy()
    C_T = inc[:, :, k:].sum(axis=1) + 0.5 * area
    return W_T, C_T


class _Kahan:
    """Compensated accumulator; works for complex and array values alike."""

    __slots__ = ("total", "comp")

    def __init__(self, zero):
        self.total = zero
        self.comp = zero * 0

    def add(self, value):
        y = value - self.comp
        t = self.total + y
        self.comp = (t - self.total) - y
        self.total = t


def _batch_ranges(paths: int):
    return [(s, min(BATCH, paths - s)) for s in range(0, paths, BATCH)]


def _estimate(sum1: complex, sum2: float, n: int) -> MCEstimate:
    mean = sum1 / n
    if n > 1:
        var = max(0.0, (sum2 - n * abs(mean) ** 2) / (n - 1))
    else:
        var = 0.0
    return MCEstimate(mean=complex(mean), stderr=math.sqrt(var / n), paths=n)


def _sample_means(params: MCParams, workers: int, batch_fn) -> list[MCEstimate]:
    """Run batch_fn(start, count) -> (count, ncols) complex samples over fixed
    batches (optionally in a thread pool), combine the column sums and
    absolute squares in batch order, and return one estimate per column."""
    ranges = _batch_ranges(params.paths)

    def partial(args):
        x = batch_fn(*args)
        return x.sum(axis=0), (np.abs(x) ** 2).sum(axis=0)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(partial, ranges))
    else:
        partials = [partial(r) for r in ranges]

    s1 = _Kahan(np.zeros_like(partials[0][0]))
    s2 = _Kahan(np.zeros_like(partials[0][1]))
    for p1, p2 in partials:
        s1.add(p1)
        s2.add(p2)
    return [_estimate(a, b, params.paths) for a, b in zip(s1.total, s2.total)]


def heat_mc(config: GroupConfig, f: Polynomial, params: MCParams, workers: int = 1) -> MCEstimate:
    """Sample mean of f(g(T)) under the group Brownian motion."""
    return heat_sweep(config, [f], params, workers)[0]


def _translate(config: GroupConfig, h: GroupElement, W: np.ndarray, C: np.ndarray):
    """h . (W, C) row-wise."""
    Wt = h.w[None, :] + W
    Ct = h.c[None, :] + C + 0.5 * np.einsum("i,mij,pj->pm", h.w, config.omega, W)
    return Wt, Ct


def skeleton_mc(
    config: GroupConfig,
    f: Polynomial,
    h: GroupElement,
    params: MCParams,
    workers: int = 1,
) -> MCEstimate:
    """Sample mean of f(h . g(T)); for holomorphic f this reproduces f(h)."""
    return skeleton_sweep(config, [(f, h)], params, workers)[0]


def heat_sweep(
    config: GroupConfig, polys: list[Polynomial], params: MCParams, workers: int = 1
) -> list[MCEstimate]:
    """heat_mc for several polynomials on one shared simulation."""

    def batch(start, count):
        W, C = _terminal_batch(config, params, start, count)
        return np.stack([f.eval_batch(W, C) for f in polys], axis=1)

    return _sample_means(params, workers, batch)


def skeleton_sweep(
    config: GroupConfig,
    cases: list[tuple[Polynomial, GroupElement]],
    params: MCParams,
    workers: int = 1,
) -> list[MCEstimate]:
    """skeleton_mc for several (f, h) cases on one shared simulation."""

    def batch(start, count):
        W, C = _terminal_batch(config, params, start, count)
        cols = []
        for f, h in cases:
            Wt, Ct = _translate(config, h, W, C)
            cols.append(f.eval_batch(Wt, Ct))
        return np.stack(cols, axis=1)

    return _sample_means(params, workers, batch)


def heat_mc_grid(
    config: GroupConfig,
    f: Polynomial,
    params: MCParams,
    stride: int = 1,
    workers: int = 1,
) -> tuple[np.ndarray, list[MCEstimate]]:
    """Sample means of f(g(t)) on the subsampled grid t = i*stride*dt.

    Feeds time-integral checks (e.g. the martingale identity) that need the
    whole marginal flow rather than the terminal value.
    """
    if params.steps % stride:
        raise ValueError("stride must divide steps")
    idx = np.arange(0, params.steps + 1, stride)

    def batch(start, count):
        inc = _increment_batch(config, params, start, count)
        k = config.k
        dW = inc[:, :, :k]
        B = np.concatenate([np.zeros((count, 1, k), complex), np.cumsum(dW, axis=1)], axis=1)
        area = np.einsum("psi,mij,psj->psm", B[:, :-1], config.omega, dW)
        C = np.concatenate(
            [np.zeros((count, 1, config.d), complex), np.cumsum(inc[:, :, k:] + 0j, axis=1)],
            axis=1,
        )
        C[:, 1:] += 0.5 * np.cumsum(area, axis=1)
        return np.stack([f.eval_batch(B[:, i], C[:, i]) for i in idx], axis=1)

    return idx * params.dt, _sample_means(params, workers, batch)


def iterated_integrals(config: GroupConfig, b: BrownianPath, nmax: int) -> list[np.ndarray]:
    """Terminal multiple Ito integrals M_1(T)..M_nmax(T) of one path.

    M_0 = 1 and M_n(t_{i+1}) = M_n(t_i) + M_{n-1}(t_i) (x) db_i, the new
    increment entering as the last tensor factor. Dense arrays of shape
    (k+d,)*n; updates run from high rank down so each uses the pre-step value.
    """
    if nmax < 1:
        raise ValueError(f"iterated_integrals requires nmax >= 1, got {nmax}")
    n = config.n
    Ms = [np.zeros((n,) * r, complex) for r in range(nmax + 1)]
    Ms[0] = np.ones((), complex)
    for s in range(b.params.steps):
        db = b.increments[s]
        for r in range(nmax, 0, -1):
            Ms[r] = Ms[r] + np.multiply.outer(Ms[r - 1], db)
    return Ms[1:]


def chaos_eval(alpha: FockTensor, b: BrownianPath) -> complex:
    """Pathwise realization sum_n <alpha_n, M_n(T)> (rank 0 included)."""
    top = alpha.nonzero_maxrank()
    total = alpha.scalar
    if top >= 1:
        Ms = iterated_integrals(alpha.config, b, top)
        for r in range(1, top + 1):
            comp = alpha.ranks[r]
            M = Ms[r - 1]
            for key, coeff in comp.items():
                total += coeff * M[key]
    return total


def _iterated_batch(inc: np.ndarray, nmax: int) -> list[np.ndarray]:
    """Batched terminal M_0..M_nmax from increments of shape (count, steps, n)."""
    count, steps, n = inc.shape
    Ms = [np.ones((count,), complex)]
    for r in range(1, nmax + 1):
        Ms.append(np.zeros((count,) + (n,) * r, complex))
    for s in range(steps):
        db = inc[:, s, :]
        for r in range(nmax, 1, -1):
            Ms[r] += np.einsum("p...,pj->p...j", Ms[r - 1], db)
        Ms[1] += db
    return Ms


def _pair_batch(alpha: FockTensor, Ms: list[np.ndarray]) -> np.ndarray:
    out = np.full(Ms[0].shape[0], alpha.scalar, dtype=complex)
    for r in range(1, alpha.maxrank + 1):
        comp = alpha.ranks[r]
        if not comp:
            continue
        M = Ms[r]
        for key, coeff in comp.items():
            out += coeff * M[(slice(None),) + key]
    return out


def chaos_isometry_mc(
    config: GroupConfig,
    alphas: list[FockTensor],
    params: MCParams,
    workers: int = 1,
):
    """MC moments of the pairings X_i = <alpha_i, M(T)> on shared paths.

    Returns (estimates, cov, cross_stderr): per-tensor MCEstimates of
    |X_i|^2, plus the sample means of X_i conj(X_j) and their sample standard
    errors, for testing cross-rank orthogonality.
    """
    L = len(alphas)
    nmax = max(max(a.nonzero_maxrank() for a in alphas), 1)

    def batch(start, count):
        Ms = _iterated_batch(_increment_batch(config, params, start, count), nmax)
        x = np.stack([_pair_batch(a, Ms) for a in alphas], axis=1)
        return (x[:, :, None] * x.conj()[:, None, :]).reshape(count, L * L)

    ests = _sample_means(params, workers, batch)
    cov = np.array([e.mean for e in ests]).reshape(L, L)
    cross_stderr = np.array([e.stderr for e in ests]).reshape(L, L)
    return ests[:: L + 1], cov, cross_stderr


def chaos_residual(
    config: GroupConfig, f: Polynomial, params: MCParams, workers: int = 1
) -> MCEstimate:
    """Mean-square gap E|f(g(T)) - sum_n <alpha_n, M_n(T)>|^2 with both terms
    on the same path. Vanishes at O(dt) as the grid refines."""
    alpha = taylor(f)
    nmax = max(alpha.nonzero_maxrank(), 2)
    k = config.k

    def batch(start, count):
        Ms = _iterated_batch(_increment_batch(config, params, start, count), nmax)
        # the area sum is the antisymmetric omega-contraction of M_2
        area = np.einsum("mij,pij->pm", config.omega, Ms[2][:, :k, :k])
        direct = f.eval_batch(Ms[1][:, :k], Ms[1][:, k:] + 0.5 * area)
        paired = _pair_batch(alpha, Ms)
        return (np.abs(direct - paired) ** 2).astype(complex)[:, None]

    return _sample_means(params, workers, batch)[0]


def lp_norm_mc(
    config: GroupConfig, f: Polynomial, p: float, params: MCParams, workers: int = 1
) -> MCEstimate:
    """Sample mean of |f(g(T))|^p; the p-th root of the mean is the norm."""
    if p <= 0:
        raise ValueError("p must be positive")

    def batch(start, count):
        W, C = _terminal_batch(config, params, start, count)
        return (np.abs(f.eval_batch(W, C)) ** p).astype(complex)[:, None]

    return _sample_means(params, workers, batch)[0]


def gaussian_moment_check(
    config: GroupConfig, phi: np.ndarray, params: MCParams, workers: int = 1
) -> list[dict]:
    """Moment identities for the linear functional phi(B) = sum_j phi_j B_j(T).

    Targets under the sampler's variance convention: E[e^phi] = 1,
    E|Re phi|^2 = E|Im phi|^2 = (T/2) sum|phi_j|^2, E|phi|^2 = T sum|phi_j|^2.
    Returns one row per moment with estimate, stderr, target, and 3-sigma pass.
    """
    phi = np.asarray(phi, dtype=complex).reshape(config.k)
    norm_sq = float(np.sum(np.abs(phi) ** 2))
    T = params.T

    def batch(start, count):
        inc = _increment_batch(config, params, start, count)
        B_T = inc[:, :, : config.k].sum(axis=1)
        val = B_T @ phi
        return np.stack(
            [np.exp(val), (val.real**2).astype(complex), (val.imag**2).astype(complex),
             (np.abs(val) ** 2).astype(complex)],
            axis=1,
        )

    names = ["exp_mean", "re_sq", "im_sq", "abs_sq"]
    targets = [1.0, T * norm_sq / 2.0, T * norm_sq / 2.0, T * norm_sq]
    rows = []
    for name, target, est in zip(names, targets, _sample_means(params, workers, batch)):
        rows.append(
            {
                "moment": name,
                "target": target,
                "estimate": est.mean,
                "stderr": est.stderr,
                "pass": est.within(target),
            }
        )
    return rows
