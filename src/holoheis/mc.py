"""Complex Brownian motion on the algebra, the group-valued Brownian motion,
heat-kernel Monte Carlo, skeleton averages, multiple Ito integrals, and chaos
reconstruction.

Normalization: over a grid step dt each complex coordinate increment has
independent real and imaginary parts of variance dt/2, so E|dZ|^2 = dt. All
exact targets elsewhere in the package are derived under this convention.

Sampling: path i's increments are numpy's ziggurat normals
(Generator.standard_normal) drawn from a fresh counter-based
Philox(key=(seed, i)) stream, in (step, coordinate, Re/Im) order, scaled by
sqrt(dt/2). A batch re-keys one bit generator per path from a state dict of
Python ints, which numpy's state setter reads faster than uint64 arrays: that
setter is the Python work each path does while holding the GIL. Batches of
short paths (fewer than SHORT_NORMALS normals each) are drawn by one thread
at a time: their fills are too brief to overlap, and two threads drawing
them at once are slower than one, while the other thread can evaluate or pair
a batch it has already drawn. No bit depends on either.

Working set: the reducer hands each batch to its estimator in chunks of at
most CHUNK_STEPS path-steps and joins their samples, so a worker holds one
chunk's buffers at a time. Beside its increments a chunk holds: for the
terminal estimators, the cumulative sum of dW (a k/n share of the
increments), from which `_terminal` forms the terminal value in closed form
(the discrete Levy area); for `heat_mc_grid`, O(paths x BLOCK) of group
path, built BLOCK steps at a time and evaluated on column views of each
block, and its (times, paths) sample array; for the chaos estimators, one
(paths, steps+1) left-point path per open prefix of the `_pairings` walk. No
whole-grid W, C or evaluation array exists. A traced 512-path
`chaos_residual` batch of a rank-3 polynomial peaks at 5.5 MB at 512 and at
1024 steps; as one chunk it peaked at 21.3 and 42.2 MB.

Reproducibility contract: every path is a pure function of (seed, path_index)
through its own Philox stream, and reductions combine fixed-size
batches of BATCH = 512 paths in index order with Kahan compensation, so
results are bit-identical for any worker count and any chunk length. Every estimator hands the
reducer one contiguous row of samples per estimate, so an estimate's bits do
not depend on what is estimated beside it: a sweep column equals the lone
estimator on the same inputs.
"""

from __future__ import annotations

import contextlib
import math
import threading
from dataclasses import dataclass

import numpy as np

from .group import GroupConfig, GroupElement, _check_count, _check_group, _check_seed, _check_time
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
# 512 paths split a 2048-path call into four batches, so a two-worker pool
# has work for both threads.
BATCH = 512

# Path-steps per chunk. `_sample_means` hands each batch to its estimator in
# chunks of at most CHUNK_STEPS // steps paths (at least one), so a worker
# holds one chunk's increments and paths at a time: 1 MiB per coordinate,
# 3.1 MB at n = 3, where a whole 512-path batch at 512 steps holds 12.6 MB.
# Calls of up to 128 steps are one chunk per batch. The chunk length never
# changes a result.
CHUNK_STEPS = 2**16

# Steps per block of the group-path builder, `_path_blocks`, which
# `heat_mc_grid` and `group_path` read. A chunk's group path exists one
# block at a time, so beside its increments it holds O(paths x BLOCK) more
# memory, whatever the number of steps. The block length never changes a
# result; a longer block makes fewer, larger numpy calls and holds more
# memory.
BLOCK = 32

# A path of fewer normals than this (2 x steps x n) is short, and a batch of
# short paths is drawn holding _SHORT_DRAW, so one thread at a time draws
# them. Each path's standard_normal fill releases the GIL and must take it
# back; when fills are short, two samplers keep waking each other. Two
# threads over one, same work, unlocked, on a 2-vCPU host (n = 3): x0.7-1.0
# at 64 steps (384 normals), x0.9 at 72 (432), x1.3 at 80 (480) and x1.6-1.9
# from 96 steps (576) on; n = 6 at 64 steps (768) x1.7. Longer paths thus run
# unlocked, where their fills overlap. The rule never changes a result.
SHORT_NORMALS = 480

_SHORT_DRAW = threading.Lock()


@dataclass(frozen=True)
class MCParams:
    T: float
    steps: int
    paths: int
    seed: int

    def __post_init__(self):
        _check_time("MCParams", self.T)
        _check_count("MCParams: steps", self.steps)
        _check_count("MCParams: paths", self.paths)
        _check_seed("MCParams: seed", self.seed)

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

    __slots__ = ("params", "times", "values", "increments")

    def __init__(self, config: GroupConfig, params: MCParams, increments: np.ndarray):
        values = np.vstack(
            [np.zeros((1, config.n), complex), np.cumsum(increments, axis=0)]
        )
        values.flags.writeable = False
        increments.flags.writeable = False
        self.params = params
        self.times = np.linspace(0.0, params.T, params.steps + 1)
        self.values = values
        self.increments = increments


class GroupPath:
    """Group-valued path: w equals the sampled B, c carries the left-point
    Ito area sum, c(t_j) = sum_{i<j} (dB0_i + (1/2) omega(B(t_i), dB_i))."""

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


def _check_path(config: GroupConfig, b: BrownianPath) -> None:
    """Fail by name on a sampled path whose coordinate count is not config.n;
    a path does not depend on omega, so this is all it can be checked for."""
    n = b.values.shape[1]
    if n != config.n:
        raise ValueError(f"the path has {n} coordinates, {config!r} has {config.n}")


def _increment_batch(config: GroupConfig, params: MCParams, start: int, count: int) -> np.ndarray:
    """Complex increments for paths [start, start+count), shape (count, steps, n).

    Path i fills its (step, coordinate, Re/Im) normals with numpy's ziggurat
    `standard_normal`, drawn from the Philox stream keyed (seed, i), and every
    normal is scaled by sqrt(dt/2), so each complex coordinate increment has
    total variance dt. One bit generator serves the batch: before each path
    its state is set to that of a fresh Philox(key=(seed, i)) (counter 0,
    empty buffer), so the variable number of draws a ziggurat takes cannot
    leak from one path into the next, every path's stream is the same however
    the paths are batched, and no seed material is built per path. The state
    holds Python ints and tuples, not uint64 arrays: numpy's setter reads
    each element of an array as a numpy scalar, which made it 1.5 to 3 times
    slower per path. Paths of fewer than SHORT_NORMALS normals are drawn
    holding _SHORT_DRAW (see there).
    """
    z = np.empty((count, params.steps, config.n), complex)
    normals = z.view(np.float64).reshape(count, params.steps, config.n, 2)
    key = [params.seed, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    bitgen = np.random.Philox(0)  # seeded only to skip OS entropy; reset below
    gen = np.random.Generator(bitgen)
    short = 2 * params.steps * config.n < SHORT_NORMALS
    with _SHORT_DRAW if short else contextlib.nullcontext():
        for i in range(count):
            key[1] = start + i
            bitgen.state = state
            gen.standard_normal(out=normals[i])
    normals *= math.sqrt(params.dt / 2.0)
    return z


def sample_path(config: GroupConfig, params: MCParams, path_index: int) -> BrownianPath:
    """The path for (seed, path_index); independent of batching and scheduling."""
    inc = _increment_batch(config, params, path_index, 1)[0]
    return BrownianPath(config, params, inc)


def _path_blocks(config: GroupConfig, inc: np.ndarray):
    """The group Brownian paths of a batch of increments of shape
    (count, steps, n), yielded in blocks of at most BLOCK steps.

    Each block is (s, W, C) with W of shape (count, b+1, k) and C of shape
    (count, b+1, d): column i holds the path at grid time s+i, so column 0
    repeats the last column of the previous block (the exact zero at s = 0).

    The path is the left product of its increments under the group law,
    g(t_{s+1}) = g(t_s) . (dW_s, dC_s), so W is the cumulative sum of dW and
    C the cumulative sum of dC_s + (1/2) omega(W_s, dW_s). Each cumulative
    sum starts from the carried column, so a block equals the same steps of
    a one-shot cumulative sum over the whole grid bit for bit. The area term
    takes one stacked matrix product per Omega_m and block; each stacked
    matrix holds all b+1 grid times of up to 8 paths. Never one row: a
    one-row product takes another BLAS kernel, whose rounding would make C
    depend on the block length. Never many thousands: BLAS would spread the
    product over threads, which costs milliseconds a call. Every estimator
    that reads the group path builds it here.
    """
    count, steps, _ = inc.shape
    k, d = config.k, config.d
    group = math.gcd(count, 8)
    W = np.zeros((count, 1, k), complex)
    C = np.zeros((count, 1, d), complex)
    for s in range(0, steps, BLOCK):
        b = min(BLOCK, steps - s)
        dW = inc[:, s:s + b, :k]
        W_next = np.empty((count, b + 1, k), complex)
        W_next[:, 0] = W[:, -1]
        W_next[:, 1:] = dW
        np.cumsum(W_next, axis=1, out=W_next)
        C_next = np.empty((count, b + 1, d), complex)
        C_next[:, 0] = C[:, -1]
        dC = C_next[:, 1:]
        dC[...] = inc[:, s:s + b, k:]
        stacked = W_next.reshape(count // group, group * (b + 1), k)
        for m, om in enumerate(config.omega):
            left = (stacked @ om).reshape(W_next.shape)[:, :-1]
            dC[:, :, m] += 0.5 * np.einsum("psj,psj->ps", left, dW)
        np.cumsum(C_next, axis=1, out=C_next)
        W, C = W_next, C_next
        yield s, W, C


def _group_paths(config: GroupConfig, inc: np.ndarray):
    """Group Brownian paths on the whole grid from a batch of increments of
    shape (count, steps, n): W of shape (count, steps+1, k) and C of shape
    (count, steps+1, d), each with an exact zero at t = 0. The blocks of
    `_path_blocks` joined, for `group_path` and as a reference in tests."""
    blocks = [(W[:, 1:], C[:, 1:]) if s else (W, C) for s, W, C in _path_blocks(config, inc)]
    W = np.concatenate([w for w, _ in blocks], axis=1)
    C = np.concatenate([c for _, c in blocks], axis=1)
    return W, C


def group_path(config: GroupConfig, b: BrownianPath) -> GroupPath:
    """The group-valued path of one sampled path, on its whole grid."""
    _check_path(config, b)
    W, C = _group_paths(config, b.increments[None])
    return GroupPath(config, b.times, W[0], C[0])


def _terminal(config: GroupConfig, inc: np.ndarray):
    """Terminal (W, C) of the group paths of a batch of increments of shape
    (count, steps, n), in closed form.

    W(T) is the last column of one cumulative sum of dW, the bits of
    `_path_blocks`. C(T) is the discrete Levy area,
    C_m(T) = sum_s dC_{s,m} + (1/2) <Omega_m, A>, A = sum_s W(t_s) dW_s^T,
    where A takes one stacked matrix product, (k, steps-1) by (steps-1, k)
    per path, whose shapes do not depend on the count, so a path's terminal
    value does not depend on the batch it is built in. C moves from the
    cumulative sum of `_path_blocks` in the last bits only.
    """
    count, steps, _ = inc.shape
    k = config.k
    dW = inc[:, :, :k]
    W = np.cumsum(dW, axis=1)
    # left points W(t_1)..W(t_{steps-1}) against dW_1..dW_{steps-1}; W(t_0) = 0
    A = W[:, :-1].transpose(0, 2, 1) @ dW[:, 1:]
    A = A.reshape(count, k * k)
    C = inc[:, :, k:].sum(axis=1)
    for m, om in enumerate(config.omega):
        C[:, m] += 0.5 * (A * om.ravel()).sum(axis=1)
    return W[:, -1].copy(), C


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
    """Run batch_fn(start, count) -> (ncols, count) complex samples over fixed
    batches (optionally in a thread pool), combine the row sums and absolute
    squares in batch order, and return one estimate per row. Each row is
    summed as one contiguous run, so its estimate does not depend on the
    other rows. Every estimator passes its `workers` here to be checked.

    batch_fn is called once per chunk of a batch, on at most
    CHUNK_STEPS // steps paths (at least one), and the chunks' columns are
    joined into the batch's samples before its sums, so only one chunk's
    increments and paths are alive per worker; every sample is a function
    of its own path, so the chunk length never changes a result."""
    _check_count("workers", workers)
    ranges = _batch_ranges(params.paths)
    per = max(1, CHUNK_STEPS // params.steps)

    def partial(args):
        start, count = args
        x = batch_fn(start, min(per, count))
        if per < count:
            # joined in the chunks' memory order: numpy sums a row pairwise
            # where the row is contiguous and one path after another where
            # it is not, so the order must not change with the chunk length
            order = "F" if x.strides[0] < x.strides[1] else "C"
            first, x = x, np.empty((len(x), count), complex, order=order)
            x[:, :per] = first
            for s in range(per, count, per):
                x[:, s:s + per] = batch_fn(start + s, min(per, count - s))
        return x.sum(axis=1), (np.abs(x) ** 2).sum(axis=1)

    if workers > 1:
        # imported here: it pulls in logging, queue and traceback, which a
        # serial run and `import holoheis` do without
        from concurrent.futures import ThreadPoolExecutor

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
    """heat_mc for several polynomials on one shared simulation, bit for bit:
    the skeleton sweep at the identity, whose translation adds exact zeros."""
    e = config.identity()
    return skeleton_sweep(config, [(f, e) for f in polys], params, workers)


def skeleton_sweep(
    config: GroupConfig,
    cases: list[tuple[Polynomial, GroupElement]],
    params: MCParams,
    workers: int = 1,
) -> list[MCEstimate]:
    """skeleton_mc for several (f, h) cases on one shared simulation, bit for bit."""
    for f, h in cases:
        _check_group(config, f, h)

    # the cases at each distinct point (by identity), translated once a batch
    rows: dict[int, tuple[GroupElement, list]] = {}
    for row, (f, h) in enumerate(cases):
        rows.setdefault(id(h), (h, []))[1].append((row, f))

    def batch(start, count):
        W, C = _terminal(config, _increment_batch(config, params, start, count))
        out = np.empty((len(cases), count), complex)
        for h, fs in rows.values():
            moved = _translate(config, h, W, C)
            for row, f in fs:
                out[row] = f.eval_batch(*moved)
        return out

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
    _check_group(config, f)
    _check_count("stride", stride)
    if params.steps % stride:
        raise ValueError(f"stride must divide steps, got stride={stride} and steps={params.steps}")
    idx = np.arange(0, params.steps + 1, stride)

    def batch(start, count):
        # each block evaluates f once, on the grid times it owns, and writes
        # the values straight into the time-major sample array
        out = np.empty((len(idx), count), complex)
        for s, W, C in _path_blocks(config, _increment_batch(config, params, start, count)):
            # the block owns grid times s+1..s+b, and 0 if it is the first
            first = s // stride + 1 if s else 0
            rows = slice(first * stride - s, None, stride)
            W, C = W[:, rows], C[:, rows]
            times = W.shape[1]
            values = f.eval_batch(W.reshape(-1, config.k), C.reshape(-1, config.d))
            out[first:first + times] = values.reshape(count, times).T
        return out

    return idx * params.dt, _sample_means(params, workers, batch)


def iterated_integrals(config: GroupConfig, b: BrownianPath, nmax: int) -> list[np.ndarray]:
    """Terminal multiple Ito integrals M_1(T)..M_nmax(T) of one path.

    M_0 = 1 and M_n(t_{i+1}) = M_n(t_i) + M_{n-1}(t_i) (x) db_i, the new
    increment entering as the last tensor factor. Dense arrays of shape
    (k+d,)*n; updates run from high rank down so each uses the pre-step value.
    """
    _check_path(config, b)
    _check_count("nmax", nmax)
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
    _check_path(alpha.config, b)
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


def _pairings(alphas: list[FockTensor], inc: np.ndarray) -> np.ndarray:
    """Pairings X_c = sum_n <alpha_c, M_n(T)> for a batch of increments of
    shape (count, steps, n); returns shape (count, len(alphas)).

    Only the entries of M_n that some tensor keys are formed. The walk visits
    the distinct key prefixes depth first, siblings in order of first
    appearance. A prefix (i1..im) that the next prefix of the walk extends
    carries its left-point path
    I(t_s) = sum_{s1<...<sm<s} db_{s1,i1}...db_{sm,im}, the exclusive
    cumulative sum over steps of I_parent * db[:, :, im], kept on a list
    while its descendants are walked; any other prefix needs only I(T), a
    sum over steps. The work thus follows the support of the tensors, one
    pass over the steps per distinct prefix, instead of the n + n^2 + ...
    dense entries of every rank per step that `iterated_integrals` updates.
    """
    count, steps, _ = inc.shape
    out = np.empty((count, len(alphas)), complex)
    first = {}  # prefix -> order of first appearance
    leaves = {}  # key -> [(column, coeff)]
    for col, alpha in enumerate(alphas):
        out[:, col] = alpha.scalar
        for comp in alpha.ranks[1:]:
            for key, coeff in comp.items():
                for r in range(1, len(key) + 1):
                    first.setdefault(key[:r], len(first))
                leaves.setdefault(key, []).append((col, coeff))
    walk = sorted(first, key=lambda p: [first[p[:r]] for r in range(1, len(p) + 1)])
    paths = []  # left-point paths of the ancestors, shape (count, steps)
    for j, p in enumerate(walk):
        del paths[len(p) - 1:]
        prev = paths[-1] if paths else None
        db = inc[:, :, p[-1]]
        extended = j + 1 < len(walk) and walk[j + 1][:len(p)] == p
        if extended:
            path = np.empty((count, steps + 1), complex)
            path[:, 0] = 0.0
            if prev is None:
                np.cumsum(db, axis=1, out=path[:, 1:])
            else:
                np.multiply(prev, db, out=path[:, 1:])
                np.cumsum(path[:, 1:], axis=1, out=path[:, 1:])
            terminal = path[:, -1]
            paths.append(path[:, :-1])
        elif prev is None:
            terminal = db.sum(axis=1)
        else:
            terminal = np.einsum("ps,ps->p", prev, db)
        for col, coeff in leaves.get(p, ()):
            out[:, col] += coeff * terminal
        # a path the walk has left must not outlive it in a loop variable
        # while the next prefix allocates its own
        path = terminal = prev = None
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
    _check_group(config, *alphas)
    L = len(alphas)

    def batch(start, count):
        # the products path by path, handed over as an (L*L, count) view:
        # its rows are strided, so each is summed one path after another,
        # however many paths the chunk holds
        x = _pairings(alphas, _increment_batch(config, params, start, count))
        return (x[:, :, None] * x.conj()[:, None, :]).reshape(count, L * L).T

    ests = _sample_means(params, workers, batch)
    cov = np.array([e.mean for e in ests]).reshape(L, L)
    cross_stderr = np.array([e.stderr for e in ests]).reshape(L, L)
    return ests[:: L + 1], cov, cross_stderr


def chaos_residual(
    config: GroupConfig, f: Polynomial, params: MCParams, workers: int = 1
) -> MCEstimate:
    """Mean-square gap E|f(g(T)) - sum_n <alpha_n, M_n(T)>|^2 with both terms
    on the same path. Vanishes at O(dt) as the grid refines."""
    _check_group(config, f)
    alpha = taylor(f)

    def batch(start, count):
        inc = _increment_batch(config, params, start, count)
        # pairings first: their temporaries are freed before the paths exist
        paired = _pairings([alpha], inc)[:, 0]
        direct = f.eval_batch(*_terminal(config, inc))
        return (np.abs(direct - paired) ** 2).astype(complex)[None]

    return _sample_means(params, workers, batch)[0]


def lp_norm_mc(
    config: GroupConfig, f: Polynomial, p: float, params: MCParams, workers: int = 1
) -> MCEstimate:
    """Sample mean of |f(g(T))|^p; the p-th root of the mean is the norm."""
    _check_group(config, f)
    if not (math.isfinite(p) and p > 0):
        raise ValueError(f"p must be finite and positive, got {p!r}")

    def batch(start, count):
        W, C = _terminal(config, _increment_batch(config, params, start, count))
        return (np.abs(f.eval_batch(W, C)) ** p).astype(complex)[None]

    return _sample_means(params, workers, batch)[0]


def gaussian_moment_check(
    config: GroupConfig, phi: np.ndarray, params: MCParams, workers: int = 1
) -> list[dict]:
    """Moment identities for the linear functional phi(B) = sum_j phi_j B_j(T).

    Targets under the sampler's variance convention: E[e^phi] = 1,
    E|Re phi|^2 = E|Im phi|^2 = (T/2) sum|phi_j|^2, E|phi|^2 = T sum|phi_j|^2.
    Returns one row per moment with estimate, stderr, target, and 3-sigma pass.
    """
    if np.size(phi) != config.k:
        raise ValueError(f"phi must hold k = {config.k} coefficients, got {np.size(phi)}")
    phi = np.asarray(phi, dtype=complex).reshape(config.k)
    norm_sq = float(np.sum(np.abs(phi) ** 2))
    T = params.T

    def batch(start, count):
        inc = _increment_batch(config, params, start, count)
        B_T = inc[:, :, : config.k].sum(axis=1)
        # coordinate by coordinate, not B_T @ phi: BLAS rounds a row of a
        # matrix-vector product differently with the number of rows
        val = B_T[:, 0] * phi[0]
        for j in range(1, config.k):
            val += B_T[:, j] * phi[j]
        return np.stack(
            [np.exp(val), (val.real**2).astype(complex), (val.imag**2).astype(complex),
             (np.abs(val) ** 2).astype(complex)]
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
