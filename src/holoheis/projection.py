"""Orthogonal projections of the horizontal space, the induced map on the
group, and the pullback of Taylor coefficients through it.

pi_P(w, c) = (Pw, c) is not a homomorphism; its multiplicativity defect is
central and exactly gamma_defect. Composing a holomorphic function with pi_P
stays holomorphic because P is complex-linear, and the derivative tensors of
the composite are reachable two independent ways: substitute-then-expand, or
the kappa recursion pairing against the original coefficients. pullback_taylor
computes both and insists they agree.
"""

from __future__ import annotations

import itertools

import numpy as np

from .group import GroupConfig, GroupElement, _check_group, _check_time, _is_int
from .poly import (
    CLEANUP_TOL,
    Polynomial,
    _basis_kernels,
    _clean_terms,
    _halves,
    _one_sided,
    _unit_constant,
)
from .fock import FockTensor, fock_norm_sq, taylor

__all__ = [
    "Projection",
    "pi_p",
    "gamma_defect",
    "k_p",
    "compose_with_projection",
    "kappa",
    "pullback_taylor",
    "projection_convergence",
]

GRAM_TOL = 1e-12

# pullback_taylor cross-checks route b against route a on every tuple of rank
# <= 4 when that set is small, otherwise on this many deterministically chosen
# tuples; beyond that the recursion cost grows geometrically for no extra
# confidence.
CHECK_RANK_CAP = 4
CHECK_TUPLE_BUDGET = 2500
CHECK_SAMPLE = 200


class Projection:
    """Orthogonal projection onto the span of orthonormal rows in C^k."""

    __slots__ = ("config", "rows", "matrix", "dim")

    def __init__(self, config: GroupConfig, rows):
        rows = np.array(rows, dtype=complex)
        if rows.ndim != 2 or rows.shape[1] != config.k or not 1 <= rows.shape[0] <= config.k:
            raise ValueError(
                f"projection rows must form an (r, k) matrix with 1 <= r <= {config.k}, "
                f"got shape {rows.shape}"
            )
        gram = rows @ rows.conj().T
        gap = np.max(np.abs(gram - np.eye(rows.shape[0])))
        if gap > GRAM_TOL:
            raise ValueError(f"projection rows are not orthonormal (gram defect {gap:.2e})")
        rows.flags.writeable = False
        matrix = rows.T @ rows.conj()
        matrix.flags.writeable = False
        self.config = config
        self.rows = rows
        self.matrix = matrix
        self.dim = rows.shape[0]

    @classmethod
    def coordinate(cls, config: GroupConfig, indices) -> "Projection":
        """Span of the coordinate axes e_i for the given 0-based indices."""
        idx = list(indices)
        rows = np.zeros((len(idx), config.k), complex)
        for r, i in enumerate(idx):
            if not _is_int(i) or not 0 <= i < config.k:
                raise ValueError(
                    f"projection index must be an integer in [0, {config.k}), got {i!r}"
                )
            rows[r, i] = 1.0
        return cls(config, rows)

    def is_identity(self) -> bool:
        return self.dim == self.config.k

    def apply(self, w: np.ndarray) -> np.ndarray:
        return self.matrix @ w

    def __repr__(self) -> str:
        return f"Projection(dim={self.dim}, k={self.config.k})"


def pi_p(proj: Projection, g: GroupElement) -> GroupElement:
    """(w, c) -> (Pw, c)."""
    _check_group(proj.config, g)
    return GroupElement(proj.config, proj.apply(g.w), g.c.copy())


def gamma_defect(proj: Projection, w: np.ndarray, wp: np.ndarray) -> np.ndarray:
    """Central defect: pi_P(g1 g2) = pi_P(g1) pi_P(g2) . (0, gamma(w1, w2))."""
    cfg = proj.config
    return 0.5 * (cfg.omega_form(w, wp) - cfg.omega_form(proj.apply(w), proj.apply(wp)))


def k_p(proj: Projection, h: GroupElement, at: GroupElement) -> GroupElement:
    """Pushforward of the left-invariant direction h under pi_P at the point
    `at`: the direction (B, b) with (B~ f)(pi_P(at)) = (h~ (f o pi_P))(at).

    B = PA and b = a + (omega(w, A) - omega(Pw, PA))/2, with w the base point's
    horizontal part; the central shift is what keeps the field left-invariant
    on the image side.
    """
    _check_group(proj.config, h, at)
    return GroupElement(proj.config, proj.apply(h.w), h.c + gamma_defect(proj, at.w, h.w))


def compose_with_projection(proj: Projection, f: Polynomial) -> Polynomial:
    """The polynomial (f o pi_P)(w, c) = f(Pw, c).

    w_i is replaced by the i-th coordinate of Pw and wbar_i by its conjugate;
    central variables pass through. Identity projections return f itself.
    """
    _check_group(proj.config, f)
    if proj.is_identity():
        return f
    cfg = proj.config
    k, n = cfg.k, cfg.n
    P = proj.matrix
    images = []
    for i in range(k):
        img = Polynomial.zero(cfg)
        for l in range(k):
            if P[i, l] != 0:
                img = img + P[i, l] * Polynomial.coordinate(cfg, l)
        images.append(img)
    out = Polynomial.zero(cfg)
    for key, coeff in f.terms.items():
        term = Polynomial.constant(cfg, coeff)
        for i in range(k):
            if key[i]:
                term = term * images[i] ** key[i]
            if key[n + i]:
                term = term * images[i].conj() ** key[n + i]
        for m in range(cfg.d):
            if key[k + m]:
                term = term * Polynomial.coordinate(cfg, k + m) ** key[k + m]
            if key[n + k + m]:
                term = term * Polynomial.coordinate(cfg, n + k + m) ** key[n + k + m]
        out = out + term
    return out


def _direction_coefficients(
    proj: Projection, h: GroupElement
) -> list[tuple[int, complex, list[tuple[int, complex]]]]:
    """The pushed direction as basis components (l, const, linear), each with
    the coefficient const + sum_i s_i w_i over the pairs (i, s_i) in linear.

    Horizontal components of PA are constants (empty linear); each central
    component is a_m plus a w-linear part that carries
    (Omega_m - P^T Omega_m P)A / 2. Expressing the central shift in the source
    variable w (not Pw) is what lets the kappa recursion differentiate it again.
    Parts at or below CLEANUP_TOL are dropped, as they would be from a
    polynomial.
    """
    cfg = proj.config
    k = cfg.k
    B = proj.apply(h.w)
    out = [(l, complex(B[l]), []) for l in range(k) if abs(B[l]) > CLEANUP_TOL]
    for m in range(cfg.d):
        co = 0.5 * (cfg.omega[m] @ h.w - proj.matrix.T @ (cfg.omega[m] @ B))
        const = complex(h.c[m]) if abs(h.c[m]) > CLEANUP_TOL else 0j
        linear = [(i, complex(co[i])) for i in range(k) if abs(co[i]) > CLEANUP_TOL]
        if const or linear:
            out.append((k + m, const, linear))
    return out


def _kappa_step(state: dict[tuple, dict], hol: tuple, comps: list) -> dict[tuple, dict]:
    """One step of the kappa recursion along the raw direction h, given by the
    kernel arguments hol = _halves(h)[0] of its holomorphic half and its
    pushed components comps = _direction_coefficients(proj, h).

    A state maps index tuples to holomorphic term dicts, so D_h is the whole
    derivative of each entry. Each entry gets D_h of its own terms plus, for
    each component l, the product of that coefficient with the entry at its
    suffix. Returns a new state; the given one is left as it is.
    """
    new: dict[tuple, dict] = {}
    for key, terms in state.items():
        _one_sided(terms, 0, *hol, new.setdefault(key, {}))
        for l, const, linear in comps:
            out = new.setdefault((l,) + key, {})
            for mono, z in terms.items():
                if const:
                    out[mono] = out.get(mono, 0j) + const * z
                for i, s in linear:
                    bumped = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
                    out[bumped] = out.get(bumped, 0j) + s * z
    return {key: kept for key, terms in new.items() if (kept := _clean_terms(terms))}


def kappa(proj: Projection, directions: list[GroupElement]) -> FockTensor:
    """The pairing tensor for an iterated derivative of f o pi_P.

    directions lists k_1..k_n with k_1 applied first (innermost). The state is
    a tuple-indexed family of holomorphic w-polynomials, kept as term dicts;
    each step (`_kappa_step`) either extends a tuple on the left with a
    component of the pushed direction or differentiates a coefficient along
    the raw direction. So the state after m steps depends only on k_1..k_m,
    and pullback_taylor shares it between checked tuples with a common
    suffix. Every step here is taken in full; the tensor holds each tuple's
    constant term. Evaluated at the identity, the result pairs linearly with
    taylor(f):

        (h~_1 ... h~_n (f o pi_P))(e) = sum_u kappa[u] * taylor(f)[u],

    where the derivative order maps to directions by k_j = h_{n+1-j}.
    """
    cfg = proj.config
    _check_group(cfg, *directions)
    zero = Polynomial._zero_key(cfg)
    state: dict[tuple, dict] = {(): {zero: 1 + 0j}}
    for h in directions:
        state = _kappa_step(state, _halves(h)[0], _direction_coefficients(proj, h))
    ranks: list[dict] = [{} for _ in range(len(directions) + 1)]
    for key, terms in state.items():
        if zero in terms:
            ranks[len(key)][key] = terms[zero]
    return FockTensor(cfg, ranks)


def _check_tuples(cfg: GroupConfig, maxrank: int) -> list[tuple]:
    """Deterministic tuple set for the route agreement check: every tuple of
    rank 1..cap, rank by rank in lexicographic order, or a sorted sample."""
    n = cfg.n
    cap = min(maxrank, CHECK_RANK_CAP)
    total = sum(n**r for r in range(1, cap + 1))
    if total <= CHECK_TUPLE_BUDGET:
        return [t for r in range(1, cap + 1) for t in itertools.product(range(n), repeat=r)]
    out = []
    rng = np.random.default_rng(0)
    for _ in range(CHECK_SAMPLE):
        r = int(rng.integers(1, cap + 1))
        out.append(tuple(int(i) for i in rng.integers(0, n, size=r)))
    return sorted(set(out))


def _last_constants(
    state: dict[tuple, dict], units: list, comps: list, zero: tuple
) -> dict[tuple, complex]:
    """The constant terms of `_kappa_step(state, hol, comps)`, read off the
    given state without building the step; units = _constant_units(hol) and
    zero is the exponent key of the monomial 1.

    Entry K gets the constant `_unit_constant` reads off its own terms. A
    component (l, const, linear) gives entry (l,) + K the constant const * [1]
    of entry K; its linear part never yields a constant. Keys are touched in
    the order the step touches them and constants at or below CLEANUP_TOL are
    dropped as the step drops them, so a rank-by-rank pairing sums in the
    order of kappa's tensor.
    """
    out: dict[tuple, complex] = {}
    for key, terms in state.items():
        out[key] = _unit_constant(terms, units, out.get(key, 0j))
        one = terms.get(zero, 0j)
        for l, const, _ in comps:
            ext = (l,) + key
            out[ext] = out.get(ext, 0j) + const * one
    return {key: z for key, z in out.items() if abs(z) > CLEANUP_TOL}


def _route_b(proj: Projection, alpha: FockTensor, tuples: list[tuple], kernels=None):
    """Yield (t, route-b value of the Taylor entry of f o pi_P at t) for each
    tuple, where alpha = taylor(f); kernels is `_basis_kernels(proj.config)`,
    built here when not given.

    The kappa state of t is one step along t[0] from the state of its proper
    suffix t[1:]. Missing suffix states are built shortest first and kept for
    this call only. Only the constant terms of t's own state are paired, so
    they are read off the suffix state in closed form (`_last_constants`)
    and t's state is never built.
    """
    cfg = proj.config
    hols, units = kernels or _basis_kernels(cfg)
    comps = [_direction_coefficients(proj, h) for h in cfg.basis()]
    zero = Polynomial._zero_key(cfg)
    suffixes: dict[tuple, dict] = {(): {(): {zero: 1 + 0j}}}
    for t in tuples:
        for j in range(len(t) - 1, 0, -1):
            s = t[j:]
            if s not in suffixes:
                suffixes[s] = _kappa_step(suffixes[s[1:]], hols[s[0]], comps[s[0]])
        consts = _last_constants(suffixes[t[1:]], units[t[0]], comps[t[0]], zero)
        # rank by rank in state order, as the pairing of kappa's tensor runs
        value = 0j
        for key in sorted(consts, key=len):
            if key:
                value += consts[key] * alpha.entry(key)
        yield t, value


def _checked_pullback(
    proj: Projection,
    f: Polynomial,
    alpha: FockTensor,
    maxrank: int | None,
    tuples: list[tuple] | None = None,
    kernels=None,
) -> FockTensor:
    """pullback_taylor with alpha = taylor(f) supplied by the caller, and
    optionally the checked tuples for the rank of route a and
    `_basis_kernels(proj.config)`, which depend on the form alone."""
    route_a = taylor(compose_with_projection(proj, f), maxrank)
    if tuples is None:
        tuples = _check_tuples(proj.config, route_a.maxrank)
    worst = 0.0
    for t, value in _route_b(proj, alpha, tuples, kernels):
        gap = abs(route_a.entry(t) - value)
        worst = max(worst, gap)
        if worst > 1e-10:
            raise AssertionError(
                f"pullback routes disagree at tuple {t}: gap {worst:.2e}"
            )
    return route_a


def pullback_taylor(
    proj: Projection, f: Polynomial, maxrank: int | None = None
) -> FockTensor:
    """Taylor tensor of f o pi_P, validated along two independent routes.

    Route a substitutes Pw into f and differentiates the composite; route b
    pairs kappa tensors against taylor(f) without ever forming the composite.
    Disagreement beyond 1e-10 on the checked tuple set raises, since it means
    the two derivative calculi have diverged. Route b builds the kappa state
    of each proper suffix of a checked tuple once per call. It never builds
    a checked tuple's own state: the constant of a step along (A, a) at key K
    is sum_j A_j [w_j] + sum_m a_m [c_m] of the suffix entry K, plus const_l
    times its constant [1] at key (l,) + K for each pushed component
    (l, const, linear). This pairs exactly as the tensor `kappa` would build
    from scratch, taking every step in full.
    """
    _check_group(proj.config, f)
    return _checked_pullback(proj, f, taylor(f), maxrank)


def projection_convergence(
    config: GroupConfig, f: Polynomial, T: float = 1.0
) -> list[dict]:
    """Per-rank gaps between taylor(f o pi_P) and taylor(f) for the increasing
    coordinate subspaces P_N = span(e_1..e_N).

    Returns one row per N with the per-rank norms of the difference and the
    total norm at time T; at N = k the projection is the identity and every
    gap is exactly zero. T must be finite and positive.
    """
    _check_time("projection_convergence", T)
    alpha = taylor(f)
    # route a is taken at alpha's rank, so every N checks the same tuples
    tuples = _check_tuples(config, alpha.maxrank)
    kernels = _basis_kernels(config)
    rows = []
    for N in range(1, config.k + 1):
        proj = Projection.coordinate(config, range(N))
        pulled = _checked_pullback(proj, f, alpha, alpha.maxrank, tuples, kernels)
        diff = pulled.sub(alpha)
        gaps = [diff.rank_norm_sq(r) ** 0.5 for r in range(diff.maxrank + 1)]
        rows.append(
            {
                "N": N,
                "dim": proj.dim,
                "rank_gaps": gaps,
                "total": fock_norm_sq(diff, T) ** 0.5,
            }
        )
    return rows
