"""Graded tensor coefficients of holomorphic polynomials: the Taylor map built
from left-invariant derivatives at the identity, its inverse, the weighted
tensor norms, annihilation residuals for the commutation ideal, the grading
automorphism, and Fejer finite-rank truncation.

A FockTensor holds components alpha_0..alpha_N; alpha_n maps length-n tuples
over the k+d basis directions to complex numbers. The coefficient convention
is <alpha_n, h_1 x ... x h_n> = (lid_{h_1} ... lid_{h_n} f)(e) with lid_{h_n}
applied first (innermost).
"""

from __future__ import annotations

import math

from .group import GroupConfig, _check_count, _check_group, _check_time, _is_int
from .poly import (
    CLEANUP_TOL,
    Polynomial,
    _basis_kernels,
    _clean_terms,
    _graded_degree,
    _one_sided,
    _unit_constant,
)

__all__ = [
    "FockTensor",
    "taylor",
    "inverse_taylor",
    "fock_norm_sq",
    "fock_inner",
    "j0_residual",
    "grading_pullback",
    "fejer_truncate",
]


class FockTensor:
    """Graded family (alpha_0, ..., alpha_N) of sparse basis-indexed tensors."""

    __slots__ = ("config", "ranks")

    def __init__(self, config: GroupConfig, ranks: list[dict]):
        if not ranks:
            raise ValueError(
                "FockTensor: ranks must hold at least the rank-0 component, got empty ranks"
            )
        clean = []
        for n, component in enumerate(ranks):
            kept = {}
            for key, coeff in component.items():
                if len(key) != n:
                    raise ValueError(f"rank-{n} component holds a length-{len(key)} tuple")
                if any(not 0 <= i < config.n for i in key):
                    raise ValueError(f"tuple {key} has indices outside [0, {config.n})")
                z = complex(coeff)
                if abs(z) > CLEANUP_TOL:
                    kept[key] = z
            clean.append(kept)
        self.config = config
        self.ranks = clean

    @classmethod
    def _trusted(cls, config: GroupConfig, ranks: list[dict]) -> "FockTensor":
        """Wrap ranks that `taylor` has just built, skipping the checks of
        the public constructor: each key already has its rank's length and
        indices in [0, n), and each value is a complex above CLEANUP_TOL."""
        out = cls.__new__(cls)
        out.config = config
        out.ranks = ranks
        return out

    @property
    def maxrank(self) -> int:
        """The top stored rank N, len(ranks) - 1."""
        return len(self.ranks) - 1

    def entry(self, key: tuple) -> complex:
        n = len(key)
        if n >= len(self.ranks):
            return 0j
        return self.ranks[n].get(key, 0j)

    @property
    def scalar(self) -> complex:
        return self.ranks[0].get((), 0j)

    def rank_norm_sq(self, n: int) -> float:
        if n > self.maxrank:
            return 0.0
        return sum(abs(v) ** 2 for v in self.ranks[n].values())

    def nonzero_maxrank(self) -> int:
        for n in range(self.maxrank, -1, -1):
            if self.ranks[n]:
                return n
        return 0

    def scale(self, z: complex) -> "FockTensor":
        return FockTensor(
            self.config,
            [{k: z * v for k, v in comp.items()} for comp in self.ranks],
        )

    def add(self, other: "FockTensor") -> "FockTensor":
        _check_group(self.config, other)
        top = max(self.maxrank, other.maxrank)
        ranks = []
        for n in range(top + 1):
            merged = dict(self.ranks[n]) if n <= self.maxrank else {}
            if n <= other.maxrank:
                for key, v in other.ranks[n].items():
                    merged[key] = merged.get(key, 0j) + v
            ranks.append(merged)
        return FockTensor(self.config, ranks)

    def sub(self, other: "FockTensor") -> "FockTensor":
        return self.add(other.scale(-1.0))

    def close_to(self, other: "FockTensor", tol: float = 1e-10) -> bool:
        top = max(self.maxrank, other.maxrank)
        for n in range(top + 1):
            keys = set()
            if n <= self.maxrank:
                keys |= set(self.ranks[n])
            if n <= other.maxrank:
                keys |= set(other.ranks[n])
            for key in keys:
                if abs(self.entry(key) - other.entry(key)) > tol:
                    return False
        return True

    def to_records(self) -> list:
        """Flat serialization: (rank, index list, [re, im]) per stored entry."""
        records = []
        for n, component in enumerate(self.ranks):
            for key in sorted(component):
                z = component[key]
                records.append((n, list(key), [z.real, z.imag]))
        return records

    @classmethod
    def from_records(cls, config: GroupConfig, records) -> "FockTensor":
        maxrank = max((int(r[0]) for r in records), default=0)
        ranks: list[dict] = [{} for _ in range(maxrank + 1)]
        for rank, key, (re, im) in records:
            ranks[int(rank)][tuple(int(i) for i in key)] = complex(re, im)
        return cls(config, ranks)

    def __repr__(self) -> str:
        sizes = ",".join(str(len(c)) for c in self.ranks)
        return f"FockTensor(maxrank={self.maxrank}, entries=[{sizes}])"


def taylor(f: Polynomial, maxrank: int | None = None) -> FockTensor:
    """All left derivatives of f at the identity, graded by rank.

    The rank-n coefficient at tuple (i_1, ..., i_n) is the iterated derivative
    along basis directions with direction i_n applied first. Requires f
    holomorphic and maxrank at least the graded degree of f (the tensor
    vanishes beyond it).
    """
    if not f.is_holomorphic():
        raise ValueError("taylor is defined for holomorphic polynomials only")
    cfg = f.config
    degree = f.graded_degree()
    if maxrank is None:
        maxrank = degree
    if not _is_int(maxrank):
        raise ValueError(f"taylor: maxrank must be an integer, got {maxrank!r}")
    if maxrank < degree:
        raise ValueError(
            f"maxrank {maxrank} below the graded degree {degree}; tail would be lost"
        )
    hols, units = _basis_kernels(cfg)
    zero = Polynomial._zero_key(cfg)

    def derivatives(terms: dict) -> list[tuple[int, dict | None, complex | None]]:
        """(j, D_j terms or None, their constant or None) for the directions
        j along which the chain `terms` has a non-zero derivative."""
        if len(terms) <= cfg.k + 1 and _graded_degree(cfg, terms) <= 1:
            # an affine chain (at most k + 1 terms) has constants for its
            # D_j, and their derivatives vanish
            return [(j, None, z) for j, u in enumerate(units)
                    if abs(z := _unit_constant(terms, u)) > CLEANUP_TOL]
        found = []
        for j, hol in enumerate(hols):
            out: dict = {}
            _one_sided(terms, 0, *hol, out)
            derived = _clean_terms(out)
            if derived:
                found.append((j, derived, derived.get(zero)))
        return found

    ranks: list[dict] = [{} for _ in range(maxrank + 1)]
    if abs(f.constant_term()) > CLEANUP_TOL:
        ranks[0][()] = f.constant_term()
    # every chain is holomorphic, so D_h is its whole derivative; many index
    # tuples reach the same chain, which is differentiated once per rank
    chains: dict[tuple, dict] = {(): f.terms}
    for n in range(1, maxrank + 1):
        extended: dict[tuple, dict] = {}
        done: dict[tuple, list] = {}
        for key, terms in chains.items():
            signature = tuple(terms.items())
            found = done.get(signature)
            if found is None:
                found = done[signature] = derivatives(terms)
            for j, derived, const in found:
                new_key = (j,) + key
                if derived is not None:
                    extended[new_key] = derived
                if const is not None:
                    ranks[n][new_key] = const
        chains = extended
        if not chains:
            break
    return FockTensor._trusted(cfg, ranks)


def inverse_taylor(alpha: FockTensor) -> Polynomial:
    """Rebuild the polynomial g -> sum_n (1/n!) <alpha_n, g^(x n)>.

    Each index tuple contributes its coefficient/n! times the monomial whose
    exponents count the tuple's indices (coordinates of g expand the tensor
    powers; the ordering washes out because coordinates commute).
    """
    cfg = alpha.config
    nv = 2 * cfg.n
    terms: dict[tuple, complex] = {}
    for n, component in enumerate(alpha.ranks):
        if not component:
            continue
        weight = 1.0 / math.factorial(n)
        for key, coeff in component.items():
            exps = [0] * nv
            for index in key:
                exps[index] += 1
            ek = tuple(exps)
            terms[ek] = terms.get(ek, 0j) + coeff * weight
    return Polynomial(cfg, terms)


def fock_norm_sq(alpha: FockTensor, T: float) -> float:
    """sum_n (T^n / n!) * sum_tuples |<alpha_n, .>|^2."""
    _check_time("fock_norm_sq", T)
    total = 0.0
    for n, component in enumerate(alpha.ranks):
        if component:
            total += (T**n / math.factorial(n)) * alpha.rank_norm_sq(n)
    return total


def fock_inner(alpha: FockTensor, beta: FockTensor, T: float) -> complex:
    """sum_n (T^n / n!) * sum_tuples alpha_n conj(beta_n); matches fock_norm_sq
    on the diagonal."""
    _check_time("fock_inner", T)
    _check_group(alpha.config, beta)
    total = 0j
    top = min(alpha.maxrank, beta.maxrank)
    for n in range(top + 1):
        a, b = alpha.ranks[n], beta.ranks[n]
        if not a or not b:
            continue
        small, big, conj_small = (a, b, False) if len(a) <= len(b) else (b, a, True)
        acc = 0j
        for key, v in small.items():
            other = big.get(key)
            if other is not None:
                acc += (v.conjugate() * other) if conj_small else (v * other.conjugate())
        total += (T**n / math.factorial(n)) * acc
    return total


def j0_residual(alpha: FockTensor) -> float:
    """Largest violation of the commutation-ideal annihilation conditions.

    Checks |<alpha, u x (h x k - k x h - [h,k]) x v>| over all basis words u, v
    and basis pairs (h, k) with |u| + |v| + 2 <= maxrank. The bracket term has
    one factor less, so the pairing mixes adjacent ranks. Zero (within
    tolerance) certifies annihilation up to the stored rank, nothing beyond.

    Enumeration is support-driven: a candidate (u, h, k, v) only matters if at
    least one of the three entries it reads is stored.
    """
    cfg = alpha.config
    k = cfg.k
    omega = cfg.omega
    ranks = alpha.ranks
    # (h, kk) -> [(k + m, Omega_m[h, kk])] over the non-zero entries, m in order
    bracket: dict[tuple, list] = {}
    for m, h, kk in zip(*omega.nonzero()):
        bracket.setdefault((int(h), int(kk)), []).append((k + int(m), omega[m, h, kk]))
    pairs = [[(int(h), int(kk)) for h, kk in zip(*omega[m].nonzero())] for m in range(cfg.d)]

    def violation(word: tuple, p: int) -> float:
        """The condition at u = word[:p], (h, kk) = word[p:p + 2], v = word[p + 2:]."""
        top, below = ranks[len(word)], ranks[len(word) - 1]
        u, h, kk, v = word[:p], word[p], word[p + 1], word[p + 2:]
        value = top.get(word, 0j) - top.get(u + (kk, h) + v, 0j)
        for c, coeff in bracket.get((h, kk), ()):
            value -= coeff * below.get(u + (c,) + v, 0j)
        return abs(value)

    worst = 0.0
    # entries at rank p+q+2 seen through the h x k or k x h slot: each
    # (word, p) once
    for r in range(2, len(ranks)):
        for word in ranks[r]:
            for p in range(r - 1):
                worst = max(worst, violation(word, p))
    # entries at rank p+q+1 seen through the bracket slot at a central index,
    # where the word they pair with is not stored (those were checked above)
    seen: set[tuple] = set()
    for r in range(1, len(ranks) - 1):
        stored = ranks[r + 1]
        for key in ranks[r]:
            for p in range(r):
                if key[p] < k:
                    continue
                u, v = key[:p], key[p + 1:]
                for h, kk in pairs[key[p] - k]:
                    word = u + (h, kk) + v
                    if word not in stored and (word, p) not in seen:
                        seen.add((word, p))
                        worst = max(worst, violation(word, p))
    return worst


def _reweigh(alpha: FockTensor, weight) -> FockTensor:
    """Scale each entry by weight(l), l its homogeneous degree (rank plus
    number of central indices); entries of weight 0 are dropped."""
    k = alpha.config.k
    ranks = []
    for n, component in enumerate(alpha.ranks):
        kept = {}
        for key, coeff in component.items():
            w = weight(n + sum(1 for i in key if i >= k))
            if w != 0:
                kept[key] = coeff * w
        ranks.append(kept)
    return FockTensor(alpha.config, ranks)


def grading_pullback(alpha: FockTensor, theta: float) -> FockTensor:
    """Pull back along the grading automorphism (A, a) -> (e^{i theta} A,
    e^{2 i theta} a): a rank-n entry with j central indices picks up the
    phase e^{i theta (n + j)}. Unimodular weights, so every Fock norm is
    preserved."""
    return _reweigh(alpha, lambda l: complex(math.cos(theta * l), math.sin(theta * l)))


def fejer_truncate(alpha: FockTensor, n: int) -> FockTensor:
    """Average the grading pullbacks against the order-n Fejer kernel.

    Exact Fourier weights are used instead of quadrature: the homogeneous
    component of degree l (= rank + number of central indices) is scaled by
    max(0, 1 - l/n). Every rank above n is annihilated since degree >= rank,
    and the degree-0 part is untouched (the kernel integrates to 1).
    """
    _check_count("fejer_truncate: n", n)
    return _reweigh(alpha, lambda l: max(0.0, 1.0 - l / n))
