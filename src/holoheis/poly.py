"""Sparse polynomial algebra in (w, c, wbar, cbar), left-invariant derivatives,
the second-order operator L, and the exact heat-semigroup expectation.

Variables are indexed 0..2(k+d)-1 in blocks: w_1..w_k, c_1..c_d, then the
conjugate blocks wbar_1..wbar_k, cbar_1..cbar_d. A polynomial is holomorphic
iff both conjugate blocks are untouched. Conjugate variables exist so that
|f|^2 and L|f|^2 live in the same ring as f.

The graded degree weights w and wbar by 1 and c and cbar by 2; L strictly
lowers it by 2, which is what makes the heat expectation a finite sum.

First-order derivatives go through one kernel, `_one_sided`, which adds the
holomorphic half D_h or the antiholomorphic half D_h-bar of a left-invariant
derivative straight into a term dict: lid_h = D_h + D_h-bar. It runs on the
tables `_kernel_tables` builds once per direction. The heat
generator L = 4 sum_j D_j D_j-bar is applied in closed form (`_L_ops`,
`_L_step`) and shares no code with that kernel, so the heat route and the
Taylor route of the norm identity stay independent.
"""

from __future__ import annotations

import math
import numbers
import operator
import re

import numpy as np

from .group import GroupConfig, GroupElement, _check_group, _check_time, _is_int, _same_config

__all__ = [
    "Polynomial",
    "parse_poly",
    "lid",
    "apply_L",
    "heat_expectation",
    "DEGREE_CAP",
    "CLEANUP_TOL",
]

# Graded-degree cap: ring operations reject results beyond this, bounding the
# term explosion of repeated L applications.
DEGREE_CAP = 16

# Coefficients at or below this magnitude are dropped after arithmetic; every
# identity asserted downstream uses tolerances at least four orders looser.
CLEANUP_TOL = 1e-14


def _clean_terms(terms: dict | None) -> dict:
    """Coefficients as complex, with those at or below CLEANUP_TOL dropped."""
    if not terms:
        return {}
    return {
        key: z for key, coeff in terms.items() if abs(z := complex(coeff)) > CLEANUP_TOL
    }


def _graded_degree(config: GroupConfig, terms: dict) -> int:
    """Graded degree of a term dict: w, wbar weigh 1 and c, cbar weigh 2."""
    if not terms:
        return 0
    weights = ([1] * config.k + [2] * config.d) * 2
    return max(sum(map(operator.mul, key, weights)) for key in terms)


class Polynomial:
    """Sparse map from exponent vectors (tuples of length 2(k+d)) to complex."""

    __slots__ = ("config", "terms")

    def __init__(self, config: GroupConfig, terms: dict | None = None) -> None:
        nv = 2 * config.n
        for key in terms or ():
            if len(key) != nv:
                raise ValueError(
                    f"exponent key {key!r} has length {len(key)}, expected 2(k+d) = {nv}"
                )
        self.config = config
        self.terms = _clean_terms(terms)
        if self.terms:
            deg = self.graded_degree()
            if deg > DEGREE_CAP:
                raise ValueError(
                    f"polynomial graded degree {deg} exceeds cap {DEGREE_CAP}"
                )

    @classmethod
    def _bounded(cls, config: GroupConfig, terms: dict) -> "Polynomial":
        """Build a result whose graded degree cannot exceed an operand's
        (sum, negation, scalar multiple, conjugate, derivative), so the cap
        check that dominates construction time is skipped."""
        out = cls.__new__(cls)
        out.config = config
        out.terms = _clean_terms(terms)
        return out

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, config: GroupConfig) -> "Polynomial":
        return cls(config, {})

    @classmethod
    def constant(cls, config: GroupConfig, value: complex) -> "Polynomial":
        return cls(config, {cls._zero_key(config): complex(value)})

    @classmethod
    def coordinate(cls, config: GroupConfig, index: int) -> "Polynomial":
        """Variable by flat index in [0, 2(k+d))."""
        nv = 2 * config.n
        if not _is_int(index) or not 0 <= index < nv:
            raise ValueError(f"variable index must be an integer in [0, {nv}), got {index!r}")
        key = [0] * nv
        key[index] = 1
        return cls(config, {tuple(key): 1.0 + 0j})

    @classmethod
    def w(cls, config: GroupConfig, j: int) -> "Polynomial":
        """w_j, 1-based."""
        return cls.coordinate(config, j - 1)

    @classmethod
    def c(cls, config: GroupConfig, m: int) -> "Polynomial":
        """c_m, 1-based."""
        return cls.coordinate(config, config.k + m - 1)

    @staticmethod
    def _zero_key(config: GroupConfig) -> tuple:
        return (0,) * (2 * config.n)

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_holomorphic(self) -> bool:
        n = self.config.n
        return all(not any(key[n:]) for key in self.terms)

    def constant_term(self) -> complex:
        return self.terms.get(self._zero_key(self.config), 0j)

    def graded_degree(self) -> int:
        """Total degree with w, wbar weighted 1 and c, cbar weighted 2."""
        return _graded_degree(self.config, self.terms)

    # -- ring operations --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, numbers.Number):
            other = Polynomial.constant(self.config, other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        _check_group(self.config, other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, 0j) + coeff
        return Polynomial._bounded(self.config, out)

    __radd__ = __add__

    def __neg__(self):
        negated = {k: -v for k, v in self.terms.items()}
        return Polynomial._bounded(self.config, negated)

    def __sub__(self, other):
        if isinstance(other, numbers.Number):
            other = Polynomial.constant(self.config, other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, numbers.Number):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, numbers.Number):
            z = complex(other)
            scaled = {k: z * v for k, v in self.terms.items()}
            return Polynomial._bounded(self.config, scaled)
        if not isinstance(other, Polynomial):
            return NotImplemented
        _check_group(self.config, other)
        out: dict = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                key = tuple(map(operator.add, k1, k2))
                out[key] = out.get(key, 0j) + v1 * v2
        return Polynomial(self.config, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not _is_int(exponent) or exponent < 0:
            raise ValueError(f"exponent must be an integer >= 0, got {exponent!r}")
        result = Polynomial.constant(self.config, 1.0)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base_needed = e > 1
            if base_needed:
                base = base * base
            e >>= 1
        return result

    def conj(self) -> "Polynomial":
        """Complex conjugate: swaps each block with its conjugate block."""
        n = self.config.n
        out = {}
        for key, coeff in self.terms.items():
            out[key[n:] + key[:n]] = coeff.conjugate()
        return Polynomial._bounded(self.config, out)

    def abs_sq(self) -> "Polynomial":
        """|f|^2 = f * conj(f) as a polynomial in all four blocks."""
        return self * self.conj()

    # -- evaluation --------------------------------------------------------------

    def eval(self, g: GroupElement) -> complex:
        _check_group(self.config, g)
        return complex(self.eval_batch(g.w[None], g.c[None])[0])

    def eval_batch(self, W: np.ndarray, C: np.ndarray) -> np.ndarray:
        """Evaluate on stacked points: W is (m, k), C is (m, d); returns (m,).

        Each variable is read as a column view of W or C (or of their
        conjugates, each taken at most once per call and only if a term
        needs it), so no (m, 2(k+d)) array of all variables is built.
        """
        W, C = np.asarray(W), np.asarray(C)
        k, d, n = self.config.k, self.config.d, self.config.n
        if W.ndim != 2 or C.ndim != 2 or W.shape[1] != k or C.shape[1] != d or len(W) != len(C):
            raise ValueError(
                f"eval_batch: expected W of shape (m, {k}) and C of shape (m, {d}),"
                f" got {W.shape} and {C.shape}"
            )
        keys = self.terms.keys()
        Wbar = W.conj() if any(any(key[n:n + k]) for key in keys) else W
        Cbar = C.conj() if any(any(key[n + k:]) for key in keys) else C
        # column views in variable order; a conjugate block that no term
        # reads stands in unconjugated and is never indexed
        columns = [*W.T, *C.T, *Wbar.T, *Cbar.T]
        out = np.zeros(len(W), dtype=complex)
        for key, coeff in self.terms.items():
            term = np.full(len(W), coeff)
            for idx, e in enumerate(key):
                if e:
                    # not `term * x`: on a large temporary x numpy may compute
                    # x *= term, and not in place either: a one-point product
                    # in place takes a scalar loop. Either rounds differently,
                    # so a value would depend on the points beside it
                    term = np.multiply(term, columns[idx] ** e)
            out += term
        return out

    # -- formatting ---------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        k, d, n = self.config.k, self.config.d, self.config.n
        names = (
            [f"w{j + 1}" for j in range(k)]
            + [f"c{m + 1}" for m in range(d)]
            + [f"wbar{j + 1}" for j in range(k)]
            + [f"cbar{m + 1}" for m in range(d)]
        )
        parts = []
        for key in sorted(self.terms, key=lambda t: (sum(t), t)):
            coeff = self.terms[key]
            factors = []
            for idx, e in enumerate(key):
                if e == 1:
                    factors.append(names[idx])
                elif e > 1:
                    factors.append(f"{names[idx]}^{e}")
            # repr floats round-trip exactly through parse_poly
            if coeff.imag == 0:
                cs = repr(coeff.real)
            else:
                im = repr(coeff.imag)
                cs = f"({coeff.real!r}{'' if im[0] == '-' else '+'}{im}i)"
            if factors and coeff == 1:
                parts.append(" * ".join(factors))
            elif factors and coeff == -1:
                parts.append("-" + " * ".join(factors))
            else:
                parts.append(" * ".join([cs] + factors))
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms and _same_config(self.config, other.config)

    def __hash__(self):
        # terms only, which stays consistent with the group-aware __eq__
        return hash(frozenset(self.terms.items()))

    def close_to(self, other: "Polynomial", tol: float = 1e-10) -> bool:
        """Whether other is of the same group and each coefficient is within tol."""
        if not _same_config(self.config, other.config):
            return False
        keys = set(self.terms) | set(other.terms)
        return all(
            abs(self.terms.get(k, 0j) - other.terms.get(k, 0j)) <= tol for k in keys
        )


_TOKEN = re.compile(
    r"\s*(?:(?P<cplx>\([^()]*\))|(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"|(?P<var>(?:w|c)(?:bar)?\d+)|(?P<imag>i\b)|(?P<op>[*^+\-]))"
)


def parse_poly(config: GroupConfig, text: str) -> Polynomial:
    """Parse the literal syntax, e.g. ``(1.5-2i) * w1^2 * cbar1 + 3 * c1``.

    Variables: w<j>, c<m>, wbar<j>, cbar<m> (1-based). Coefficients: bare
    reals, the token ``i``, or a parenthesized complex like ``(1.5-2i)``.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"polynomial syntax error at {text[pos:]!r}")
            break
        tokens.append(m)
        pos = m.end()

    k, d, n = config.k, config.d, config.n

    def var_index(name: str) -> int:
        bar = "bar" in name
        base = name[0]
        num = int(name.replace("bar", "")[1:])
        if base == "w":
            if not 1 <= num <= k:
                raise ValueError(f"variable {name} out of range for k={k}")
            idx = num - 1
        else:
            if not 1 <= num <= d:
                raise ValueError(f"variable {name} out of range for d={d}")
            idx = k + num - 1
        return idx + (n if bar else 0)

    result = Polynomial.zero(config)
    i = 0
    total = len(tokens)

    def parse_factor(i):
        tok = tokens[i]
        if tok.group("cplx"):
            body = tok.group("cplx")[1:-1].replace(" ", "").replace("i", "j")
            try:
                value = complex(body)
            except ValueError:
                raise ValueError(f"bad complex literal {tok.group('cplx')}") from None
            return Polynomial.constant(config, value), i + 1
        if tok.group("num"):
            return Polynomial.constant(config, float(tok.group("num"))), i + 1
        if tok.group("imag"):
            return Polynomial.constant(config, 1j), i + 1
        if tok.group("var"):
            base = Polynomial.coordinate(config, var_index(tok.group("var")))
            i += 1
            if i < total and tokens[i].group("op") == "^":
                exponent = tokens[i + 1].group(0).strip() if i + 1 < total else ""
                if not exponent.isdigit():
                    raise ValueError(f"expected an integer exponent after '^', got {exponent!r}")
                base = base ** int(exponent)
                i += 2
            return base, i
        raise ValueError(f"unexpected token {tok.group(0)!r}")

    while i < total:
        sign = 1.0
        while i < total and tokens[i].group("op") in ("+", "-"):
            if tokens[i].group("op") == "-":
                sign = -sign
            i += 1
        if i >= total:
            raise ValueError("dangling sign at end of polynomial")
        term, i = parse_factor(i)
        while i < total and tokens[i].group("op") == "*":
            factor, i = parse_factor(i + 1)
            term = term * factor
        if i < total and tokens[i].group("op") not in ("+", "-"):
            got = tokens[i].group(0).strip()
            raise ValueError(f"expected '+', '-' or end after a term, got {got!r}")
        result = result + sign * term
    return result


def _one_sided(terms: dict, off: int, flat: list, central: list, out: dict) -> None:
    """Add one half of a left-invariant derivative of `terms` into `out`.

    flat and central are the tables `_kernel_tables` builds once per
    direction. With off = 0 this is the holomorphic half along h = (A, a),

        D_h = sum_j A_j d/dw_j + sum_m v_m(w) d/dc_m,   v(w) = a + omega(w, A)/2;

    with off = n and tables of the conjugated arguments it is the
    antiholomorphic half D_h-bar on the conjugate blocks. Neither half raises
    the graded degree: d/dc lowers it by 2, v by at most 1.
    """
    if off:
        flat = [(off + j, scale) for j, scale in flat]
        central = [(off + idx, const, [(off + i, s) for i, s in linear])
                   for idx, const, linear in central]
    for key, coeff in terms.items():
        for idx, scale in flat:
            e = key[idx]
            if e:
                new = key[:idx] + (e - 1,) + key[idx + 1:]
                out[new] = out.get(new, 0j) + e * scale * coeff
        for idx, const, linear in central:
            e = key[idx]
            if not e:
                continue
            base = e * coeff
            lowered = key[:idx] + (e - 1,) + key[idx + 1:]
            if const:
                out[lowered] = out.get(lowered, 0j) + const * base
            for i, scale in linear:
                new = lowered[:i] + (lowered[i] + 1,) + lowered[i + 1:]
                out[new] = out.get(new, 0j) + scale * base


def _kernel_tables(A: list, a: list, OmA: list) -> tuple[list, list]:
    """(flat, central): the tables `_one_sided` runs on for the direction
    (A, a), with OmA[m][i] = (Omega_m A)_i, indexed within one block.

    flat holds (j, A_j) for A_j != 0; central holds (k + m, a_m, linear), the
    coefficient a_m + sum_i s_i w_i of d/dc_m with (i, s_i) in linear, and
    omits components whose coefficient is 0, which add nothing.
    """
    k = len(A)
    flat = [(j, A[j]) for j in range(k) if A[j]]
    central = []
    for m, const in enumerate(a):
        linear = [(i, 0.5 * OmA[m][i]) for i in range(k) if OmA[m][i]]
        if const or linear:
            central.append((k + m, const, linear))
    return flat, central


def _constant_units(tables: tuple, n: int) -> list[tuple[tuple, complex]]:
    """The degree-one monomials that D_h turns into constants, each with its
    scale: (w_j, A_j) and (c_m, a_m), for the kernel tables (flat, central) of
    D_h in a group of n = k + d coordinates."""
    flat, central = tables
    zero = (0,) * (2 * n)
    scaled = flat + [(idx, const) for idx, const, _ in central if const]
    return [(zero[:i] + (1,) + zero[i + 1:], s) for i, s in scaled]


def _halves(h: GroupElement) -> tuple[tuple, tuple]:
    """Kernel tables (flat, central) of D_h and of D_h-bar."""
    OmA = np.einsum("mij,j->mi", h.config.omega, h.w)
    # Python scalars: numpy scalar arithmetic and comparisons cost more per call.
    return (
        _kernel_tables(h.w.tolist(), h.c.tolist(), OmA.tolist()),
        _kernel_tables(h.w.conj().tolist(), h.c.conj().tolist(), OmA.conj().tolist()),
    )


def _basis_halves(config: GroupConfig) -> list[tuple[tuple, tuple]]:
    """`_halves` of the n basis directions, in index order; callers that
    differentiate along the basis many times build these once."""
    return [_halves(h) for h in config.basis()]


def _basis_kernels(config: GroupConfig) -> tuple[list, list]:
    """(hols, units): the kernel tables of each basis direction's holomorphic
    half, and the `_constant_units` of each, in index order."""
    hols = [hol for hol, _ in _basis_halves(config)]
    return hols, [_constant_units(hol, config.n) for hol in hols]


def _unit_constant(terms: dict, units: list, z: complex = 0j) -> complex:
    """z plus the constant term of D_h `terms`, with units = _constant_units
    of the kernel tables of D_h, read off without a kernel step.

    Only a degree-one monomial gives D_h a constant: A_j times [w_j] and a_m
    times [c_m]. Along a basis direction (one unit, of scale 1) and with
    z = 0, this is the constant `_one_sided` computes, bit for bit.
    """
    for mono, s in units:
        if mono in terms:
            z += s * terms[mono]
    return z


def lid(f: Polynomial, h: GroupElement) -> Polynomial:
    """Left-invariant derivative of f along the direction h = (A, a).

    The derivative of t -> f(g . (tA, ta)) at t = 0 is D_h f + D_h-bar f, the
    two halves of `_one_sided`:

        sum_j A_j df/dw_j + conj(A_j) df/dwbar_j
      + sum_m v_m(w) df/dc_m + conj(v_m)(wbar) df/dcbar_m,

    with v(w) = a + omega(w, A)/2, a vector of degree-1 polynomials in w.
    Holomorphic f stays holomorphic (the conjugate half vanishes).
    """
    _check_group(f.config, h)
    hol, anti = _halves(h)
    out: dict = {}
    _one_sided(f.terms, 0, *hol, out)
    _one_sided(f.terms, f.config.n, *anti, out)
    return Polynomial._bounded(f.config, out)


def _L_ops(config: GroupConfig) -> list[tuple[int, list]]:
    """The terms of L in closed form, grouped by their holomorphic derivative.

    D_j-bar has coefficients in wbar only, so D_j never differentiates them,
    and the sum L = 4 sum_j D_j D_j-bar collapses to

        L/4 = sum_j d_wj d_wbarj + sum_m d_cm d_cbarm
            + 1/2 sum conj(Omega_m[i,j]) wbar_i d_wj d_cbarm
            + 1/2 sum Omega_m[i,j] w_i d_cm d_wbarj
            + 1/4 sum (Omega_m Omega_m'^dagger)[i,l] w_i wbar_l d_cm d_cbarm'.

    Returns [(a, [(b, [(bumps, scale)])])]: a term scale * x_bumps d_a d_b with
    a holomorphic and b antiholomorphic variable indices; the factor 4 is in
    the scales.
    """
    k, d, n = config.k, config.d, config.n
    om = config.omega
    gram = np.einsum("mij,plj->mpil", om, om.conj())
    ops = []
    for j in range(k):
        row = [(n + j, [((), 4.0)])]
        for m in range(d):
            mults = [((n + i,), 2 * complex(om[m, i, j]).conjugate())
                     for i in range(k) if om[m, i, j]]
            if mults:
                row.append((n + k + m, mults))
        ops.append((j, row))
    for m in range(d):
        row = []
        for j in range(k):
            mults = [((i,), 2 * complex(om[m, i, j])) for i in range(k) if om[m, i, j]]
            if mults:
                row.append((n + j, mults))
        for p in range(d):
            mults = [((), 4.0)] if p == m else []
            mults += [((i, n + l), complex(gram[m, p, i, l])) for i in range(k) for l in range(k)
                      if gram[m, p, i, l]]
            if mults:
                row.append((n + k + p, mults))
        ops.append((k + m, row))
    return ops


def _L_step(terms: dict, ops: list) -> dict:
    """L of a term dict, with ops = _L_ops(config); returns an uncleaned dict."""
    out: dict = {}
    for key, coeff in terms.items():
        for a, row in ops:
            ea = key[a]
            if not ea:
                continue
            for b, mults in row:
                eb = key[b]
                if not eb:
                    continue
                base = ea * eb * coeff
                lowered = list(key)
                lowered[a] -= 1
                lowered[b] -= 1
                for bumps, scale in mults:
                    new = lowered.copy()
                    for i in bumps:
                        new[i] += 1
                    new = tuple(new)
                    out[new] = out.get(new, 0j) + scale * base
    return out


def apply_L(F: Polynomial) -> Polynomial:
    """Sum of squared left-invariant derivatives over the real basis directions,

        L = sum_j [lid^2_(e_j,0) + lid^2_(ie_j,0)]
          + sum_m [lid^2_(0,f_m) + lid^2_(0,if_m)],

    which is L = 4 sum_j D_j D_j-bar over the n complex basis directions.
    With lid_h = D + D-bar, lid_ih = i(D - D-bar), so lid_h^2 + lid_ih^2 =
    (D + D-bar)^2 - (D - D-bar)^2 = 4 D D-bar, as D and D-bar commute: their
    coefficients live in disjoint variables. Applied in the closed form of
    `_L_ops`.

    Annihilates holomorphic polynomials; strictly lowers graded degree by 2.
    """
    return Polynomial._bounded(F.config, _L_step(F.terms, _L_ops(F.config)))


def heat_expectation(F: Polynomial, T: float) -> complex:
    """Exact expectation of F under the terminal-time-T heat kernel measure:

        sum_{m>=0} (T/4)^m / m! * (L^m F)(e),

    a finite sum because L lowers graded degree by 2 per application. Serves
    as the exact oracle that every Monte Carlo estimate is judged against.

    Only terms of charge 0 are kept: the graded degree in (w, c) minus that
    in (wbar, cbar). Every term of `_L_ops` lowers both by the same amount,
    so L keeps the charge of each term, and the monomial 1 has charge 0; a
    term of another charge never reaches a constant. A charge-0 key gets the
    same contributions, in the same order, as in the unfiltered series.
    """
    _check_time("heat_expectation", T)
    cfg = F.config
    ops = _L_ops(cfg)
    zero = Polynomial._zero_key(cfg)
    charges = [1] * cfg.k + [2] * cfg.d + [-1] * cfg.k + [-2] * cfg.d
    cur = {key: z for key, z in F.terms.items() if not sum(map(operator.mul, key, charges))}
    total = 0j
    m = 0
    max_m = _graded_degree(cfg, cur) // 2 + 1
    while cur:
        if m > max_m:
            raise RuntimeError("heat expectation failed to terminate; L did not lower degree")
        total += (T / 4.0) ** m / math.factorial(m) * cur.get(zero, 0j)
        cur = _clean_terms(_L_step(cur, ops))
        m += 1
    return total
