"""Group and Lie-algebra arithmetic for the step-2 nilpotent groups G = W x C.

W = C^k and the center C = C^d. The group law is

    (w1, c1) . (w2, c2) = (w1 + w2, c1 + c2 + (1/2) omega(w1, w2))

where omega(w, w')_m = w^T Omega_m w' for d exactly skew-symmetric complex
k x k matrices Omega_m. The Lie algebra shares the carrier (w, c); the
exponential chart is the identity, so GroupElement doubles as an algebra
element throughout.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "GroupConfig",
    "GroupElement",
    "group_mul",
    "group_inv",
    "bracket",
    "omega_uniform_norm",
    "k_omega",
]

SKEW_TOL = 1e-12


def _is_int(value) -> bool:
    """An integer that is not a bool (True would otherwise pass as 1)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_count(name: str, value) -> None:
    """The one rule for a count (steps, paths, segments, ranks, workers, ...)."""
    if not _is_int(value) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _check_seed(name: str, seed, derived: int = 0) -> None:
    """The one rule for a random seed: an integer in [0, 2^64), not a bool.
    A caller that also draws with seed + 1 .. seed + derived passes
    `derived`, so those seeds are in range too."""
    if not _is_int(seed) or not 0 <= seed < 2**64 - derived:
        top = f"2^64 - {derived}" if derived else "2^64"
        raise ValueError(f"{name} must be an integer in [0, {top}), got {seed!r}")


def _check_time(name: str, T) -> None:
    """The one rule for a heat time T: a finite positive real, not a bool."""
    if isinstance(T, bool) or not isinstance(T, numbers.Real) or not math.isfinite(T) or T <= 0:
        raise ValueError(f"{name}: T must be finite and positive, got T={T!r}")


class GroupConfig:
    """Dimensions (k, d) and the skew form omega; the single source of structure.

    omega is stored as a (d, k, k) complex array of exactly skew matrices
    (validated on construction: zero diagonal, Omega^T = -Omega entry-wise).
    Instances are immutable; arrays are frozen.
    """

    __slots__ = ("k", "d", "omega")

    def __init__(self, k: int, d: int, omega) -> None:
        if not (_is_int(k) and _is_int(d)):
            raise ValueError(f"config: k and d must be integers, got k={k!r}, d={d!r}")
        if k < 1 or d < 1:
            raise ValueError(f"config: need k >= 1 and d >= 1, got k={k}, d={d}")
        om = np.asarray(omega, dtype=complex)
        if om.shape != (d, k, k):
            raise ValueError(
                f"config: omega must have shape ({d},{k},{k}), got {om.shape}"
            )
        if not np.isfinite(om).all():
            raise ValueError("config: omega entries must be finite")
        skew_err = float(np.max(np.abs(om + np.transpose(om, (0, 2, 1)))))
        if skew_err > SKEW_TOL:
            raise ValueError(
                f"config: omega matrices must be skew-symmetric, max |O + O^T| = {skew_err:g}"
            )
        om.flags.writeable = False
        object.__setattr__(self, "k", int(k))
        object.__setattr__(self, "d", int(d))
        object.__setattr__(self, "omega", om)

    def __setattr__(self, name, value):
        raise AttributeError("GroupConfig is immutable")

    @property
    def n(self) -> int:
        """Number of complex coordinates, k + d."""
        return self.k + self.d

    def omega_form(self, w1, w2):
        """omega(w1, w2) as a length-d complex vector; bilinear, antisymmetric."""
        w1 = np.asarray(w1, dtype=complex)
        w2 = np.asarray(w2, dtype=complex)
        return np.einsum("i,mij,j->m", w1, self.omega, w2)

    def omega_batch(self, W1, W2):
        """Row-wise omega for stacked inputs of shape (n, k); returns (n, d)."""
        return np.einsum("pi,mij,pj->pm", W1, self.omega, W2)

    def identity(self) -> "GroupElement":
        return GroupElement(self, np.zeros(self.k, complex), np.zeros(self.d, complex))

    def basis_direction(self, index: int) -> "GroupElement":
        """Basis element of the algebra: [0,k) are (e_j, 0), [k, k+d) are (0, f_m)."""
        if not _is_int(index) or not 0 <= index < self.n:
            raise ValueError(f"basis index must be an integer in [0, {self.n}), got {index!r}")
        w = np.zeros(self.k, complex)
        c = np.zeros(self.d, complex)
        if index < self.k:
            w[index] = 1.0
        else:
            c[index - self.k] = 1.0
        return GroupElement(self, w, c)

    def basis(self) -> list["GroupElement"]:
        return [self.basis_direction(i) for i in range(self.n)]

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "d": self.d,
            "omega": [
                [[[float(z.real), float(z.imag)] for z in row] for row in mat]
                for mat in self.omega
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GroupConfig":
        if not isinstance(data, dict):
            raise ValueError(
                f"config: the top level must be a JSON object, got {type(data).__name__}"
            )
        for field in ("k", "d", "omega"):
            if field not in data:
                raise KeyError(f"config: {field} required")
        try:
            pairs = np.array(data["omega"])
        except ValueError as exc:
            raise ValueError(f"config: omega is not an array of [re, im] pairs: {exc}") from None
        if pairs.ndim != 4 or pairs.shape[-1] != 2 or pairs.dtype.kind not in "iuf":
            raise ValueError(
                f"config: omega must hold numeric [re, im] pairs, got a {pairs.dtype} array"
                f" of shape {pairs.shape}"
            )
        # a view keeps each (re, im) pair bit for bit, signed zeros included
        return cls(data["k"], data["d"], pairs.astype(float).view(complex)[..., 0])

    @property
    def config_hash(self) -> str:
        """Short stable hash of (k, d, omega); recorded in every CSV row."""
        # imported here, not at the top: `import holoheis` does without them
        import hashlib
        import json

        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def __repr__(self) -> str:
        return f"GroupConfig(k={self.k}, d={self.d}, hash={self.config_hash})"


class GroupElement:
    """A point (w, c) of G, and equally an element of the Lie algebra."""

    __slots__ = ("config", "w", "c")

    def __init__(self, config: GroupConfig, w, c) -> None:
        w = np.array(w, dtype=complex).reshape(-1)
        c = np.array(c, dtype=complex).reshape(-1)
        if w.shape != (config.k,) or c.shape != (config.d,):
            raise ValueError(
                f"element dimensions ({w.shape[0]},{c.shape[0]}) do not match "
                f"config (k={config.k}, d={config.d})"
            )
        w.flags.writeable = False
        c.flags.writeable = False
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "c", c)

    def __setattr__(self, name, value):
        raise AttributeError("GroupElement is immutable")

    def norm_sq(self) -> float:
        """Squared Hermitian norm ||w||^2 + ||c||^2 of the algebra element."""
        return float(np.sum(np.abs(self.w) ** 2) + np.sum(np.abs(self.c) ** 2))

    def norm(self) -> float:
        return float(np.sqrt(self.norm_sq()))

    def scale(self, t: complex) -> "GroupElement":
        return GroupElement(self.config, t * self.w, t * self.c)

    def close_to(self, other: "GroupElement", tol: float = 1e-12) -> bool:
        return (
            float(np.max(np.abs(self.w - other.w), initial=0.0)) <= tol
            and float(np.max(np.abs(self.c - other.c), initial=0.0)) <= tol
        )

    def __repr__(self) -> str:
        return f"GroupElement(w={self.w.tolist()}, c={self.c.tolist()})"


def _same_config(a: GroupConfig, b: GroupConfig) -> bool:
    """Whether two configurations describe the same group: equal k, d and omega."""
    return a is b or (a.k == b.k and a.d == b.d and np.array_equal(a.omega, b.omega))


def _check_group(config: GroupConfig, *inputs) -> None:
    """Fail by name on an input from another group: a point, polynomial,
    projection or tensor whose configuration is not config."""
    for x in inputs:
        if not _same_config(x.config, config):
            raise ValueError(f"the {type(x).__name__} belongs to {x.config!r}, not to {config!r}")


def group_mul(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """(w1+w2, c1+c2+omega(w1,w2)/2)."""
    cfg = g1.config
    _check_group(cfg, g2)
    return GroupElement(
        cfg,
        g1.w + g2.w,
        g1.c + g2.c + 0.5 * cfg.omega_form(g1.w, g2.w),
    )


def group_inv(g: GroupElement) -> GroupElement:
    """(-w, -c); the omega term vanishes since omega(w, w) = 0."""
    return GroupElement(g.config, -g.w, -g.c)


def bracket(h1: GroupElement, h2: GroupElement) -> GroupElement:
    """[(A1,a1), (A2,a2)] = (0, omega(A1, A2)); lands in the center."""
    cfg = h1.config
    _check_group(cfg, h2)
    return GroupElement(cfg, np.zeros(cfg.k, complex), cfg.omega_form(h1.w, h2.w))


def omega_uniform_norm(config: GroupConfig) -> float:
    """Bound on ||omega(w1, w2)||_C over unit w1, w2: sqrt(-k_omega).

    For d = 1 this is the sup itself, the largest singular value of Omega_1.
    For d > 1 it is an upper bound: ||omega(w1, w2)||^2 = sum_m |w1^T Omega_m w2|^2
    <= w2^dagger (sum_m Omega_m^dagger Omega_m) w2 <= lambda_max. Overestimating
    is the sound direction: a radius sigma T < pi taken from it is conservative.
    """
    return math.sqrt(max(0.0, -k_omega(config)))


def k_omega(config: GroupConfig) -> float:
    """-lambda_max(M) with M = sum_m Omega_m^dagger Omega_m (Hermitian PSD).

    Computed by a dense Hermitian eigensolver. Always <= 0; bounded below by
    minus the squared Hilbert-Schmidt norm of omega.
    """
    M = np.einsum("mji,mjl->il", config.omega.conj(), config.omega)
    if not M.any():
        return 0.0
    return -float(np.linalg.eigvalsh(M)[-1])
