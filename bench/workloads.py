"""Inputs, rounds and correctness checks of the benchmark workloads.

build(name, seed, workers) turns a seed into a workload's inputs. Each call of
its round(session) makes the same calls into holoheis, timing each through the
session's Recorder under `<module>.<function>`, and checks every output
against an independent computation or a required property inside a
`bench.check` span. Nothing is compared with stored output of earlier runs.

Monte Carlo rounds repeat the same inputs, so every round of a run checks the
same estimates. The exact-calculus rounds draw fresh coefficients and forms
each round from (seed, round), on a fixed pattern of monomials, so no result
can be reused between rounds while the work per round stays the same.
"""

from __future__ import annotations

import itertools
import math
import os

import numpy as np

from holoheis import mc
from holoheis.fock import FockTensor, fock_norm_sq, inverse_taylor, j0_residual, taylor
from holoheis.geometry import bargmann_check, distance_upper
from holoheis.group import GroupConfig, GroupElement
from holoheis.poly import Polynomial, heat_expectation, parse_poly
from holoheis.projection import projection_convergence

# A Monte Carlo estimate fails beyond this many standard errors, the rule
# the package's own rows use. The allowance covers float rounding where the
# standard error is zero (the t = 0 point of a grid).
SIGMAS = 4.0
ROUNDING = 1e-12

NORM_GAP = 1e-9  # relative gap of the two exact routes to a squared norm
J0_TOL = 1e-10
ROUNDTRIP_TOL = 1e-10
RATIO_BAND = (1.4, 2.8)  # chaos residual ratio per step doubling

T = 1.0


class OperationFailed(Exception):
    """A call into the program raised; the rest of the round is skipped."""


class Session:
    """What a round reports to: the Recorder, the operation counts and the
    labels of failed checks."""

    def __init__(self, rec):
        self.rec = rec
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def call(self, name, fn, *args, work=None, **kwargs):
        self.attempted += 1
        with self.rec.span(name, **(work or {})):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.failed += 1
                raise OperationFailed(f"{name}: {exc!r}") from exc

    def checking(self):
        return self.rec.span("bench.check")

    def require(self, ok, label: str):
        if not ok:
            self.failures.append(label)

    def require_mc(self, est: mc.MCEstimate, target: complex, label: str):
        allowance = ROUNDING * max(1.0, abs(target))
        self.require(
            est.within(target, SIGMAS, allowance),
            f"{label}: {est.mean:.6g} +- {est.stderr:.3g} vs {target:.6g}",
        )

    def require_norms(self, a: float, b: float, label: str):
        self.require(abs(a - b) <= NORM_GAP * max(1.0, abs(a)), f"{label}: {a!r} vs {b!r}")


# -- input generation -------------------------------------------------------


def reference_config() -> GroupConfig:
    """The reference group: k=2, d=1, omega = [[0, 1], [-1, 0]]."""
    return GroupConfig(2, 1, [[[0.0, 1.0], [-1.0, 0.0]]])


def random_config(k: int, d: int, rng) -> GroupConfig:
    raw = rng.normal(size=(d, k, k)) + 1j * rng.normal(size=(d, k, k))
    return GroupConfig(k, d, raw - np.transpose(raw, (0, 2, 1)))


def monomials(cfg: GroupConfig, rng, terms: int, degree: int) -> list[tuple]:
    """Exponent keys of holomorphic monomials; the first has graded degree
    exactly `degree`, the others between 1 and `degree`."""
    keys = []
    for t in range(terms):
        key = [0] * (2 * cfg.n)
        budget = degree if t == 0 else int(rng.integers(1, degree + 1))
        while budget > 0:
            if budget >= 2 and rng.random() < 0.4:
                key[cfg.k + int(rng.integers(0, cfg.d))] += 1
                budget -= 2
            else:
                key[int(rng.integers(0, cfg.k))] += 1
                budget -= 1
        keys.append(tuple(key))
    return keys


def with_coefficients(cfg: GroupConfig, keys: list[tuple], rng) -> Polynomial:
    terms: dict = {}
    for key in keys:
        terms[key] = terms.get(key, 0j) + complex(rng.normal(), rng.normal())
    return Polynomial(cfg, terms)


def random_holo(cfg: GroupConfig, rng, terms: int, degree: int) -> Polynomial:
    return with_coefficients(cfg, monomials(cfg, rng, terms, degree), rng)


def random_point(cfg: GroupConfig, rng, scale: float) -> GroupElement:
    w = scale * (rng.normal(size=cfg.k) + 1j * rng.normal(size=cfg.k))
    c = scale * (rng.normal(size=cfg.d) + 1j * rng.normal(size=cfg.d))
    return GroupElement(cfg, w, c)


def mc_seed(rng) -> int:
    return int(rng.integers(0, 2**62))


def path_steps(params: mc.MCParams) -> dict:
    return {"path_steps": params.paths * params.steps}


def isometry_target(alpha: FockTensor, n: int, params: mc.MCParams) -> float:
    """E|<alpha_n, M_n(T)>|^2 for the sampler's iterated integrals.

    M_n sums products of increments over strictly increasing steps, and
    E[db conj(db)] = dt with E[db db^T] = 0, so the expectation is
    C(steps, n) dt^n |alpha_n|^2 = T^n/n! |alpha_n|^2 prod_{j<n} (1 - j/steps):
    the Ito isometry on the grid, which tends to T^n/n! |alpha_n|^2.
    """
    shrink = math.prod(1.0 - j / params.steps for j in range(n))
    return params.T**n / math.factorial(n) * alpha.rank_norm_sq(n) * shrink


def mc_work(rnd) -> tuple[float, float]:
    """Path-steps of a round's estimator calls and the seconds they took."""
    steps = sum(v for k, v in rnd.counts.items() if k.startswith("mc.") and k.endswith(".path_steps"))
    busy = sum(v for k, v in rnd.busy.items() if k.startswith("mc."))
    return steps, busy


# -- mc-terminal ---------------------------------------------------------------


class MCTerminal:
    """Terminal-value estimators on the reference group and one larger random
    form: heat_mc, heat_sweep, skeleton_sweep and lp_norm_mc at p = 4 on both,
    and heat_mc_grid on the full step grid (stride 1) of the reference group,
    where its per-time-point reduction is the larger share of the call."""

    FULL = {"paths": 4096, "steps": 128, "grid_steps": 256, "form": (4, 2), "polys": 3,
            "points": 6}
    SMOKE = {"paths": 1024, "steps": 32, "grid_steps": 32, "form": (3, 2), "polys": 2,
             "points": 2}

    work = staticmethod(mc_work)

    def __init__(self, seed: int, workers: int, smoke: bool = False):
        size = self.SMOKE if smoke else self.FULL
        rng = np.random.default_rng([seed, 1])
        self.workers = workers
        self.blocks = [
            self._block(reference_config(), True, size, rng),
            self._block(random_config(*size["form"], rng), False, size, rng),
        ]
        self.first_sweep = None

    @staticmethod
    def _block(cfg: GroupConfig, reference: bool, size: dict, rng) -> dict:
        def params(steps=size["steps"]):
            return mc.MCParams(T=T, steps=steps, paths=size["paths"], seed=mc_seed(rng))

        wsq = [Polynomial.w(cfg, j).abs_sq() for j in range(1, cfg.k + 1)]
        holo = [random_holo(cfg, rng, 4, 4) for _ in range(4)]
        skel = [random_holo(cfg, rng, 3, 3) for _ in range(size["polys"])]
        points = [random_point(cfg, rng, 0.5) for _ in range(size["points"])]
        # |f|^4 of a shifted linear form: light enough tails for a 4-sigma
        # check at a few thousand paths
        lin = Polynomial.constant(cfg, complex(rng.normal(), rng.normal()))
        for j in range(1, cfg.k + 1):
            lin = lin + complex(rng.normal(), rng.normal()) * Polynomial.w(cfg, j)
        return {
            "cfg": cfg,
            "reference": reference,
            "c1sq": Polynomial.c(cfg, 1).abs_sq(),
            "sweep": wsq + holo,
            "wsq_count": len(wsq),
            "cases": [(f, h) for f in skel for h in points],
            "lin": lin,
            "p_heat": params(),
            "p_sweep": params(),
            "p_skel": params(),
            "p_lp": params(),
            "grid": (random_holo(cfg, rng, 3, 3), params(size["grid_steps"])) if reference else None,
        }

    def round(self, s: Session, index: int):
        for b in self.blocks:
            self._block_round(s, b)

    def _block_round(self, s: Session, b: dict):
        cfg, w = b["cfg"], self.workers

        est = s.call("mc.heat_mc", mc.heat_mc, cfg, b["c1sq"], b["p_heat"], workers=w,
                     work=path_steps(b["p_heat"]))
        exact = s.call("poly.heat_expectation", heat_expectation, b["c1sq"], T)
        with s.checking():
            if b["reference"]:
                s.require(abs(exact - (T + T * T / 4)) <= 1e-12, "E|c1|^2 closed form, exact")
            s.require_mc(est, exact, f"E|c1|^2 k={cfg.k}")

        ests = s.call("mc.heat_sweep", mc.heat_sweep, cfg, b["sweep"], b["p_sweep"], workers=w,
                      work=path_steps(b["p_sweep"]))
        if self.first_sweep is None and b["reference"]:
            self.first_sweep = ests
        with s.checking():
            for j, (f, e) in enumerate(zip(b["sweep"], ests)):
                if j < b["wsq_count"]:
                    s.require_mc(e, T, f"E|w{j + 1}|^2 = T, k={cfg.k}")
                else:
                    s.require_mc(e, f.constant_term(), f"mean value {j}, k={cfg.k}")

        ests = s.call("mc.skeleton_sweep", mc.skeleton_sweep, cfg, b["cases"], b["p_skel"],
                      workers=w, work=path_steps(b["p_skel"]))
        with s.checking():
            for i, ((f, h), e) in enumerate(zip(b["cases"], ests)):
                s.require_mc(e, f.eval(h), f"skeleton case {i}, k={cfg.k}")

        est = s.call("mc.lp_norm_mc", mc.lp_norm_mc, cfg, b["lin"], 4.0, b["p_lp"], workers=w,
                     work=path_steps(b["p_lp"]))
        sq = b["lin"] * b["lin"]
        F = s.call("poly.Polynomial.abs_sq", sq.abs_sq)
        by_heat = s.call("poly.heat_expectation", heat_expectation, F, T).real
        alpha = s.call("fock.taylor", taylor, sq)
        s.rec.count("fock.taylor.entries", entry_count(alpha))
        by_fock = s.call("fock.fock_norm_sq", fock_norm_sq, alpha, T)
        with s.checking():
            s.require_norms(by_heat, by_fock, f"E|f|^4 = ||f^2||^2 routes, k={cfg.k}")
            s.require_mc(est, by_fock, f"E|f|^4 k={cfg.k}")

        if b["grid"] is None:
            return
        f, p = b["grid"]
        times, ests = s.call("mc.heat_mc_grid", mc.heat_mc_grid, cfg, f, p, stride=1, workers=w,
                             work=path_steps(p))
        with s.checking():
            target = f.constant_term()
            s.require(len(ests) == p.steps + 1, "grid covers every step")
            for t, e in zip(times, ests):
                s.require_mc(e, target, f"grid mean value at t={t:.4f}, k={cfg.k}")

    def identity(self, s: Session):
        """heat_sweep on the reference group again with one worker, outside
        the timed rounds; the estimates must be bit-identical."""
        b = self.blocks[0]
        ests = mc.heat_sweep(b["cfg"], b["sweep"], b["p_sweep"], workers=1)
        with s.checking():
            s.require(ests == self.first_sweep, "heat_sweep workers=1 bit-identical")


# -- mc-chaos --------------------------------------------------------------------


class MCChaos:
    """Iterated-integral estimators on the reference group: chaos_residual
    under step doubling and chaos_isometry_mc on rank-1 to rank-4 tensors."""

    # The isometry runs on a coarse grid with many paths: its target is exact
    # on any grid (see isometry_target), and the squared pairings are heavy
    # tailed, so paths buy a steadier 4-sigma check than steps would.
    FULL = {"paths": 2048, "steps": (64, 128, 256, 512), "iso_paths": 16384, "iso_steps": 64}
    SMOKE = {"paths": 1024, "steps": (32, 64, 128), "iso_paths": 4096, "iso_steps": 32}

    # w-degree 2 and graded degree 3, so the residual has an O(dt) term and
    # the iterated integrals reach rank 3
    CHAOS_MONOMIALS = ("w1^2*w2", "w2*c1", "w1*w2")

    work = staticmethod(mc_work)

    def __init__(self, seed: int, workers: int, smoke: bool = False):
        size = self.SMOKE if smoke else self.FULL
        rng = np.random.default_rng([seed, 2])
        cfg = reference_config()
        self.cfg = cfg
        self.workers = workers
        keys = [next(iter(parse_poly(cfg, m).terms)) for m in self.CHAOS_MONOMIALS]
        self.f = with_coefficients(cfg, keys, rng)
        chaos_seed = mc_seed(rng)
        self.residual_params = [
            mc.MCParams(T=T, steps=n, paths=size["paths"], seed=chaos_seed) for n in size["steps"]
        ]
        self.alphas = [self._pure(cfg, rank, rank + 1, rng) for rank in (1, 2, 3, 4)]
        self.iso_params = mc.MCParams(
            T=T, steps=size["iso_steps"], paths=size["iso_paths"], seed=mc_seed(rng)
        )
        self.first_residual = None

    @staticmethod
    def _pure(cfg: GroupConfig, rank: int, entries: int, rng) -> FockTensor:
        comps = [dict() for _ in range(rank + 1)]
        for _ in range(entries):
            key = tuple(int(rng.integers(0, cfg.n)) for _ in range(rank))
            comps[rank][key] = complex(rng.normal(), rng.normal())
        return FockTensor(cfg, comps)

    def round(self, s: Session, index: int):
        cfg, w = self.cfg, self.workers
        residuals = []
        for p in self.residual_params:
            est = s.call("mc.chaos_residual", mc.chaos_residual, cfg, self.f, p, workers=w,
                         work=path_steps(p))
            if self.first_residual is None:
                self.first_residual = est
            residuals.append(est.mean.real)
        alpha = s.call("fock.taylor", taylor, self.f)
        s.rec.count("fock.taylor.entries", entry_count(alpha))
        norm = s.call("fock.fock_norm_sq", fock_norm_sq, alpha, T)
        F = s.call("poly.Polynomial.abs_sq", self.f.abs_sq)
        by_heat = s.call("poly.heat_expectation", heat_expectation, F, T).real
        with s.checking():
            s.require_norms(by_heat, norm, "||f||^2 routes")
            s.require(all(r > 0.0 for r in residuals), "chaos residuals positive")
            lo, hi = RATIO_BAND
            for p, a, b in zip(self.residual_params, residuals, residuals[1:]):
                s.require(lo <= a / b <= hi, f"chaos residual ratio at {p.steps} steps: {a / b:.3f}")

        ests, cov, _ = s.call("mc.chaos_isometry_mc", mc.chaos_isometry_mc, cfg, self.alphas,
                                 self.iso_params, workers=w, work=path_steps(self.iso_params))
        with s.checking():
            n_paths = self.iso_params.paths
            fourth = []
            for n, (a, e) in enumerate(zip(self.alphas, ests), start=1):
                s.require_mc(e, isometry_target(a, n, self.iso_params), f"Ito isometry rank {n}")
                # E|X|^4 from the spread of the |X|^2 samples
                fourth.append(n_paths * e.stderr**2 + abs(e.mean) ** 2)
            L = len(self.alphas)
            for i in range(L):
                for j in range(L):
                    if i != j:
                        # Cauchy-Schwarz: sd(X_i conj X_j) <= (E|X_i|^4 E|X_j|^4)^(1/4).
                        # The returned cross_stderr assumes independent
                        # pairings and is up to 3x smaller than the sample
                        # standard error, so it is not used as the scale.
                        scale = (fourth[i] * fourth[j]) ** 0.25 / math.sqrt(n_paths)
                        s.require(abs(cov[i, j]) <= SIGMAS * scale,
                                  f"cross-rank covariance ({i + 1},{j + 1}): "
                                  f"{abs(cov[i, j]) / scale:.2f} bound-sigma")

    def identity(self, s: Session):
        """The coarsest chaos_residual again with one worker, outside the timed
        rounds; the estimate must be bit-identical."""
        est = mc.chaos_residual(self.cfg, self.f, self.residual_params[0], workers=1)
        with s.checking():
            s.require(est == self.first_residual, "chaos_residual workers=1 bit-identical")


# -- exact-calculus ----------------------------------------------------------------


class ExactCalculus:
    """The exact routes only: per polynomial abs_sq, heat_expectation, taylor,
    fock_norm_sq, j0_residual and inverse_taylor; projection_convergence on a
    k=6 form; distance_upper and bargmann_check on pointwise bound cases."""

    # (k, d, graded degree) per polynomial slot; (2, 1) is the reference group
    FULL = {"slots": [(2, 1, 2), (2, 1, 4), (2, 1, 6), (2, 1, 8), (3, 1, 3), (3, 1, 5),
                      (3, 2, 2), (3, 2, 4)], "proj_k": 6, "bounds": 3}
    SMOKE = {"slots": [(2, 1, 2), (2, 1, 4), (3, 2, 3)], "proj_k": 6, "bounds": 1}
    TERMS = 3
    SEGMENTS = 2
    RESTARTS = 2
    PIPELINE = ("poly.Polynomial.abs_sq", "poly.heat_expectation", "fock.taylor",
                "fock.fock_norm_sq", "fock.j0_residual", "fock.inverse_taylor")

    def __init__(self, seed: int, workers: int, smoke: bool = False):
        size = self.SMOKE if smoke else self.FULL
        self.seed = seed
        self.bounds = size["bounds"]
        self.proj_k = size["proj_k"]
        self.ref = reference_config()
        # The monomial pattern of every slot is fixed, so the work per round
        # does not depend on the seed; coefficients and forms do.
        pattern = np.random.default_rng(20080929)
        self.slots = []
        for k, d, degree in size["slots"]:
            shape = GroupConfig(k, d, np.zeros((d, k, k)))
            self.slots.append((k, d, monomials(shape, pattern, self.TERMS, degree)))
        shape = GroupConfig(self.proj_k, 1, np.zeros((1, self.proj_k, self.proj_k)))
        # the anchor terms w_k*w_(k-1) + w_k*c1 keep the first totals non-zero
        k = self.proj_k
        anchors = (f"w{k}*w{k - 1}", f"w{k}*c1")
        self.proj_keys = monomials(shape, pattern, 3, 2) + [
            next(iter(parse_poly(shape, a).terms)) for a in anchors
        ]
        self.bound_keys = monomials(self.ref, pattern, 4, 4)

    def _inputs(self, index: int) -> dict:
        """Inputs of round `index`, drawn from (seed, index)."""
        rng = np.random.default_rng([self.seed, 3, index])
        polys = []
        forms = {(2, 1): self.ref}
        for k, d, keys in self.slots:
            if (k, d) not in forms:
                forms[(k, d)] = random_config(k, d, rng)
            cfg = forms[(k, d)]
            polys.append((with_coefficients(cfg, keys, rng), float(rng.choice([0.5, 1.0, 2.0]))))
        proj_cfg = random_config(self.proj_k, 1, rng)
        proj_f = with_coefficients(proj_cfg, self.proj_keys, rng)
        cases = [
            (with_coefficients(self.ref, self.bound_keys, rng), random_point(self.ref, rng, 0.7),
             float(rng.choice([0.5, 1.0, 2.0])))
            for _ in range(self.bounds)
        ]
        return {"polys": polys, "proj": (proj_cfg, proj_f), "cases": cases}

    def round(self, s: Session, index: int):
        # Every call here is single-threaded. Each one runs on the next CPU in
        # turn, so that a round samples all CPUs: on a shared host the speed
        # of one CPU can halve for tens of seconds while the other's does not.
        cpus = sorted(os.sched_getaffinity(0))
        turn = itertools.cycle(cpus)

        def call(*args, **kwargs):
            os.sched_setaffinity(0, {next(turn)})
            return s.call(*args, **kwargs)

        try:
            self._round(s, index, call)
        finally:
            os.sched_setaffinity(0, cpus)

    def _round(self, s: Session, index: int, call):
        with s.rec.span("bench.inputs"):
            inp = self._inputs(index)
        for f, t in inp["polys"]:
            self._pipeline(s, f, t, call)
        cfg, f = inp["proj"]
        rows = call("projection.projection_convergence", projection_convergence, cfg, f, T)
        with s.checking():
            totals = [r["total"] for r in rows]
            s.require(len(rows) == cfg.k, "one projection row per N")
            s.require(all(a >= b - 1e-12 for a, b in zip(totals, totals[1:])),
                      "projection totals do not increase")
            s.require(totals[-1] == 0.0, "projection total exactly 0 at N = k")
        for i, (f, h, t) in enumerate(inp["cases"]):
            d_up = call("geometry.distance_upper", distance_upper, self.ref, h,
                        segments=self.SEGMENTS, restarts=self.RESTARTS, seed=i)
            row = call("geometry.bargmann_check", bargmann_check, self.ref, f, h, t, d_up=d_up)
            with s.checking():
                dw = float(np.linalg.norm(h.w))
                s.require(dw <= d_up <= h.norm() * (1 + 1e-12), f"|dw| <= d_up <= |h|, case {i}")
                s.require(row["pass"] and row["value"] <= row["bound"], f"Bargmann bound, case {i}")

    @staticmethod
    def _pipeline(s: Session, f: Polynomial, t: float, call):
        F = call("poly.Polynomial.abs_sq", f.abs_sq)
        by_heat = call("poly.heat_expectation", heat_expectation, F, t).real
        alpha = call("fock.taylor", taylor, f)
        s.rec.count("fock.taylor.entries", entry_count(alpha))
        by_fock = call("fock.fock_norm_sq", fock_norm_sq, alpha, t)
        residual = call("fock.j0_residual", j0_residual, alpha)
        back = call("fock.inverse_taylor", inverse_taylor, alpha)
        s.rec.count("bench.exact_polys", 1)
        with s.checking():
            s.require_norms(by_heat, by_fock, f"norm identity, k={f.config.k} d={f.config.d}")
            s.require(residual <= J0_TOL, f"j0_residual {residual:.2e}")
            s.require(back.close_to(f, ROUNDTRIP_TOL), "inverse_taylor(taylor(f)) == f")

    def work(self, rnd) -> tuple[float, float]:
        """Polynomials through the exact pipeline and the seconds it took."""
        return rnd.counts["bench.exact_polys"], sum(rnd.busy.get(n, 0.0) for n in self.PIPELINE)

    def identity(self, s: Session):
        """No Monte Carlo runs here, so there is no worker count to vary."""


def entry_count(alpha: FockTensor) -> int:
    return sum(len(component) for component in alpha.ranks)


WORKLOADS = {
    "mc-terminal": MCTerminal,
    "mc-chaos": MCChaos,
    "exact-calculus": ExactCalculus,
}


def build(name: str, seed: int, workers: int, smoke: bool = False):
    return WORKLOADS[name](seed, workers, smoke)
