"""Command-line front end.

Subcommands cover the core experiments: exact heat expectations vs Monte
Carlo (simulate), Taylor tensors (taylor), the norm identity (isometry),
reproduction of point values from translated averages (skeleton), chaos
reconstruction residuals (chaos), projection convergence (project), pointwise
growth bounds (bounds), and a one-shot battery (verify-all).

Output is CSV (default) or JSON. Every volatile detail (timestamps) lives in
`#` comment lines, so CSV bodies from identical invocations compare
byte-identical regardless of worker count.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from datetime import datetime, timezone

import numpy as np

from .group import GroupConfig, GroupElement, _check_count, _check_seed
from .poly import Polynomial, parse_poly, heat_expectation
from .fock import (
    FockTensor,
    taylor,
    fock_norm_sq,
    j0_residual,
    grading_pullback,
    fejer_truncate,
)
from . import mc
from .projection import projection_convergence
from .geometry import bargmann_check, gaussian_bound_check, distance_upper

UNIFIED_COLUMNS = [
    "experiment",
    "config_hash",
    "T",
    "steps",
    "paths",
    "seed",
    "target",
    "estimate_re",
    "estimate_im",
    "stderr",
    "pass",
]

BOUNDS_COLUMNS = ["point", "|f|", "bound", "margin", "d_upper", "pass"]

PROJECT_COLUMNS = ["experiment", "config_hash", "N", "dim", "total", "pass"]

TAYLOR_COLUMNS = ["rank", "indices", "re", "im"]

DEFAULT_CONFIG = {
    "k": 2,
    "d": 1,
    "omega": [[[[0.0, 0.0], [1.0, 0.0]], [[-1.0, 0.0], [0.0, 0.0]]]],
}


def load_config(path: str | None) -> GroupConfig:
    if path is None:
        return GroupConfig.from_dict(DEFAULT_CONFIG)
    with open(path) as fh:
        data = json.load(fh)
    return GroupConfig.from_dict(data)


def parse_point(config: GroupConfig, text: str) -> GroupElement:
    """Point syntax: w and c blocks separated by ';', coordinates by ',',
    each a Python complex literal, e.g. '0.3+0.2j,-0.1j;0.5-0.4j'."""
    parts = text.split(";")
    if len(parts) != 2:
        raise ValueError("point must be 'w1,..,wk;c1,..,cd'")
    w = np.array([complex(t.strip()) for t in parts[0].split(",")], complex)
    c = np.array([complex(t.strip()) for t in parts[1].split(",")], complex)
    return GroupElement(config, w, c)


def format_point(h: GroupElement) -> str:
    def fmt(z: complex) -> str:
        return f"{z.real:.12g}{z.imag:+.12g}j"

    return ",".join(fmt(z) for z in h.w) + ";" + ",".join(fmt(z) for z in h.c)


def format_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return repr(z.real)
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}j"


def _row(
    experiment: str,
    config: GroupConfig,
    target: complex,
    estimate: complex,
    passed: bool,
    *,
    stderr: float = 0.0,
    T: float = 0.0,
    steps: int = 0,
    paths: int = 0,
    seed: int = 0,
) -> dict:
    """One row of UNIFIED_COLUMNS."""
    estimate = complex(estimate)
    return {
        "experiment": experiment,
        "config_hash": config.config_hash,
        "T": T,
        "steps": steps,
        "paths": paths,
        "seed": seed,
        "target": format_complex(target),
        "estimate_re": estimate.real,
        "estimate_im": estimate.imag,
        "stderr": stderr,
        "pass": passed,
    }


def _mc_row(
    experiment: str,
    config: GroupConfig,
    params: mc.MCParams,
    target: complex,
    est: mc.MCEstimate,
) -> dict:
    """Unified row for an MC estimate: `pass` reports the 3-sigma band, a
    miss inside 4 sigma keeps pass but tags the row, beyond 4 sigma fails."""
    soft = est.within(target, 3.0)
    hard = est.within(target, 4.0)
    name = experiment if soft else (experiment + ":hard4sigma" if hard else experiment)
    return _row(name, config, target, est.mean, bool(hard), stderr=est.stderr,
                T=params.T, steps=params.steps, paths=params.paths, seed=params.seed)


def _exact_row(
    experiment: str, config: GroupConfig, target: complex, estimate: complex, tol: float,
    T: float = 0.0,
) -> dict:
    gap = abs(complex(estimate) - complex(target))
    scale = max(1.0, abs(complex(target)))
    return _row(experiment, config, target, estimate, bool(gap <= tol * scale), T=T)


def _chaos_rows(
    config: GroupConfig, f: Polynomial, cases: list[tuple[str, int]], T: float, paths: int,
    seed: int, workers: int,
) -> list[dict]:
    """One residual row per (name, steps) case, then one "chaos:ratio" row
    per pair of neighbouring cases. The residual is O(dt), so a ratio of
    residuals at a step count and its double should be near 2. It passes in
    [1.4, 2.8], or when the coarser residual is already at rounding level
    (<= 1e-20, e.g. for a polynomial linear in w), where the ratio is noise."""
    rows, means = [], []
    for name, steps in cases:
        est = mc.chaos_residual(config, f, mc.MCParams(T, steps, paths, seed), workers)
        means.append(est.mean.real)
        rows.append(_row(name, config, 0.0, est.mean.real, True, stderr=est.stderr,
                         T=T, steps=steps, paths=paths, seed=seed))
    for coarse, fine in zip(means[:-1], means[1:]):
        ratio = coarse / fine if fine > 0 else float("inf")
        good = 1.4 <= ratio <= 2.8 or coarse <= 1e-20
        rows.append(_row("chaos:ratio", config, 2.0, ratio if ratio != float("inf") else 0.0,
                         bool(good), T=T, paths=paths, seed=seed))
    return rows


def _average_rows(
    config: GroupConfig, cases: list[tuple[str, Polynomial, GroupElement, complex]],
    params: mc.MCParams, workers: int,
) -> list[dict]:
    """One row per (name, f, h, target) case: the translated heat average
    E f(h . g(T)) from one shared simulation against its target. At h = e it
    is the heat average, whose target is the exact heat expectation; for
    holomorphic f the skeleton target is the point value f(h)."""
    ests = mc.skeleton_sweep(config, [(f, h) for _, f, h, _ in cases], params, workers)
    return [_mc_row(name, config, params, target, est)
            for (name, _, _, target), est in zip(cases, ests)]


def _isometry_rows(
    name: str, config: GroupConfig, f: Polynomial, alpha: FockTensor, T: float,
    params: mc.MCParams | None = None, workers: int = 1,
) -> list[dict]:
    """The norm identity of holomorphic f at time T: the exact heat expectation
    of |f|^2 against the Fock norm of its Taylor tensor alpha (the first row's
    estimate), plus an "isometry:mc" row of the same expectation given params."""
    sq = f.abs_sq()
    exact = heat_expectation(sq, T).real
    rows = [_exact_row(name, config, exact, fock_norm_sq(alpha, T), 1e-9, T=T)]
    if params is not None:
        case = ("isometry:mc", sq, config.identity(), exact)
        rows += _average_rows(config, [case], params, workers)
    return rows


def write_rows(rows: list[dict], columns: list[str], fmt: str, out, comments: list[str]):
    if fmt == "json":
        json.dump(rows, out, indent=2, default=str)
        out.write("\n")
        return
    for line in comments:
        out.write(f"# {line}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row.get(col, "") for col in columns])


def _comments(config: GroupConfig, args) -> list[str]:
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    return [
        f"generated {stamp}",
        f"config_hash {config.config_hash} k={config.k} d={config.d}",
        f"command {args.command}",
    ]


def _random_holo_poly(config: GroupConfig, rng) -> Polynomial:
    """Sparse random holomorphic polynomial of four terms, each of graded
    degree 1 to 3."""
    out = Polynomial.zero(config)
    k, d, n = config.k, config.d, config.n
    for _ in range(4):
        key = [0] * (2 * n)
        budget = int(rng.integers(1, 4))
        while budget > 0:
            if budget >= 2 and rng.random() < 0.35:
                key[k + int(rng.integers(0, d))] += 1
                budget -= 2
            else:
                key[int(rng.integers(0, k))] += 1
                budget -= 1
        coeff = complex(rng.normal(), rng.normal())
        out = out + Polynomial(config, {tuple(key): coeff})
    if out.is_zero():
        out = Polynomial.coordinate(config, 0)
    return out


def cmd_simulate(config: GroupConfig, args) -> tuple[list[dict], list[str]]:
    f = parse_poly(config, args.poly)
    params = mc.MCParams(args.T, args.steps, args.paths, args.seed)
    case = ("simulate", f, config.identity(), heat_expectation(f, args.T))
    return _average_rows(config, [case], params, args.workers), UNIFIED_COLUMNS


def cmd_taylor(config: GroupConfig, args) -> tuple[list[dict], list[str]]:
    f = parse_poly(config, args.poly)
    alpha = taylor(f, args.maxrank)
    rows = [
        {
            "rank": rank,
            "indices": " ".join(str(i) for i in key),
            "re": re,
            "im": im,
        }
        for rank, key, (re, im) in alpha.to_records()
    ]
    return rows, TAYLOR_COLUMNS


def cmd_isometry(config: GroupConfig, args) -> tuple[list[dict], list[str]]:
    f = parse_poly(config, args.poly)
    if not f.is_holomorphic():
        raise ValueError("isometry applies to holomorphic polynomials")
    params = mc.MCParams(args.T, args.steps, args.paths, args.seed) if args.paths else None
    rows = _isometry_rows("isometry:exact", config, f, taylor(f), args.T, params, args.workers)
    return rows, UNIFIED_COLUMNS


def cmd_skeleton(config: GroupConfig, args) -> tuple[list[dict], list[str]]:
    f = parse_poly(config, args.poly)
    h = parse_point(config, args.point)
    params = mc.MCParams(args.T, args.steps, args.paths, args.seed)
    case = ("skeleton", f, h, f.eval(h))
    return _average_rows(config, [case], params, args.workers), UNIFIED_COLUMNS


def cmd_chaos(config: GroupConfig, args) -> tuple[list[dict], list[str]]:
    f = parse_poly(config, args.poly)
    try:
        cases = [("chaos:residual", int(s)) for s in args.steps_list.split(",")]
    except ValueError:
        raise ValueError(f"--steps-list must list integers, got {args.steps_list!r}") from None
    rows = _chaos_rows(config, f, cases, args.T, args.paths, args.seed, args.workers)
    return rows, UNIFIED_COLUMNS


def cmd_project(config: GroupConfig, args) -> tuple[list[dict], list[str]]:
    f = parse_poly(config, args.poly)
    table = projection_convergence(config, f, T=args.T)
    rows = []
    prev = float("inf")
    for entry in table:
        good = entry["total"] <= prev + 1e-12
        if entry["N"] == config.k:
            good = good and entry["total"] <= 1e-12
        prev = entry["total"]
        rows.append(
            {
                "experiment": "project",
                "config_hash": config.config_hash,
                "N": entry["N"],
                "dim": entry["dim"],
                "total": entry["total"],
                "pass": bool(good),
            }
        )
    return rows, PROJECT_COLUMNS


def cmd_bounds(config: GroupConfig, args) -> tuple[list[dict], list[str]]:
    _check_count("count", args.count)
    _check_seed("--seed", args.seed, args.count - 1)  # case i uses seed + i
    rng = np.random.default_rng(args.seed)
    rows = []
    for i in range(args.count):
        f = _random_holo_poly(config, rng)
        w = 0.7 * (rng.normal(size=config.k) + 1j * rng.normal(size=config.k))
        c = 0.7 * (rng.normal(size=config.d) + 1j * rng.normal(size=config.d))
        h = GroupElement(config, w, c)
        T = float(rng.choice([0.5, 1.0, 2.0]))
        d_up = distance_upper(config, h, segments=3, restarts=2, seed=args.seed + i)
        if args.p == 2.0:
            row = bargmann_check(config, f, h, T, d_up=d_up)
        else:
            params = mc.MCParams(T, args.steps, args.paths, args.seed + i)
            row = gaussian_bound_check(
                config, f, h, T, p=args.p, params=params, workers=args.workers, d_up=d_up
            )
        rows.append(
            {
                "point": format_point(h),
                "|f|": row["value"],
                "bound": row["bound"],
                "margin": row["margin"],
                "d_upper": row["d_upper"],
                "pass": row["pass"],
            }
        )
    return rows, BOUNDS_COLUMNS


def cmd_verify_all(config: GroupConfig, args) -> tuple[list[dict], list[str]]:
    """Reduced battery touching every experiment; deterministic given seed."""
    rows: list[dict] = []
    seed = args.seed
    _check_seed("--seed", seed, 5)  # the steps below use seed + 1 .. seed + 5
    workers = args.workers
    rng = np.random.default_rng(seed)
    polys = [_random_holo_poly(config, rng) for _ in range(3)]

    # exact layer: norm identity, tensor relations, truncation invariants
    for i, f in enumerate(polys):
        alpha = taylor(f)
        iso = _isometry_rows(f"isometry:exact:{i}", config, f, alpha, 1.0)[0]
        fock = iso["estimate_re"]  # the Fock norm of alpha at T = 1
        cut = fejer_truncate(alpha, max(alpha.maxrank, 1))
        rows += [
            iso,
            _exact_row(f"j0:{i}", config, 0.0, j0_residual(alpha), 1e-10),
            _exact_row(f"grading:{i}", config, fock,
                       fock_norm_sq(grading_pullback(alpha, 0.7), 1.0), 1e-12, T=1.0),
            _exact_row(f"fejer:{i}", config, alpha.scalar, cut.scalar, 1e-12),
        ]

    # heat kernel MC against the exact expectation, then the skeleton at a
    # fixed off-center point, all on one simulation of the same paths
    params = mc.MCParams(1.0, 256, args.paths, seed + 1)
    e = config.identity()
    c1 = parse_poly(config, "c1*cbar1")
    h = GroupElement(config, np.linspace(0.2, 0.4, config.k) + 0.1j,
                     np.linspace(-0.3, 0.1, config.d) - 0.2j)
    cases = [("simulate:c1", c1, e, heat_expectation(c1, 1.0))]
    cases += [(f"meanvalue:{i}", f, e, heat_expectation(f, 1.0)) for i, f in enumerate(polys)]
    cases += [(f"skeleton:{i}", f, h, f.eval(h)) for i, f in enumerate(polys)]
    rows += _average_rows(config, cases, params, workers)

    # iterated-integral isometry, ranks 1..2
    alphas = []
    for r in (1, 2):
        comps = [dict() for _ in range(r + 1)]
        for _ in range(2):
            key = tuple(int(x) for x in rng.integers(0, config.n, size=r))
            comps[r][key] = complex(rng.normal(), rng.normal())
        alphas.append(FockTensor(config, comps))
    iso_params = mc.MCParams(1.0, 256, args.paths, seed + 2)
    ests, cov, cstd = mc.chaos_isometry_mc(config, alphas, iso_params, workers)
    fact = 1.0
    for r, (a, est) in enumerate(zip(alphas, ests), start=1):
        fact *= r
        tgt = a.rank_norm_sq(r) / fact
        rows.append(_mc_row(f"ito:{r}", config, iso_params, tgt, est))
    cross_est = mc.MCEstimate(complex(cov[0, 1]), float(cstd[0, 1]), iso_params.paths)
    rows.append(_mc_row("ito:cross", config, iso_params, 0.0, cross_est))

    # chaos residual ratio on a fixed quadratic
    fq = parse_poly(config, "w1^2 + w1*c1")
    cases = [(f"chaos:residual:{steps}", steps) for steps in (128, 256)]
    rows += _chaos_rows(config, fq, cases, 1.0, max(args.paths // 2, 500), seed + 3, workers)

    # gaussian moments of the flat part
    phi = rng.normal(size=config.k) + 1j * rng.normal(size=config.k)
    gauss_params = mc.MCParams(1.0, 1, args.paths, seed + 4)
    for row in mc.gaussian_moment_check(config, phi, gauss_params, workers):
        est = mc.MCEstimate(row["estimate"], row["stderr"], args.paths)
        rows.append(_mc_row(f"gauss:{row['moment']}", config, gauss_params, row["target"], est))

    # projection convergence endpoint
    table = projection_convergence(config, polys[0], T=1.0)
    rows.append(_exact_row("project:final", config, 0.0, table[-1]["total"], 1e-12))

    # pointwise bounds mapped into the unified shape: estimate |f|, target
    # bound; both rows share the point h, so its distance bound is found once
    d_up = distance_upper(config, h, segments=3, restarts=2, seed=seed + 5)
    for i in range(2):
        row = bargmann_check(config, polys[i], h, 1.0, d_up=d_up)
        rows.append(_row(f"bounds:{i}", config, row["bound"], row["value"], row["pass"],
                         T=1.0, seed=seed + 5))

    return rows, UNIFIED_COLUMNS


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--config", help="JSON config file (defaults to the built-in k=2, d=1 form)"
    )
    shared.add_argument("--out", help="output file (defaults to stdout)")
    shared.add_argument("--format", choices=["csv", "json"], default="csv")
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument("--workers", type=int, default=1)

    parser = argparse.ArgumentParser(
        prog="holoheis",
        description="Holomorphic function calculus and diffusion experiments "
        "on step-two complex groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, help):
        return sub.add_parser(name, help=help, parents=[shared])

    p = add_parser("simulate", help="heat-kernel Monte Carlo vs the exact expectation")
    p.add_argument("--poly", required=True)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=256)
    p.add_argument("--paths", type=int, default=20000)

    p = add_parser("taylor", help="derivative tensor of a holomorphic polynomial")
    p.add_argument("--poly", required=True)
    p.add_argument("--maxrank", type=int, default=None)

    p = add_parser("isometry", help="norm identity, exact and optionally MC")
    p.add_argument("--poly", required=True)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=256)
    p.add_argument("--paths", type=int, default=0)

    p = add_parser("skeleton", help="translated average vs the point value")
    p.add_argument("--poly", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=256)
    p.add_argument("--paths", type=int, default=20000)

    p = add_parser("chaos", help="reconstruction residual across step counts")
    p.add_argument("--poly", required=True)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--steps-list", default="256,512,1024")
    p.add_argument("--paths", type=int, default=5000)

    p = add_parser("project", help="convergence of projected coefficients")
    p.add_argument("--poly", required=True)
    p.add_argument("--T", type=float, default=1.0)

    p = add_parser("bounds", help="pointwise growth bound sweep")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--steps", type=int, default=128)
    p.add_argument("--paths", type=int, default=20000)

    p = add_parser("verify-all", help="reduced battery over all experiments")
    p.add_argument("--paths", type=int, default=4000)

    return parser


# Each handler returns (rows, columns); main exits 1 when a row fails.
HANDLERS = {
    "simulate": cmd_simulate,
    "taylor": cmd_taylor,
    "isometry": cmd_isometry,
    "skeleton": cmd_skeleton,
    "chaos": cmd_chaos,
    "project": cmd_project,
    "bounds": cmd_bounds,
    "verify-all": cmd_verify_all,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # GroupConfig's messages carry their own "config:"
        print(exc, file=sys.stderr)
        return 2
    try:
        _check_count("workers", args.workers)
        rows, columns = HANDLERS[args.command](config, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    buffer = io.StringIO()
    write_rows(rows, columns, args.format, buffer, _comments(config, args))
    text = buffer.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    # rows without a verdict (taylor) fail nothing
    return 1 if any(not row.get("pass", True) for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
