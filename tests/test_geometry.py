"""Path lengths, the distance upper bound, and pointwise growth bounds."""

import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import check_grad, minimize

from holoheis.group import GroupConfig, GroupElement, group_inv, group_mul
from holoheis.poly import parse_poly
from holoheis.mc import MCParams
from holoheis import geometry
from holoheis.geometry import (
    path_length,
    distance_upper,
    c_factor,
    bargmann_check,
    gaussian_bound_check,
)

SKEW = np.array([[[0.0, 1.0], [-1.0, 0.0]]], dtype=complex)


def heis():
    return GroupConfig(2, 1, SKEW)


def elem(cfg, w, c):
    return GroupElement(cfg, np.asarray(w, complex), np.asarray(c, complex))


def test_distance_upper_loads_no_scipy_and_keeps_its_value():
    # in a fresh interpreter the bound loads no scipy module; it is pinned
    # bit for bit, at no more than the 0.7386081534998611 of scipy's BFGS
    script = (
        "import sys\n"
        "from holoheis import GroupConfig, GroupElement, distance_upper\n"
        "cfg = GroupConfig(2, 1, [[[0.0, 1.0], [-1.0, 0.0]]])\n"
        "h = GroupElement(cfg, [0.3 + 0.2j, -0.1j], [0.5 - 0.4j])\n"
        "print(repr(distance_upper(cfg, h, segments=4, restarts=3, seed=7)))\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    value, loaded = proc.stdout.splitlines()
    assert float(value) == 0.7386081534998611 and loaded == "[]"


def test_c_factor_reference_values():
    assert c_factor(0.0) == 1.0
    assert c_factor(1.0) == pytest.approx(1.0 / (math.e - 1.0), abs=1e-15)
    assert c_factor(-1.0) == pytest.approx(-1.0 / math.expm1(-1.0), abs=1e-15)
    # decreasing in t
    ts = np.linspace(-3, 3, 13)
    vals = [c_factor(t) for t in ts]
    assert all(a > b for a, b in zip(vals[:-1], vals[1:]))


def test_straight_segment_length():
    cfg = heis()
    h = elem(cfg, [1.0, 2.0j], [0.5 + 0.5j])
    expected = math.sqrt(1.0 + 4.0 + 0.5)
    assert path_length(cfg, [cfg.identity(), h]) == pytest.approx(expected, abs=1e-12)

    # several segments on a random form, against a Riemann sum of the left
    # increments g(t_i)^-1 g(t_i+1) over a fine grid of each segment
    rng = np.random.default_rng(8)
    raw = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    cfg = GroupConfig(3, 2, raw - np.transpose(raw, (0, 2, 1)))
    z = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
    points = [cfg.identity()] + [elem(cfg, row[:3], row[3:]) for row in z]
    fine = 0.0
    for a, b in zip(points[:-1], points[1:]):
        grid = [elem(cfg, a.w + t * (b.w - a.w), a.c + t * (b.c - a.c))
                for t in np.linspace(0.0, 1.0, 2001)]
        fine += sum(group_mul(group_inv(g0), g1).norm() for g0, g1 in zip(grid[:-1], grid[1:]))
    assert path_length(cfg, points) == pytest.approx(fine, rel=1e-12)


def test_length_invariant_under_splitting():
    # chart-linear segments have constant speed, so midpoints change nothing
    cfg = heis()
    h = elem(cfg, [1.0, -1.0 + 1j], [0.25j])
    mid = elem(cfg, h.w / 2, h.c / 2)
    one = path_length(cfg, [cfg.identity(), h])
    two = path_length(cfg, [cfg.identity(), mid, h])
    assert one == pytest.approx(two, abs=1e-12)


def test_path_length_of_two_points():
    cfg = heis()
    h = elem(cfg, [1.0, 0.0], [0.0])
    assert path_length(cfg, [cfg.identity(), h]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("count", [0, 1])
def test_path_length_rejects_fewer_than_two_points_by_count(count):
    cfg = heis()
    with pytest.raises(ValueError, match=f"at least two points, got {count}"):
        path_length(cfg, [cfg.identity()] * count)


def test_left_translation_changes_nothing_for_flat_paths():
    # pure translation in w with no form coupling: length is the chord norm
    cfg = heis()
    a = elem(cfg, [0.3, 0.1j], [0.0])
    b = elem(cfg, [0.3 + 1.0, 0.1j], [0.15j])
    seg = path_length(cfg, [a, b])
    dw = b.w - a.w
    dc = b.c - a.c - 0.5 * cfg.omega_form(a.w, dw)
    expected = math.sqrt(float(np.sum(np.abs(dw) ** 2) + np.sum(np.abs(dc) ** 2)))
    assert seg == pytest.approx(expected, abs=1e-12)


def test_distance_upper_never_beats_zero_and_caps_at_straight():
    cfg = heis()
    assert distance_upper(cfg, cfg.identity(), segments=3) == 0.0
    h = elem(cfg, [1.0, 2.0j], [0.5 + 0.5j])
    straight = path_length(cfg, [cfg.identity(), h])
    d = distance_upper(cfg, h, segments=4, restarts=2)
    assert 0.0 < d <= straight + 1e-12


def test_distance_upper_improves_with_coupling():
    # for points with both w and c mass the optimizer finds a shorter route
    cfg = heis()
    h = elem(cfg, [1.0, 1.0], [1.0])
    straight = path_length(cfg, [cfg.identity(), h])
    d = distance_upper(cfg, h, segments=4, restarts=3)
    assert d < straight - 1e-3


def test_distance_upper_deterministic():
    cfg = heis()
    h = elem(cfg, [0.8, -0.4j], [0.3])
    a = distance_upper(cfg, h, segments=3, restarts=2, seed=5)
    b = distance_upper(cfg, h, segments=3, restarts=2, seed=5)
    assert a == b


@pytest.mark.parametrize(
    "kwargs, pattern",
    [
        (dict(segments=2.5), r"segments must be an integer >= 1, got 2\.5"),
        (dict(segments=0), r"segments must be an integer >= 1, got 0"),
        (dict(restarts=0), r"restarts must be an integer >= 1, got 0"),
        (dict(restarts=1.5), r"restarts must be an integer >= 1, got 1\.5"),
        (dict(segments=True), r"segments must be an integer >= 1, got True"),
    ],
    ids=["segments_2.5", "segments_0", "restarts_0", "restarts_1.5", "segments_True"],
)
def test_distance_upper_rejects_bad_counts_by_name(kwargs, pattern):
    cfg = heis()
    h = elem(cfg, [0.8, -0.4j], [0.3])
    with pytest.raises(ValueError, match=pattern):
        distance_upper(cfg, h, **kwargs)


def random_form(seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    return GroupConfig(3, 2, raw - np.transpose(raw, (0, 2, 1)))


@pytest.mark.parametrize("cfg", [heis(), random_form(11)], ids=["reference", "random_k3_d2"])
def test_length_gradient_against_finite_differences(cfg):
    rng = np.random.default_rng(12)
    h = elem(cfg, rng.normal(size=cfg.k) + 1j * rng.normal(size=cfg.k),
             rng.normal(size=cfg.d) + 1j * rng.normal(size=cfg.d))
    for _ in range(3):
        # three interior waypoints
        x = rng.normal(size=3 * 2 * cfg.n)
        length, grad = geometry._objective(x, cfg, h)
        assert length == geometry._length(cfg, *geometry._waypoints(cfg, h, x))
        err = check_grad(lambda y: geometry._objective(y, cfg, h)[0],
                         lambda y: geometry._objective(y, cfg, h)[1], x)
        assert err <= 1e-5 * np.linalg.norm(grad)


def test_length_gradient_finite_at_coincident_waypoints():
    cfg = random_form(13)
    h = elem(cfg, [0.3, 0.5j, -0.2], [0.4, 0.1j])
    hz = np.concatenate([h.w, h.c])
    # interior waypoints 1 and 2 coincide, and waypoint 3 sits on h
    z = np.stack([0.4 * hz, 0.4 * hz, hz])
    length, grad = geometry._objective(np.concatenate([z.real, z.imag]).ravel(), cfg, h)
    assert np.all(np.isfinite(grad))
    assert length == pytest.approx(path_length(cfg, [cfg.identity(), h]), rel=1e-12)


@pytest.mark.parametrize(
    "cfg, w, c, segments",
    [
        (heis(), [1.0, 1.0], [1.0], 3),
        (heis(), [1.2, 0.3 - 0.3j], [0.9j], 3),
        (random_form(4), [0.3, 0.5j, -0.2], [0.4, 0.1j], 2),
        (random_form(4), [0.6, -0.1, 0.2j], [0.2 - 0.3j, 0.5], 3),
    ],
    ids=["reference_a", "reference_b", "random_k3_d2_a", "random_k3_d2_b"],
)
def test_distance_upper_converges_to_an_uncapped_nelder_mead(cfg, w, c, segments):
    # an independent minimizer of the public path_length, from the same
    # straight start, run until its simplex shrinks below 1e-12
    h = elem(cfg, w, c)
    hz = np.concatenate([h.w, h.c])

    def length(x):
        z = (x[: x.size // 2] + 1j * x[x.size // 2:]).reshape(-1, cfg.n)
        inner = [elem(cfg, row[: cfg.k], row[cfg.k:]) for row in z]
        return path_length(cfg, [cfg.identity(), *inner, h])

    straight = np.concatenate([(i / segments) * hz for i in range(1, segments)])
    res = minimize(
        length,
        np.concatenate([straight.real, straight.imag]),
        method="Nelder-Mead",
        options={"maxiter": 10**7, "maxfev": 10**7, "xatol": 1e-12, "fatol": 1e-15,
                 "adaptive": True},
    )
    assert res.status == 0
    d_up = distance_upper(cfg, h, segments=segments, restarts=1)
    assert d_up == pytest.approx(res.fun, rel=1e-8)
    assert float(np.linalg.norm(h.w)) <= d_up <= path_length(cfg, [cfg.identity(), h])


def scipy_distance_upper(cfg, h, segments, restarts, seed):
    """distance_upper with each restart run by scipy's BFGS at gtol 1e-10:
    the same straight start, seeded perturbations and candidates."""
    straight = path_length(cfg, [cfg.identity(), h])
    hz = np.concatenate([h.w, h.c])
    pts = np.concatenate([(i / segments) * hz for i in range(1, segments)])
    x0 = np.concatenate([pts.real, pts.imag])
    scale = 0.3 * (1.0 + float(np.linalg.norm(hz)))
    rng = np.random.default_rng(seed)
    best = straight
    for r in range(restarts):
        start = x0 if r == 0 else x0 + scale * rng.standard_normal(x0.size)
        res = minimize(geometry._objective, start, args=(cfg, h), jac=True, method="BFGS",
                       options={"gtol": 1e-10})
        best = min(best, geometry._length(cfg, *geometry._waypoints(cfg, h, res.x)))
    return best


def test_distance_upper_matches_scipy_bfgs_on_a_battery():
    # 60 cases with (k, d) up to (8, 3), scales 0.1-5, 2-5 segments and 1-4
    # restarts; case 0 has w = 0, where the straight path is a geodesic
    rng = np.random.default_rng(2024)
    for i in range(60):
        k, d = int(rng.integers(2, 9)), int(rng.integers(1, 4))
        raw = rng.normal(size=(d, k, k)) + 1j * rng.normal(size=(d, k, k))
        cfg = GroupConfig(k, d, raw - np.transpose(raw, (0, 2, 1)))
        scale = float(rng.uniform(0.1, 5.0))
        w = scale * (rng.normal(size=k) + 1j * rng.normal(size=k)) / math.sqrt(k)
        c = scale * (rng.normal(size=d) + 1j * rng.normal(size=d)) / math.sqrt(d)
        h = elem(cfg, 0 * w if i == 0 else w, c)
        segments, restarts = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        d_up = distance_upper(cfg, h, segments=segments, restarts=restarts, seed=i)
        ref = scipy_distance_upper(cfg, h, segments, restarts, i)
        assert d_up <= ref * (1.0 + 1e-12), (i, d_up, ref)
        assert float(np.linalg.norm(h.w)) <= d_up <= path_length(cfg, [cfg.identity(), h]), i


@pytest.mark.parametrize("start", ["coincident", "zero_speed"])
def test_bfgs_terminates_where_segments_have_no_speed(start):
    # coincident waypoints, or every interior waypoint at the identity, make
    # segments of zero speed, where the length is not differentiable
    cfg = random_form(13)
    h = elem(cfg, [0.3, 0.5j, -0.2], [0.4, 0.1j])
    hz = np.concatenate([h.w, h.c])
    z = np.stack([0.4 * hz, 0.4 * hz, hz]) if start == "coincident" else np.zeros((3, cfg.n))
    x0 = np.concatenate([z.real, z.imag]).ravel()
    evaluations = []

    def counted(x):
        evaluations.append(x)
        return geometry._objective(x, cfg, h)

    end = geometry._bfgs(counted, x0)
    length = geometry._length(cfg, *geometry._waypoints(cfg, h, end))
    assert np.all(np.isfinite(end))
    assert length <= geometry._objective(x0, cfg, h)[0]
    assert float(np.linalg.norm(h.w)) <= length
    assert len(evaluations) < 2000


def test_bargmann_check_row():
    cfg = heis()
    f = parse_poly(cfg, "w1^2*c1 + 2*w2")
    h = elem(cfg, [0.5, 0.2j], [0.1 - 0.3j])
    row = bargmann_check(cfg, f, h, T=1.0, d_up=distance_upper(cfg, h, segments=3, restarts=2))
    assert row["pass"]
    assert row["margin"] == pytest.approx(row["bound"] - row["value"], abs=1e-12)
    assert row["value"] == pytest.approx(abs(f.eval(h)), abs=1e-12)


def test_bargmann_rejects_bad_inputs():
    cfg = heis()
    h = elem(cfg, [0.5, 0.0], [0.0])
    d_up = distance_upper(cfg, h, segments=3, restarts=2)
    with pytest.raises(ValueError):
        bargmann_check(cfg, parse_poly(cfg, "wbar1"), h, T=1.0, d_up=d_up)
    with pytest.raises(ValueError):
        bargmann_check(cfg, parse_poly(cfg, "w1"), h, T=0.0, d_up=d_up)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_bounds_reject_non_finite_T_and_p_by_name(bad):
    cfg = heis()
    f = parse_poly(cfg, "w1*c1 - 1")
    h = elem(cfg, [0.4, 0.1], [0.2j])
    params = MCParams(T=1.0, steps=4, paths=10, seed=0)
    cases = [
        (rf"T must be finite and positive, got T={bad}",
         lambda: bargmann_check(cfg, f, h, T=bad, d_up=0.5)),
        (rf"T must be finite and positive, got T={bad}",
         lambda: gaussian_bound_check(cfg, f, h, T=bad, d_up=0.5)),
        (rf"p must be finite and exceed 1, got p={bad}",
         lambda: gaussian_bound_check(cfg, f, h, T=1.0, p=bad, d_up=0.5)),
        (rf"p must be finite and exceed 1, got p={bad}",
         lambda: gaussian_bound_check(cfg, f, h, T=1.0, p=bad, params=params, d_up=0.5)),
    ]
    for pattern, call in cases:
        with pytest.raises(ValueError, match=pattern):
            call()


def test_gaussian_bound_exact_p2():
    cfg = heis()
    f = parse_poly(cfg, "w1*c1 - 1")
    h = elem(cfg, [0.4, 0.1], [0.2j])
    row = gaussian_bound_check(cfg, f, h, T=1.0, p=2.0,
                               d_up=distance_upper(cfg, h, segments=3, restarts=2))
    assert row["pass"] and row["p"] == 2.0


def test_gaussian_bound_mc_p4():
    cfg = heis()
    f = parse_poly(cfg, "w2^2 + c1")
    h = elem(cfg, [0.2, -0.3j], [0.1])
    params = MCParams(T=1.0, steps=64, paths=6000, seed=3)
    d_up = distance_upper(cfg, h, segments=3, restarts=2)
    row = gaussian_bound_check(cfg, f, h, T=1.0, p=4.0, params=params, d_up=d_up)
    assert row["pass"]
    with pytest.raises(ValueError):
        gaussian_bound_check(cfg, f, h, T=1.0, p=4.0, d_up=d_up)  # no MC params
    with pytest.raises(ValueError):
        gaussian_bound_check(cfg, f, h, T=1.0, p=1.0, d_up=d_up)


def test_gaussian_bound_rejects_params_at_another_time():
    # the Monte Carlo norm and the exponent must use one heat time
    cfg = heis()
    f = parse_poly(cfg, "w2^2 + c1")
    h = elem(cfg, [0.2, -0.3j], [0.1])
    params = MCParams(T=0.05, steps=4, paths=10, seed=3)
    for p in (4.0, 2.0):
        with pytest.raises(ValueError, match=r"params\.T=0\.05 .*T=1\.0"):
            gaussian_bound_check(cfg, f, h, T=1.0, p=p, params=params, d_up=0.5)
