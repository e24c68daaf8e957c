"""Projections, the pushed derivative field, and coefficient pullback."""

import gc
import math

import numpy as np
import pytest

from holoheis import poly, projection
from holoheis.group import GroupConfig, GroupElement, group_mul
from holoheis.poly import Polynomial, parse_poly, lid, heat_expectation
from holoheis.fock import taylor
from holoheis.geometry import distance_upper
from holoheis.projection import (
    Projection,
    pi_p,
    gamma_defect,
    k_p,
    compose_with_projection,
    kappa,
    pullback_taylor,
    projection_convergence,
)

SKEW = np.array([[[0.0, 1.0], [-1.0, 0.0]]], dtype=complex)


def heis():
    return GroupConfig(2, 1, SKEW)


def rand_elem(cfg, rng):
    return GroupElement(
        cfg,
        rng.normal(size=cfg.k) + 1j * rng.normal(size=cfg.k),
        rng.normal(size=cfg.d) + 1j * rng.normal(size=cfg.d),
    )


def test_rejects_non_orthonormal_rows():
    cfg = heis()
    with pytest.raises(ValueError):
        Projection(cfg, np.array([[1.0, 1.0]]))
    with pytest.raises(ValueError):
        Projection(cfg, np.array([[1.0, 0.0], [1.0, 0.0]]))


def test_matrix_is_hermitian_idempotent():
    cfg = heis()
    row = np.array([[1 / np.sqrt(2), 1j / np.sqrt(2)]])
    P = Projection(cfg, row).matrix
    assert np.allclose(P, P.conj().T, atol=1e-14)
    assert np.allclose(P @ P, P, atol=1e-14)


def test_pi_p_and_multiplicativity_defect():
    cfg = heis()
    proj = Projection.coordinate(cfg, [0])
    rng = np.random.default_rng(0)
    for _ in range(10):
        g1, g2 = rand_elem(cfg, rng), rand_elem(cfg, rng)
        lhs = pi_p(proj, group_mul(g1, g2))
        defect = GroupElement(cfg, np.zeros(cfg.k, complex), gamma_defect(proj, g1.w, g2.w))
        rhs = group_mul(group_mul(pi_p(proj, g1), pi_p(proj, g2)), defect)
        assert lhs.close_to(rhs, 1e-12)


def test_gamma_defect_vanishes_for_identity():
    cfg = heis()
    proj = Projection.coordinate(cfg, [0, 1])
    rng = np.random.default_rng(1)
    w = rng.normal(size=2) + 1j * rng.normal(size=2)
    wp = rng.normal(size=2) + 1j * rng.normal(size=2)
    assert np.allclose(gamma_defect(proj, w, wp), 0.0, atol=1e-14)


def test_k_p_chain_rule():
    # (h~ (f o pi_P))(g) = (k~ f)(pi_P(g)) with k the pushed direction at g
    cfg = heis()
    rng = np.random.default_rng(2)
    proj = Projection(cfg, np.array([[0.6, 0.8j]]))
    f = parse_poly(cfg, "w1^2*c1 + w2 - c1^2")
    composed = compose_with_projection(proj, f)
    for _ in range(6):
        g = rand_elem(cfg, rng)
        h = rand_elem(cfg, rng)
        left = lid(composed, h).eval(g)
        right = lid(f, k_p(proj, h, g)).eval(pi_p(proj, g))
        assert left == pytest.approx(right, rel=1e-10, abs=1e-10)


def test_direction_coefficients_match_k_p():
    # k_p is the numeric reference: at every base point, each pushed
    # coefficient const + sum_i s_i w_i is the matching component of k_p
    rng = np.random.default_rng(12)
    raw = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    cfg = GroupConfig(3, 2, raw - np.transpose(raw, (0, 2, 1)))
    q, _ = np.linalg.qr(rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))
    proj = Projection(cfg, q.T)
    directions = cfg.basis() + [rand_elem(cfg, rng) for _ in range(2)]
    for h in directions:
        comps = projection._direction_coefficients(proj, h)
        assert len({l for l, _, _ in comps}) == len(comps)
        for _ in range(4):
            at = rand_elem(cfg, rng)
            pushed = k_p(proj, h, at)
            values = np.zeros(cfg.n, complex)
            for l, const, linear in comps:
                assert l >= cfg.k or not linear  # horizontal parts are constants
                values[l] = const + sum(s * at.w[i] for i, s in linear)
            expected = np.concatenate([pushed.w, pushed.c])
            assert np.allclose(values, expected, rtol=0, atol=1e-12)


def test_compose_identity_fast_path():
    cfg = heis()
    proj = Projection.coordinate(cfg, [0, 1])
    f = parse_poly(cfg, "w1*c1")
    assert compose_with_projection(proj, f) is f


def test_compose_substitutes_coordinates():
    cfg = heis()
    proj = Projection.coordinate(cfg, [0])
    f = parse_poly(cfg, "w1 + 3*w2 + c1")
    expected = parse_poly(cfg, "w1 + c1")
    assert compose_with_projection(proj, f).close_to(expected)


def test_kappa_reference_value():
    cfg = heis()
    proj = Projection.coordinate(cfg, [0])
    kap = kappa(proj, [cfg.basis_direction(1), cfg.basis_direction(0)])
    assert kap.to_records() == [(1, [2], [0.5, 0.0])]


def test_kappa_rank_support_window():
    # n directions produce ranks between n - floor(n/2) and n
    cfg = heis()
    proj = Projection(cfg, np.array([[1 / np.sqrt(2), 1 / np.sqrt(2)]]))
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4):
        dirs = [rand_elem(cfg, rng) for _ in range(n)]
        kap = kappa(proj, dirs)
        lo, hi = n - n // 2, n
        for r in range(kap.maxrank + 1):
            if kap.rank_norm_sq(r) > 1e-20:
                assert lo <= r <= hi


def test_pullback_routes_agree():
    cfg = heis()
    rng = np.random.default_rng(4)
    projs = [
        Projection.coordinate(cfg, [0]),
        Projection.coordinate(cfg, [1]),
        Projection(cfg, np.array([[1 / np.sqrt(2), 1j / np.sqrt(2)]])),
    ]
    for text in ("c1", "w1^2*c1 + w2", "w1*w2*c1", "w2^3 - 2*c1^2"):
        f = parse_poly(cfg, text)
        for proj in projs:
            pulled = pullback_taylor(proj, f)
            direct = taylor(compose_with_projection(proj, f))
            assert pulled.close_to(direct, 1e-12)


def test_projection_convergence_monotone_tail():
    cfg = heis()
    rows = projection_convergence(cfg, parse_poly(cfg, "w1*w2 + c1^2 - w2"))
    assert [r["N"] for r in rows] == [1, 2]
    assert rows[-1]["total"] == 0.0
    assert rows[0]["total"] > 0.0


def test_projection_convergence_larger_group():
    omega = np.zeros((1, 4, 4), complex)
    omega[0, 0, 1] = omega[0, 2, 3] = 1.0
    omega[0, 1, 0] = omega[0, 3, 2] = -1.0
    cfg = GroupConfig(4, 1, omega)
    f = parse_poly(cfg, "w1*w4 + w2*w3*c1")
    rows = projection_convergence(cfg, f)
    totals = [r["total"] for r in rows]
    assert totals[-1] <= 1e-12
    assert all(a >= b - 1e-12 for a, b in zip(totals[:-1], totals[1:]))


def test_projection_convergence_builds_its_check_tuples_once(monkeypatch):
    # every N checks route b at alpha's rank on one form, so one tuple set
    # serves all k projections
    omega = np.zeros((1, 4, 4), complex)
    omega[0, 0, 1] = omega[0, 2, 3] = 1.0
    omega[0, 1, 0] = omega[0, 3, 2] = -1.0
    cfg = GroupConfig(4, 1, omega)
    f = parse_poly(cfg, "w1*w4 + w2*w3*c1")
    expected = projection_convergence(cfg, f)
    check_tuples = projection._check_tuples
    calls = []

    def counted(*args):
        calls.append(args)
        return check_tuples(*args)

    monkeypatch.setattr(projection, "_check_tuples", counted)
    assert projection_convergence(cfg, f) == expected
    assert len(calls) == 1


def test_projection_convergence_rejects_bad_T():
    cfg = heis()
    f = parse_poly(cfg, "w1*w2 + c1^2 - w2")
    for T in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="T="):
            projection_convergence(cfg, f, T)


def sampled_group():
    """k = 7 with a degree-4 form: the check set is a deterministic sample."""
    k = 7
    omega = np.zeros((1, k, k), complex)
    for i in range(0, k - 1, 2):
        omega[0, i, i + 1], omega[0, i + 1, i] = 1.0, -1.0
    return GroupConfig(k, 1, omega)


RICH = "w1^2*c1 + w2*c1 - w1*w2 + c1^2 + w2^3*w1"


def route_b_cases():
    cfg = heis()
    f = parse_poly(cfg, RICH)
    big = sampled_group()
    return {
        "coordinate": (Projection.coordinate(cfg, [0]), f),
        "oblique": (Projection(cfg, np.array([[0.6, 0.8j]])), f),
        "sampled": (
            Projection.coordinate(big, [0, 2, 4]),
            parse_poly(big, "w1*w2*w3*w7 + w4*c1 + c1^2 + w1*w2 + w3*w5 - w6 + w2 + c1"
                       " + w7*w4 + w1*w3*w5"),
        ),
    }


@pytest.mark.parametrize("case", ["coordinate", "oblique", "sampled"])
def test_pullback_builds_each_suffix_state_once(monkeypatch, case):
    proj, f = route_b_cases()[case]
    calls = {"coefficients": 0, "steps": 0}
    checked = []
    coefficients = projection._direction_coefficients
    step = projection._kappa_step
    check_tuples = projection._check_tuples

    def counted_coefficients(*args):
        calls["coefficients"] += 1
        return coefficients(*args)

    def counted_step(*args):
        calls["steps"] += 1
        return step(*args)

    def recorded_tuples(*args):
        checked.extend(check_tuples(*args))
        return checked

    monkeypatch.setattr(projection, "_direction_coefficients", counted_coefficients)
    monkeypatch.setattr(projection, "_kappa_step", counted_step)
    monkeypatch.setattr(projection, "_check_tuples", recorded_tuples)
    pullback_taylor(proj, f)
    suffixes = {t[j:] for t in checked for j in range(1, len(t))}
    assert calls["coefficients"] == proj.config.n
    # one step per distinct proper suffix; a checked tuple's own state is never built
    assert calls["steps"] == len(suffixes)
    if case == "sampled":
        assert len(checked) < sum(proj.config.n**r for r in range(1, 5))


@pytest.mark.parametrize("case", ["coordinate", "oblique", "sampled"])
def test_route_b_equals_public_kappa_pairing(case):
    proj, f = route_b_cases()[case]
    cfg = proj.config
    alpha = taylor(f)
    tuples = projection._check_tuples(cfg, alpha.maxrank)
    values = dict(projection._route_b(proj, alpha, tuples))
    assert list(values) == tuples
    for t in tuples:
        kap = kappa(proj, [cfg.basis_direction(i) for i in reversed(t)])
        expected = 0j
        for r in range(1, kap.maxrank + 1):
            for key, coeff in kap.ranks[r].items():
                expected += coeff * alpha.entry(key)
        assert values[t] == expected, t
    assert sum(1 for v in values.values() if v != 0) >= 5


def random_form(k, d, rng):
    raw = rng.normal(size=(d, k, k)) + 1j * rng.normal(size=(d, k, k))
    return GroupConfig(k, d, raw - np.transpose(raw, (0, 2, 1)))


def random_holo(cfg, rng, terms=6):
    """A holomorphic polynomial of graded degree <= 4 with a constant term
    and every coordinate w_j and c_m as a degree-one term."""
    f = Polynomial.constant(cfg, complex(rng.normal(), rng.normal()))
    for i in range(cfg.n):
        f = f + complex(rng.normal(), rng.normal()) * Polynomial.coordinate(cfg, i)
    for _ in range(terms):
        mono = Polynomial.constant(cfg, complex(rng.normal(), rng.normal()))
        budget = int(rng.integers(2, 5))
        while budget > 0:
            i = int(rng.integers(0, cfg.k if budget == 1 else cfg.n))
            mono = mono * Polynomial.coordinate(cfg, i)
            budget -= 1 if i < cfg.k else 2
        f = f + mono
    return f


def oblique(cfg, rank, rng):
    shape = (cfg.k, rank)
    q, _ = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    return Projection(cfg, q.T)


@pytest.mark.parametrize("k, d, rank", [(3, 2, 1), (4, 1, 3), (5, 2, 2)])
def test_route_b_closed_form_matches_kappa_on_oblique_projections(k, d, rank):
    # route b reads the last step's constants in closed form; kappa takes
    # every step in full, so the two meet only if the closed form is right
    rng = np.random.default_rng(100 * k + d)
    cfg = random_form(k, d, rng)
    f = random_holo(cfg, rng)
    proj = oblique(cfg, rank, rng)
    alpha = taylor(f)
    nonzero = 0
    for t, value in projection._route_b(proj, alpha, projection._check_tuples(cfg, alpha.maxrank)):
        kap = kappa(proj, [cfg.basis_direction(i) for i in reversed(t)])
        expected = sum(
            coeff * alpha.entry(key)
            for r in range(1, kap.maxrank + 1)
            for key, coeff in kap.ranks[r].items()
        )
        assert abs(value - expected) <= 1e-13 * max(1.0, abs(value)), t
        nonzero += abs(value) > 1e-12
    assert nonzero >= 10


@pytest.mark.parametrize("k, d", [(3, 2), (4, 1)])
def test_last_constants_match_full_step(k, d):
    # entries holding several degree-one terms in w and c at once, stepped
    # along raw (not basis) directions: every term of the closed form is live.
    # Entry (0,) has no degree-one term, so its constant comes only from the
    # later entry () and its place in the step's order from its own key.
    rng = np.random.default_rng(7 * k + d)
    cfg = random_form(k, d, rng)
    proj = oblique(cfg, k - 1, rng)
    zero = Polynomial._zero_key(cfg)
    state = {(0,): parse_poly(cfg, "w1*w2").terms}
    for key in [(1,), (), (cfg.k,), (1, 0), (cfg.n - 1, 2)]:
        state[key] = random_holo(cfg, rng, terms=3).terms
    for _ in range(4):
        h = rand_elem(cfg, rng)
        hol = projection._halves(h)[0]
        comps = projection._direction_coefficients(proj, h)
        assert any(const for _, const, _ in comps)
        step = projection._kappa_step(state, hol, comps)
        full = {key: terms[zero] for key, terms in step.items() if zero in terms}
        units = poly._constant_units(hol)
        assert len(units) == cfg.n
        closed = projection._last_constants(state, units, comps, zero)
        assert list(closed) == list(full)
        for key, z in full.items():
            assert abs(closed[key] - z) <= 1e-13 * max(1.0, abs(z)), key


def test_route_b_stays_independent_of_route_a(monkeypatch):
    # a wrong central shift must surface as a route disagreement, which it
    # could not if route b read its values from route a
    cfg = heis()
    proj = Projection.coordinate(cfg, [0])
    f = parse_poly(cfg, RICH)
    pullback_taylor(proj, f)
    honest = projection._direction_coefficients

    def doubled_shift(proj, h):
        out = []
        for l, const, linear in honest(proj, h):
            if l >= cfg.k:
                linear = [(i, 2 * s) for i, s in linear]
            out.append((l, const, linear))
        return out

    monkeypatch.setattr(projection, "_direction_coefficients", doubled_shift)
    with pytest.raises(AssertionError, match="routes disagree"):
        pullback_taylor(proj, f)


@pytest.mark.parametrize("part", ["horizontal", "central"])
@pytest.mark.parametrize("case", ["coordinate", "oblique"])
def test_route_b_fails_a_wrong_constant(monkeypatch, case, part):
    # the closed form reads only const and the degree-one coefficients at
    # the last step, so a wrong const must still surface as a disagreement
    proj, f = route_b_cases()[case]
    k = proj.config.k
    pullback_taylor(proj, f)
    honest = projection._direction_coefficients

    def doubled_const(proj, h):
        return [
            (l, 2 * const if (l >= k) == (part == "central") else const, linear)
            for l, const, linear in honest(proj, h)
        ]

    monkeypatch.setattr(projection, "_direction_coefficients", doubled_const)
    with pytest.raises(AssertionError, match="routes disagree"):
        pullback_taylor(proj, f)


def test_exact_layer_leaves_no_reference_cycles():
    # objects caught in a cycle live until the cyclic collector runs, so
    # route b's suffix states must be freed by reference counting alone
    cfg = heis()
    f = parse_poly(cfg, RICH)
    proj = Projection.coordinate(cfg, [0])
    h = GroupElement(cfg, np.array([0.3, -0.2j]), np.array([0.1 + 0.4j]))
    calls = [
        lambda: pullback_taylor(proj, f),
        lambda: projection_convergence(cfg, f, 1.0),
        lambda: kappa(proj, [h, cfg.basis_direction(2), h]),
        lambda: taylor(f),
        lambda: heat_expectation(f.abs_sq(), 1.0),
        lambda: distance_upper(cfg, h, segments=3, restarts=2),
    ]
    for call in calls:
        call()  # warm-up: imports and caches settle outside the check
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for i, call in enumerate(calls):
            call()
            assert gc.collect() == 0, i
    finally:
        if was_enabled:
            gc.enable()
