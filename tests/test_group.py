"""Group layer: multiplication, bracket, the form constants, and the count and
time rules every module checks its inputs with."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from holoheis.group import (
    GroupConfig,
    GroupElement,
    group_mul,
    group_inv,
    bracket,
    omega_uniform_norm,
    k_omega,
)
from holoheis import mc
from holoheis.fock import fejer_truncate, fock_inner, fock_norm_sq, taylor
from holoheis.geometry import bargmann_check, distance_upper, gaussian_bound_check, path_length
from holoheis.poly import Polynomial, heat_expectation, lid, parse_poly
from holoheis.projection import (
    Projection,
    compose_with_projection,
    k_p,
    kappa,
    pi_p,
    projection_convergence,
    pullback_taylor,
)

SKEW = np.array([[[0.0, 1.0], [-1.0, 0.0]]], dtype=complex)

COORD = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def heis():
    return GroupConfig(2, 1, SKEW)


def random_config(rng, k, d):
    raw = rng.normal(size=(d, k, k)) + 1j * rng.normal(size=(d, k, k))
    return GroupConfig(k, d, raw - np.transpose(raw, (0, 2, 1)))


def elem(cfg, w, c):
    return GroupElement(cfg, np.asarray(w, complex), np.asarray(c, complex))


def test_rejects_non_skew_form():
    bad = np.array([[[0.0, 1.0], [1.0, 0.0]]], dtype=complex)
    with pytest.raises(ValueError):
        GroupConfig(2, 1, bad)


def test_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        GroupConfig(3, 1, SKEW)


def test_equal_configs_mix_and_different_ones_raise():
    # a separately built config with the same k, d and omega is the same group
    twin = GroupConfig(2, 1, SKEW.copy())
    g = elem(heis(), [0.3, 0.1j], [0.2])
    assert group_mul(g, elem(twin, [0.1, 0.5], [0.0])).c[0] == pytest.approx(0.275 - 0.005j)
    assert (parse_poly(heis(), "w1") + parse_poly(twin, "w2")).terms
    other = GroupConfig(2, 1, 2.0 * SKEW)
    with pytest.raises(ValueError) as info:
        bracket(g, elem(other, [0.1, 0.5], [0.0]))
    assert str(info.value) == f"the GroupElement belongs to {other!r}, not to {heis()!r}"
    with pytest.raises(ValueError) as info:
        parse_poly(heis(), "w1") * parse_poly(other, "w2")
    assert str(info.value) == f"the Polynomial belongs to {other!r}, not to {heis()!r}"


def test_mul_central_term():
    cfg = heis()
    g1 = elem(cfg, [1, 0], [0])
    g2 = elem(cfg, [0, 1], [0])
    assert group_mul(g1, g2).c[0] == 0.5
    assert group_mul(g2, g1).c[0] == -0.5


def test_identity_and_inverse():
    cfg = heis()
    g = elem(cfg, [1 + 2j, -0.5], [0.25j])
    e = cfg.identity()
    assert group_mul(g, e).close_to(g)
    assert group_mul(e, g).close_to(g)
    assert group_mul(g, group_inv(g)).close_to(e)
    assert group_mul(group_inv(g), g).close_to(e)


@settings(max_examples=100, deadline=None)
@given(
    x=arrays(np.float64, (3, 6), elements=COORD),
)
def test_associativity(x):
    cfg = heis()
    gs = [elem(cfg, row[:2] + 1j * row[2:4], row[4:5] + 1j * row[5:6]) for row in x]
    left = group_mul(group_mul(gs[0], gs[1]), gs[2])
    right = group_mul(gs[0], group_mul(gs[1], gs[2]))
    assert left.close_to(right, 1e-13)


def test_bracket_is_central_and_matches_mul_defect():
    cfg = heis()
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = elem(cfg, rng.normal(size=2) + 1j * rng.normal(size=2), rng.normal(size=1))
        b = elem(cfg, rng.normal(size=2) + 1j * rng.normal(size=2), rng.normal(size=1))
        br = bracket(a, b)
        assert np.all(br.w == 0)
        # g1 g2 = g2 g1 . (0, omega(w1, w2)) up to the central commutator
        lhs = group_mul(a, b)
        rhs = group_mul(group_mul(b, a), elem(cfg, [0, 0], br.c))
        assert lhs.close_to(rhs, 1e-12)


def test_bracket_jacobi_trivial():
    # step two: all double brackets vanish identically
    cfg = heis()
    rng = np.random.default_rng(4)
    a, b, c = (
        elem(cfg, rng.normal(size=2) + 1j * rng.normal(size=2), rng.normal(size=1))
        for _ in range(3)
    )
    assert np.all(bracket(bracket(a, b), c).c == 0)
    assert np.all(bracket(bracket(a, b), c).w == 0)


def test_omega_form_bilinear_antisymmetric():
    cfg = heis()
    rng = np.random.default_rng(5)
    w = rng.normal(size=2) + 1j * rng.normal(size=2)
    wp = rng.normal(size=2) + 1j * rng.normal(size=2)
    assert np.allclose(cfg.omega_form(w, wp), -cfg.omega_form(wp, w), atol=1e-14)
    assert np.allclose(cfg.omega_form(2.5j * w, wp), 2.5j * cfg.omega_form(w, wp), atol=1e-13)
    assert np.allclose(cfg.omega_form(w, w), 0.0, atol=1e-14)


def test_omega_uniform_norm_reference():
    assert omega_uniform_norm(heis()) == pytest.approx(1.0, abs=1e-12)


def test_omega_uniform_norm_dominates_probes():
    rng = np.random.default_rng(6)
    cfg = random_config(rng, 3, 2)
    val = omega_uniform_norm(cfg)
    best = 0.0
    for _ in range(300):
        w = rng.normal(size=3) + 1j * rng.normal(size=3)
        wp = rng.normal(size=3) + 1j * rng.normal(size=3)
        w /= np.linalg.norm(w)
        wp /= np.linalg.norm(wp)
        best = max(best, float(np.linalg.norm(cfg.omega_form(w, wp))))
    assert val >= best - 1e-9


@pytest.mark.parametrize("k,d", [(3, 2), (4, 2), (5, 3)])
def test_omega_uniform_norm_is_the_k_omega_closed_form(k, d):
    # d > 1: sqrt(lambda_max(sum_m Omega_m^dagger Omega_m)) bounds the sup from above
    cfg = random_config(np.random.default_rng(10 + k + d), k, d)
    assert omega_uniform_norm(cfg) == pytest.approx(np.sqrt(-k_omega(cfg)), rel=1e-13)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_omega_uniform_norm_is_the_top_singular_value_for_d1(k):
    cfg = random_config(np.random.default_rng(20 + k), k, 1)
    top = np.linalg.svd(cfg.omega[0], compute_uv=False)[0]
    assert omega_uniform_norm(cfg) == pytest.approx(top, rel=1e-13)


def test_k_omega_reference():
    assert k_omega(heis()) == pytest.approx(-1.0, abs=1e-12)
    assert k_omega(GroupConfig(2, 1, np.zeros((1, 2, 2)))) == 0.0


def test_k_omega_against_dense_eigensolver():
    rng = np.random.default_rng(7)
    configs = [random_config(rng, k, d) for k, d in [(2, 1), (3, 2), (4, 1)]]
    # top eigenvalues 1 and 1 + 2e-7: an iterative estimate stalls below
    # lambda_max, which would tighten the Gaussian-type bound
    J = np.array([[0.0, 1.0], [-1.0, 0.0]], complex)
    om = np.zeros((2, 4, 4), complex)
    om[0, :2, :2] = J
    om[1, 2:, 2:] = np.sqrt(1 + 2e-7) * J
    configs.append(GroupConfig(4, 2, om))
    for cfg in configs:
        M = np.einsum("mji,mjl->il", cfg.omega.conj(), cfg.omega)
        expected = -float(np.linalg.eigvalsh(M)[-1])
        assert k_omega(cfg) == pytest.approx(expected, rel=1e-13)


def test_config_dict_roundtrip_and_hash():
    cfg = heis()
    again = GroupConfig.from_dict(cfg.to_dict())
    assert np.array_equal(again.omega, cfg.omega)
    assert again.config_hash == cfg.config_hash
    assert len(cfg.config_hash) == 12
    # config_hash serializes omega, so every (re, im) pair, signed zeros
    # included, must come back as given
    data = {"k": 2, "d": 1, "omega": [[[[0.0, -0.0], [1.0, -0.0]], [[-1.0, 0.0], [-0.0, 0.0]]]]}
    assert json.dumps(GroupConfig.from_dict(data).to_dict()) == json.dumps(data)


def test_from_dict_missing_omega_message():
    with pytest.raises(KeyError, match="config: omega required"):
        GroupConfig.from_dict({"k": 2, "d": 1})


def test_from_dict_rejects_bad_omega_by_name():
    def pairs(size):
        om = [[[0.0, 0.0] for _ in range(size)] for _ in range(size)]
        om[0][1], om[1][0] = [1.0, 0.0], [-1.0, 0.0]
        return om

    ragged = pairs(2)
    ragged[1] = ragged[1][:1]
    cases = [
        # 2 x 2 matrices for k = 3 used to leave uninitialized entries
        ({"k": 3, "d": 1, "omega": [pairs(2)]}, r"omega must have shape \(1,3,3\)"),
        # 3 x 3 matrices for k = 2 used to raise an IndexError
        ({"k": 2, "d": 1, "omega": [pairs(3)]}, r"omega must have shape \(1,2,2\)"),
        ({"k": 2, "d": 2, "omega": [pairs(2)]}, r"omega must have shape \(2,2,2\)"),
        ({"k": 2, "d": 1, "omega": [ragged]}, "omega is not an array of"),
        ({"k": 2, "d": 1, "omega": [[[[0.0], [1.0]], [[-1.0], [0.0]]]]}, "omega must hold"),
        ({"k": 2, "d": 1, "omega": [[[[0.0, 0.0], [1.0, None]], [[-1.0, 0.0], [0.0, 0.0]]]]},
         "omega must hold numeric"),
        ({"k": 2, "d": 1, "omega": [[[[0.0, 0.0], [1.0, "0"]], [[-1.0, 0.0], [0.0, 0.0]]]]},
         "omega must hold numeric"),
        ({"k": 2, "d": 1, "omega": [[[[0.0, 0.0], [1.0, math.nan]], [[-1.0, 0.0], [0.0, 0.0]]]]},
         "omega entries must be finite"),
    ]
    for data, message in cases:
        with pytest.raises(ValueError, match=message):
            GroupConfig.from_dict(data)


def test_config_is_immutable():
    cfg = heis()
    with pytest.raises(AttributeError):
        cfg.k = 3


def _rule_entry_points():
    """(id, call, pattern) for each entry point of the count, seed and time rules.
    MCParams counts and the distance_upper counts are pinned in test_mc and
    test_geometry."""
    cfg = heis()
    f = parse_poly(cfg, "w1*c1 + 2")
    alpha = taylor(f)
    params = mc.MCParams(T=1.0, steps=4, paths=8, seed=0)
    path = mc.sample_path(cfg, params, 0)
    h = GroupElement(cfg, [0.4, 0.1], [0.2j])
    count = "must be an integer >= 1, got"
    time = "T must be finite and positive, got T=-1.0"
    seed = r"seed must be an integer in \[0, 2\^64\), got"
    return [
        ("config-k-2.7", lambda: GroupConfig(2.7, 1, SKEW),
         r"config: k and d must be integers, got k=2\.7, d=1"),
        ("config-d-True", lambda: GroupConfig(2, True, SKEW),
         r"config: k and d must be integers, got k=2, d=True"),
        ("MCParams-T", lambda: mc.MCParams(T=-1.0, steps=4, paths=8, seed=0), f"MCParams: {time}"),
        ("heat_mc_grid-True", lambda: mc.heat_mc_grid(cfg, f, params, stride=True),
         f"stride {count} True"),
        ("heat_mc_grid-0", lambda: mc.heat_mc_grid(cfg, f, params, stride=0), f"stride {count} 0"),
        ("iterated_integrals-1.5", lambda: mc.iterated_integrals(cfg, path, 1.5),
         rf"nmax {count} 1\.5"),
        ("iterated_integrals-True", lambda: mc.iterated_integrals(cfg, path, True),
         f"nmax {count} True"),
        ("fejer_truncate-2.5", lambda: fejer_truncate(alpha, 2.5),
         rf"fejer_truncate: n {count} 2\.5"),
        ("fejer_truncate-True", lambda: fejer_truncate(alpha, True),
         f"fejer_truncate: n {count} True"),
        ("taylor-3.5", lambda: taylor(f, maxrank=3.5),
         r"taylor: maxrank must be an integer, got 3\.5"),
        ("heat_expectation", lambda: heat_expectation(f, -1.0), f"heat_expectation: {time}"),
        ("heat_expectation-True", lambda: heat_expectation(f, True),
         "heat_expectation: T must be finite and positive, got T=True"),
        ("heat_expectation-str", lambda: heat_expectation(f, "1"),
         "heat_expectation: T must be finite and positive, got T='1'"),
        ("heat_expectation-complex", lambda: heat_expectation(f, 1 + 0j),
         r"heat_expectation: T must be finite and positive, got T=\(1\+0j\)"),
        ("fock_norm_sq", lambda: fock_norm_sq(alpha, -1.0), f"fock_norm_sq: {time}"),
        ("fock_inner", lambda: fock_inner(alpha, alpha, -1.0), f"fock_inner: {time}"),
        ("projection_convergence", lambda: projection_convergence(cfg, f, -1.0),
         f"projection_convergence: {time}"),
        ("distance_upper-seed--1", lambda: distance_upper(cfg, h, seed=-1), f"{seed} -1"),
        ("distance_upper-seed-2.5", lambda: distance_upper(cfg, h, seed=2.5), rf"{seed} 2\.5"),
        ("distance_upper-seed-True", lambda: distance_upper(cfg, h, seed=True), f"{seed} True"),
        ("bargmann_check", lambda: bargmann_check(cfg, f, h, -1.0, d_up=0.5),
         f"pointwise bound: {time}"),
        ("gaussian_bound_check", lambda: gaussian_bound_check(cfg, f, h, -1.0, d_up=0.5),
         f"pointwise bound: {time}"),
    ]


RULE_CASES = _rule_entry_points()


@pytest.mark.parametrize(
    "call, pattern", [case[1:] for case in RULE_CASES], ids=[case[0] for case in RULE_CASES]
)
def test_count_and_time_rules_name_the_argument_and_the_value(call, pattern):
    # one wording per rule; fractional and boolean counts used to run or to
    # fail with a TypeError from range
    with pytest.raises(ValueError, match=f"^{pattern}$"):
        call()


def test_exact_layer_inputs_from_another_group_fail_by_name():
    # B's form is three times A's: same k and d, another group. Each of these
    # used to run in A's group without a word (fock_inner of tensors of k = 2
    # and k = 3 returned 0.25) or to fail deep inside with an IndexError
    A, B, K3 = heis(), GroupConfig(2, 1, 3 * SKEW), random_config(np.random.default_rng(5), 3, 1)
    f_A, f_B = parse_poly(A, "w1*c1 + w2"), parse_poly(B, "w1*c1 + w2")
    f_K3 = parse_poly(K3, "w1*w3 + c1")
    h_A = GroupElement(A, [0.3, -0.2j], [0.1])
    h_B, h_K3 = GroupElement(B, [0.3, 0.1], [0.2]), GroupElement(K3, [0.1, 0.2, 0.3], [0.4])
    proj, whole = Projection.coordinate(A, [0]), Projection.coordinate(A, [0, 1])
    calls = [
        (lambda: lid(f_A, h_K3), "GroupElement", K3),
        (lambda: fock_inner(taylor(f_A), taylor(f_K3), 1.0), "FockTensor", K3),
        (lambda: taylor(f_A).add(taylor(f_B)), "FockTensor", B),
        (lambda: taylor(f_A).sub(taylor(f_K3)), "FockTensor", K3),
        (lambda: pi_p(proj, h_B), "GroupElement", B),
        (lambda: k_p(proj, h_A, h_K3), "GroupElement", K3),
        (lambda: k_p(proj, h_B, h_A), "GroupElement", B),
        (lambda: compose_with_projection(proj, f_B), "Polynomial", B),
        (lambda: compose_with_projection(whole, f_B), "Polynomial", B),
        (lambda: kappa(proj, [h_A, h_K3]), "GroupElement", K3),
        (lambda: pullback_taylor(proj, f_K3), "Polynomial", K3),
        (lambda: path_length(A, [A.identity(), h_A, h_K3]), "GroupElement", K3),
        (lambda: distance_upper(A, h_B), "GroupElement", B),
        (lambda: bargmann_check(A, f_B, h_A, 1.0, d_up=0.5), "Polynomial", B),
        (lambda: bargmann_check(A, f_A, h_K3, 1.0, d_up=0.5), "GroupElement", K3),
        (lambda: gaussian_bound_check(A, f_K3, h_A, 1.0, d_up=0.5), "Polynomial", K3),
        (lambda: gaussian_bound_check(A, f_A, h_B, 1.0, d_up=0.5), "GroupElement", B),
        (lambda: group_mul(h_A, h_B), "GroupElement", B),
        (lambda: f_A - f_K3, "Polynomial", K3),
    ]
    for i, (call, kind, other) in enumerate(calls):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"the {kind} belongs to {other!r}, not to {A!r}", i
    # a configuration equal to A's but built apart is the same group
    twin = GroupConfig(2, 1, SKEW.copy())
    alpha = taylor(f_A)
    assert fock_inner(alpha, taylor(parse_poly(twin, "w1*c1 + w2")), 1.0) == fock_norm_sq(alpha, 1.0)
    assert pi_p(proj, GroupElement(twin, [0.3, 0.1], [0.2])).w.tolist() == [0.3, 0.0]
    assert distance_upper(A, GroupElement(twin, [0.3, -0.2j], [0.1])) == distance_upper(A, h_A)


def test_basis_and_projection_indices_are_checked():
    # True used to pass as a boolean mask (w = (1, 1)), -1 picked the last
    # axis, and 1.5 failed inside numpy with an IndexError
    cfg = heis()
    for index in (True, False, 1.5, -1, 3, "0"):
        with pytest.raises(ValueError) as info:
            cfg.basis_direction(index)
        assert str(info.value) == f"basis index must be an integer in [0, 3), got {index!r}"
    for index in (True, 1.5, -1, 6):
        with pytest.raises(ValueError) as info:
            Polynomial.coordinate(cfg, index)
        assert str(info.value) == f"variable index must be an integer in [0, 6), got {index!r}"
    for index in (True, 1.5, -1, 2):
        with pytest.raises(ValueError) as info:
            Projection.coordinate(cfg, [0, index])
        assert str(info.value) == f"projection index must be an integer in [0, 2), got {index!r}"
    assert cfg.basis_direction(np.int64(2)).c.tolist() == [1.0]
    assert Projection.coordinate(cfg, [np.int64(1)]).rows.tolist() == [[0.0, 1.0]]
    assert Polynomial.coordinate(cfg, np.int64(2)) == parse_poly(cfg, "c1")
