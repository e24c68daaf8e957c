"""Polynomial ring, left-invariant derivatives, L, and heat expectations."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from holoheis.group import GroupConfig, GroupElement, group_mul, bracket
from holoheis import poly
from holoheis.poly import Polynomial, parse_poly, lid, apply_L, heat_expectation, DEGREE_CAP

SKEW = np.array([[[0.0, 1.0], [-1.0, 0.0]]], dtype=complex)


def heis():
    return GroupConfig(2, 1, SKEW)


def elem(cfg, w, c):
    return GroupElement(cfg, np.asarray(w, complex), np.asarray(c, complex))


def rand_elem(cfg, rng):
    return elem(
        cfg,
        rng.normal(size=cfg.k) + 1j * rng.normal(size=cfg.k),
        rng.normal(size=cfg.d) + 1j * rng.normal(size=cfg.d),
    )


def test_parse_eval_roundtrip():
    cfg = heis()
    f = parse_poly(cfg, "(1+2i)*w1^2*c1 - 3*wbar2 + i")
    g = elem(cfg, [1 + 1j, 2.0], [0.5j])
    w1, w2, c1 = 1 + 1j, 2.0, 0.5j
    expected = (1 + 2j) * w1**2 * c1 - 3 * np.conj(w2) + 1j
    assert f.eval(g) == pytest.approx(expected, abs=1e-14)


def test_parse_rejects_garbage():
    cfg = heis()
    with pytest.raises(ValueError):
        parse_poly(cfg, "w1 +* w2")
    with pytest.raises(ValueError):
        parse_poly(cfg, "w9")
    # two factors with no operator between them
    for text in ["2i", "2i*w1", "3 c1", "w1 w2"]:
        with pytest.raises(ValueError, match=r"got '(i|c1|w2)'"):
            parse_poly(cfg, text)


COEFF = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)
# exponents 0..2 in each of w1, w2, c1, wbar1, wbar2, cbar1: graded degree <= 16
TERMS = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 6), COEFF, max_size=6)


@settings(max_examples=200, deadline=None)
@given(terms=TERMS)
@example(terms={(1, 0, 0, 0, 0, 0): 2j, (0, 1, 1, 0, 0, 1): -1.2345678})
@example(terms={(0,) * 6: complex(-0.0, -3e-7), (0, 0, 0, 2, 0, 0): 1e300 + 1j})
def test_str_parses_back_exactly(terms):
    cfg = heis()
    p = Polynomial(cfg, terms)
    assert parse_poly(cfg, str(p)) == p


def test_arithmetic_matches_pointwise():
    cfg = heis()
    rng = np.random.default_rng(0)
    f = parse_poly(cfg, "w1*c1 + 2*w2")
    g1 = parse_poly(cfg, "w2^2 - i*c1")
    h = f * g1 + 3 * f - g1**2
    for _ in range(10):
        p = rand_elem(cfg, rng)
        expected = f.eval(p) * g1.eval(p) + 3 * f.eval(p) - g1.eval(p) ** 2
        assert h.eval(p) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_conj_and_abs_sq():
    cfg = heis()
    rng = np.random.default_rng(1)
    f = parse_poly(cfg, "(2-i)*w1^2 + c1*w2")
    p = rand_elem(cfg, rng)
    assert f.conj().eval(p) == pytest.approx(np.conj(f.eval(p)), abs=1e-12)
    assert f.abs_sq().eval(p) == pytest.approx(abs(f.eval(p)) ** 2, rel=1e-12)


def test_is_holomorphic():
    cfg = heis()
    assert parse_poly(cfg, "w1*c1^2").is_holomorphic()
    assert not parse_poly(cfg, "w1*wbar1").is_holomorphic()
    assert not parse_poly(cfg, "cbar1").is_holomorphic()


def test_graded_degree_weights_central_twice():
    cfg = heis()
    assert parse_poly(cfg, "w1^3").graded_degree() == 3
    assert parse_poly(cfg, "c1^2").graded_degree() == 4
    assert parse_poly(cfg, "w1*cbar1").graded_degree() == 3


def test_degree_cap_enforced():
    cfg = heis()
    f = parse_poly(cfg, "c1^4")  # graded degree 8
    with pytest.raises(ValueError):
        _ = f**3  # degree 24 > cap
    assert DEGREE_CAP == 16


def test_lid_reference_values():
    cfg = heis()
    c1 = parse_poly(cfg, "c1")
    d_e1 = lid(c1, cfg.basis_direction(0))
    assert d_e1.close_to(parse_poly(cfg, "-0.5*w2"))
    d_f1 = lid(c1, cfg.basis_direction(2))
    assert d_f1.close_to(parse_poly(cfg, "1"))
    w1c1 = parse_poly(cfg, "w1*c1")
    assert lid(w1c1, cfg.basis_direction(0)).close_to(parse_poly(cfg, "c1 - 0.5*w1*w2"))


def test_lid_is_derivative_of_right_translation():
    # lid(f, h)(g) equals d/dt f(g . exp(t h)) at t = 0, via central differences
    cfg = heis()
    rng = np.random.default_rng(2)
    f = parse_poly(cfg, "w1^2*c1 + w2*c1 - 3*w1")
    for _ in range(5):
        g = rand_elem(cfg, rng)
        h = rand_elem(cfg, rng)
        eps = 1e-5
        plus = f.eval(group_mul(g, h.scale(eps)))
        minus = f.eval(group_mul(g, h.scale(-eps)))
        numeric = (plus - minus) / (2 * eps)
        assert lid(f, h).eval(g) == pytest.approx(numeric, rel=1e-7, abs=1e-7)


def test_lid_commutator_is_lid_of_bracket():
    cfg = heis()
    rng = np.random.default_rng(3)
    f = parse_poly(cfg, "w1*w2*c1 + c1^2")
    for _ in range(5):
        h = rand_elem(cfg, rng)
        k = rand_elem(cfg, rng)
        left = lid(lid(f, k), h) - lid(lid(f, h), k)
        right = lid(f, bracket(h, k))
        assert left.close_to(right, 1e-10)


def test_L_annihilates_holomorphic():
    cfg = heis()
    for text in ["w1^2*c1", "c1^3", "w1*w2 + 2*c1", "(1+1i)*w2^4"]:
        assert apply_L(parse_poly(cfg, text)).is_zero()


def test_L_reference_value():
    cfg = heis()
    F = parse_poly(cfg, "c1*cbar1")
    expected = parse_poly(cfg, "4 + w1*wbar1 + w2*wbar2")
    assert apply_L(F).close_to(expected)


def test_L_of_abs_sq_is_sum_of_lid_squares():
    # L|f|^2 = 4 sum_h |lid_h f|^2 over the holomorphic basis directions
    cfg = heis()
    f = parse_poly(cfg, "w1^2*c1 - i*w2")
    lhs = apply_L(f.abs_sq())
    rhs = Polynomial.zero(cfg)
    for j in range(cfg.n):
        df = lid(f, cfg.basis_direction(j))
        rhs = rhs + 4 * df.abs_sq()
    assert lhs.close_to(rhs, 1e-10)


def random_config(rng, k, d):
    raw = rng.normal(size=(d, k, k)) + 1j * rng.normal(size=(d, k, k))
    return GroupConfig(k, d, raw - np.transpose(raw, (0, 2, 1)))


def random_poly(cfg, rng, terms, factors=3, holomorphic=False):
    # monomials of up to `factors` random variables from all four blocks
    nv = cfg.n if holomorphic else 2 * cfg.n
    out = {}
    for _ in range(terms):
        key = [0] * (2 * cfg.n)
        for index in rng.integers(0, nv, size=int(rng.integers(1, factors + 1))):
            key[index] += 1
        out[tuple(key)] = complex(rng.normal(), rng.normal())
    return Polynomial(cfg, out)


def L_by_definition(F):
    # L = sum over the 2n real directions h, ih of lid_h lid_h
    cfg = F.config
    out = Polynomial.zero(cfg)
    for index in range(cfg.n):
        h = cfg.basis_direction(index)
        for direction in (h, h.scale(1j)):
            out = out + lid(lid(F, direction), direction)
    return out


def test_L_matches_definition_on_non_holomorphic_input():
    # apply_L computes 4 sum D D-bar; the definition squares whole lids
    rng = np.random.default_rng(11)
    for cfg in [heis(), random_config(rng, 3, 1), random_config(rng, 2, 2)]:
        cases = [parse_poly(cfg, "w1*wbar1*c1 + cbar1^2*w1 - (2-1i)*c1*cbar1")]
        for _ in range(4):
            cases.append(random_poly(cfg, rng, 6))
            cases.append(random_poly(cfg, rng, 3, factors=2, holomorphic=True).abs_sq())
        for F in cases:
            assert not F.is_holomorphic()
            assert apply_L(F).close_to(L_by_definition(F), 1e-10)


def L_by_kernel(F):
    # the form of an earlier release, kept as the reference: 4 sum_j D_j D_j-bar
    # over the basis, each half a step of the first-order kernel
    cfg = F.config
    out = {}
    for hol, anti in poly._basis_halves(cfg):
        bar = {}
        poly._one_sided(F.terms, cfg.n, *anti, bar)
        poly._one_sided(bar, 0, *hol, out)
    return Polynomial._bounded(cfg, {key: 4.0 * z for key, z in out.items()})


@pytest.mark.parametrize("k, d", [(2, 1), (3, 2), (4, 1), (5, 2)])
def test_closed_form_L_equals_the_kernel_form(k, d):
    # the closed form sums other products in another order, so coefficients
    # may move in the last bits only
    rng = np.random.default_rng(40 + 10 * k + d)
    cfg = random_config(rng, k, d)
    for _ in range(6):
        for F in (random_poly(cfg, rng, 8, factors=5),
                  random_poly(cfg, rng, 4, factors=3, holomorphic=True).abs_sq()):
            assert not F.is_holomorphic()
            got, ref = apply_L(F).terms, L_by_kernel(F).terms
            scale = max(abs(z) for z in ref.values())
            assert all(abs(got.get(key, 0j) - ref.get(key, 0j)) <= 1e-12 * scale
                       for key in set(got) | set(ref))


def test_heat_expectation_does_not_use_the_derivative_kernel(monkeypatch):
    # the Taylor route differentiates with _one_sided; the heat route must not,
    # or a fault there would reach both sides of the norm identity
    cfg = heis()
    F = parse_poly(cfg, "c1*cbar1")
    G = parse_poly(cfg, "w1^2*c1 - 3*w2").abs_sq()
    expected = [heat_expectation(F, 1.0), heat_expectation(G, 0.6), apply_L(G).terms]

    def forbidden(*args):
        raise AssertionError("the heat route called the first-order kernel")

    monkeypatch.setattr(poly, "_one_sided", forbidden)
    assert [heat_expectation(F, 1.0), heat_expectation(G, 0.6), apply_L(G).terms] == expected
    assert expected[0] == pytest.approx(1.25, abs=1e-13)


def test_heat_expectation_reference_values():
    cfg = heis()
    assert heat_expectation(parse_poly(cfg, "w1*wbar1"), 2.0) == pytest.approx(2.0, abs=1e-13)
    assert heat_expectation(parse_poly(cfg, "c1*cbar1"), 1.0) == pytest.approx(1.25, abs=1e-13)


def test_heat_expectation_holomorphic_mean_value():
    cfg = heis()
    for text in ["w1^2*c1", "c1^2 - w2", "3 + w1*w2*c1"]:
        f = parse_poly(cfg, text)
        assert heat_expectation(f, 0.7) == pytest.approx(f.eval(cfg.identity()), abs=1e-13)


def test_heat_expectation_requires_positive_time():
    cfg = heis()
    with pytest.raises(ValueError):
        heat_expectation(parse_poly(cfg, "w1*wbar1"), 0.0)


@pytest.mark.parametrize("T", [float("nan"), float("inf")])
def test_heat_expectation_rejects_non_finite_time_by_name(T):
    cfg = heis()
    for text in ("w1*wbar1", "c1", "2"):
        with pytest.raises(ValueError, match=rf"heat_expectation: T must be finite and positive, got T={T}"):
            heat_expectation(parse_poly(cfg, text), T)


@settings(max_examples=30, deadline=None)
@given(t=st.floats(min_value=0.05, max_value=3.0))
def test_heat_expectation_scales_in_time(t):
    # E|w_j|^2 grows linearly; E|c_1|^2 is T + T^2/4 for the reference form
    cfg = heis()
    assert heat_expectation(parse_poly(cfg, "w2*wbar2"), t) == pytest.approx(t, rel=1e-12)
    expected = t + t * t / 4
    assert heat_expectation(parse_poly(cfg, "c1*cbar1"), t) == pytest.approx(expected, rel=1e-12)


def concatenated_eval_batch(f, W, C):
    """The evaluation formula of an earlier release, kept as the reference:
    every variable of every point in one (m, 2(k+d)) array."""
    Z = np.concatenate([W, C], axis=1)
    values = np.concatenate([Z, Z.conj()], axis=1)
    out = np.zeros(len(Z), dtype=complex)
    for key, coeff in f.terms.items():
        term = np.full(len(Z), coeff)
        for idx, e in enumerate(key):
            if e:
                term = term * values[:, idx] ** e
        out += term
    return out


@pytest.mark.parametrize("k,d", [(2, 1), (4, 2), (3, 2)])
def test_eval_batch_equals_concatenation_formula_bit_for_bit(k, d):
    # random polynomials touching all four blocks with powers up to 4; the
    # reference builds a temporary per factor, which numpy only reuses in
    # place above 256 KiB, so the points stay below that size here
    rng = np.random.default_rng(40 + k)
    cfg = random_config(rng, k, d)
    nv = 2 * cfg.n
    m = 400
    W = rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k))
    C = rng.normal(size=(m, d)) + 1j * rng.normal(size=(m, d))
    seen_blocks, seen_powers = set(), set()
    for _ in range(50):
        terms = {}
        for _ in range(int(rng.integers(1, 5))):
            key = [0] * nv
            for idx in rng.choice(nv, size=2, replace=False):
                key[idx] = int(rng.integers(1, 5))
            terms[tuple(key)] = complex(rng.normal(), rng.normal())
        f = Polynomial(cfg, terms)
        for key in f.terms:
            seen_blocks |= {(idx >= k) + (idx >= cfg.n) + (idx >= cfg.n + k)
                            for idx, e in enumerate(key) if e}
            seen_powers |= set(key)
        assert np.array_equal(f.eval_batch(W, C), concatenated_eval_batch(f, W, C))
        # a point's value does not depend on the points evaluated beside it
        assert np.array_equal(f.eval_batch(W, C)[7:9], f.eval_batch(W[7:9], C[7:9]))
        assert complex(f.eval_batch(W, C)[3]) == f.eval(GroupElement(cfg, W[3], C[3]))
    assert seen_blocks == {0, 1, 2, 3} and max(seen_powers) == 4


def test_eval_batch_value_independent_of_call_size():
    # above 256 KiB numpy may evaluate `term * x**e` as x *= term, whose
    # swapped complex product can round differently; evaluating in pieces
    # must give the bits of one call over all points
    rng = np.random.default_rng(44)
    cfg = heis()
    f = parse_poly(cfg, "w2^4*c1 + (1-2i)*c1*wbar1^2 + w1*w2*cbar1^3")
    m = 40000
    W = rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2))
    C = rng.normal(size=(m, 1)) + 1j * rng.normal(size=(m, 1))
    pieces = [f.eval_batch(W[s:s + 700], C[s:s + 700]) for s in range(0, m, 700)]
    assert np.array_equal(f.eval_batch(W, C), np.concatenate(pieces))


def test_mis_shaped_evaluation_inputs_fail_by_name():
    # each of these used to return a value read off the wrong column
    cfg = heis()
    c1 = parse_poly(cfg, "c1")
    bad = [
        ([[1, 2, 3]], [[7]]),  # three w columns at k = 2: returned 3
        ([[1, 2]], [[7, 8]]),  # two c columns at d = 1
        ([[1, 2], [3, 4]], [[7]]),  # two points against one
        ([1, 2], [7]),  # not stacked
    ]
    for W, C in bad:
        with pytest.raises(ValueError, match=r"eval_batch: expected W of shape \(m, 2\) and C "
                                             r"of shape \(m, 1\), got \("):
            c1.eval_batch(W, C)
    with pytest.raises(ValueError, match=r"got \(1, 2\) and \(1, 2\)"):
        parse_poly(cfg, "wbar1").eval_batch([[1, 2]], [[7, 8]])
    k3 = GroupConfig(3, 1, np.zeros((1, 3, 3)))
    g = GroupElement(k3, [1, 2, 3], [9])
    with pytest.raises(ValueError) as info:
        c1.eval(g)
    assert str(info.value) == f"the GroupElement belongs to {k3!r}, not to {cfg!r}"
    # another omega is another group, even at the same (k, d)
    other = GroupConfig(2, 1, 2 * SKEW)
    with pytest.raises(ValueError) as info:
        c1.eval(GroupElement(other, [1, 2], [9]))
    assert str(info.value) == f"the GroupElement belongs to {other!r}, not to {cfg!r}"
    assert c1.eval(GroupElement(heis(), [1, 2], [9])) == 9


def test_numbers_are_scalars_and_exponents_are_integers():
    # numpy integers used to fail with an AttributeError, a fractional power
    # with a TypeError, and a fractional exponent in the text with "invalid
    # literal for int()"; True used to pass as the exponent 1
    cfg = heis()
    f = parse_poly(cfg, "w1*c1 - 2*w2")
    assert f + np.int64(1) == f + 1
    assert f - np.int64(1) == f - 1
    assert f * np.int64(2) == f * 2 == np.int64(2) * f
    assert f * np.float32(0.5) == f * 0.5
    assert f ** np.int64(2) == f * f
    for exponent in (2.5, True, -1, 2 + 0j):
        with pytest.raises(ValueError) as info:
            f ** exponent
        assert str(info.value) == f"exponent must be an integer >= 0, got {exponent!r}"
    for text, got in [("w1^2.5", "2.5"), ("w1^1e2", "1e2"), ("w1^", ""), ("w1^w2", "w2")]:
        with pytest.raises(ValueError) as info:
            parse_poly(cfg, text)
        assert str(info.value) == f"expected an integer exponent after '^', got {got!r}"
    assert parse_poly(cfg, "w1^ 3") == parse_poly(cfg, "w1*w1*w1")
