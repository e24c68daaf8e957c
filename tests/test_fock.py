"""Derivative tensors, the norm identity, annihilator residual, truncations."""

import math

import numpy as np
import pytest

from holoheis.group import GroupConfig
from holoheis.poly import (
    CLEANUP_TOL,
    Polynomial,
    _basis_halves,
    _basis_kernels,
    _clean_terms,
    _one_sided,
    _unit_constant,
    parse_poly,
    lid,
    heat_expectation,
)
from holoheis.fock import (
    FockTensor,
    taylor,
    inverse_taylor,
    fock_norm_sq,
    fock_inner,
    j0_residual,
    grading_pullback,
    fejer_truncate,
)

SKEW = np.array([[[0.0, 1.0], [-1.0, 0.0]]], dtype=complex)


def heis():
    return GroupConfig(2, 1, SKEW)


def random_holo(cfg, rng, terms=4, degree=4):
    out = Polynomial.zero(cfg)
    for _ in range(terms):
        key = [0] * (2 * cfg.n)
        budget = int(rng.integers(1, degree + 1))
        while budget > 0:
            if budget >= 2 and rng.random() < 0.4:
                key[cfg.k + int(rng.integers(0, cfg.d))] += 1
                budget -= 2
            else:
                key[int(rng.integers(0, cfg.k))] += 1
                budget -= 1
        out = out + Polynomial(cfg, {tuple(key): complex(rng.normal(), rng.normal())})
    return out


def test_taylor_c1_reference_records():
    cfg = heis()
    alpha = taylor(parse_poly(cfg, "c1"))
    assert alpha.to_records() == [
        (1, [2], [1.0, 0.0]),
        (2, [0, 1], [0.5, 0.0]),
        (2, [1, 0], [-0.5, 0.0]),
    ]


def test_taylor_equals_iterated_public_lid():
    # taylor differentiates with the holomorphic half of lid alone; on
    # holomorphic chains the other half adds nothing, so no bit may change
    rng = np.random.default_rng(8)
    raw = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    cases = [
        (heis(), "w1^2*c1 + w2*c1 - w1*w2 + c1^2 + w2^3*w1"),
        (heis(), "(0.3+0.2i)*c1^2*w1 - 2*w2*c1 + 1.5"),
        (GroupConfig(3, 2, raw - np.transpose(raw, (0, 2, 1))), None),
    ]
    for cfg, text in cases:
        f = random_holo(cfg, rng) if text is None else parse_poly(cfg, text)
        basis = cfg.basis()
        ranks = [{(): f.constant_term()}]
        chains = {(): f}
        for _ in range(f.graded_degree()):
            chains = {
                (j,) + key: lid(chain, h)
                for key, chain in chains.items()
                for j, h in enumerate(basis)
            }
            ranks.append({key: chain.constant_term() for key, chain in chains.items()})
        expected = FockTensor(cfg, ranks)
        assert taylor(f).ranks == expected.ranks
        assert sum(len(r) for r in expected.ranks) >= 10


def taylor_by_chains(f):
    # the chain loop of an earlier release, kept as the reference: every index
    # tuple's chain differentiated along every direction, however many share it
    cfg = f.config
    hols = [hol for hol, _ in _basis_halves(cfg)]
    zero = Polynomial._zero_key(cfg)
    ranks = [{} for _ in range(f.graded_degree() + 1)]
    if abs(f.constant_term()) > CLEANUP_TOL:
        ranks[0][()] = f.constant_term()
    chains = {(): f.terms}
    for n in range(1, len(ranks)):
        extended = {}
        for key, terms in chains.items():
            for j, hol in enumerate(hols):
                out = {}
                _one_sided(terms, 0, *hol, out)
                derived = _clean_terms(out)
                if not derived:
                    continue
                extended[(j,) + key] = derived
                if zero in derived:
                    ranks[n][(j,) + key] = derived[zero]
        chains = extended
        if not chains:
            break
    return FockTensor(cfg, ranks)


def test_taylor_equals_the_chain_loop_bit_for_bit():
    # each distinct chain is differentiated once and affine chains are read
    # off, which must keep every value and the order of every rank's entries
    rng = np.random.default_rng(21)
    raw = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    form = GroupConfig(3, 2, raw - np.transpose(raw, (0, 2, 1)))
    cases = [parse_poly(heis(), "c1^6"), parse_poly(form, "w1*c2 - (2+1i)*w3^2*c1 + c2^2 + w2")]
    cases += [random_holo(heis(), rng, terms=3, degree=8) for _ in range(4)]
    cases += [random_holo(form, rng, terms=3, degree=5) for _ in range(3)]
    for f in cases:
        got, ref = taylor(f), taylor_by_chains(f)
        assert [list(r.items()) for r in got.ranks] == [list(r.items()) for r in ref.ranks], str(f)


def test_taylor_tensor_equals_the_public_constructor_output():
    # taylor wraps the ranks it builds without re-validating them; the public
    # constructor must find nothing to drop, convert or reorder
    rng = np.random.default_rng(22)
    raw = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    form = GroupConfig(3, 2, raw - np.transpose(raw, (0, 2, 1)))
    cases = [parse_poly(heis(), text) for text in ("0", "2", "w1", "c1^6")]
    cases += [random_holo(heis(), rng, terms=3, degree=8) for _ in range(4)]
    cases += [random_holo(form, rng, terms=3, degree=5) for _ in range(4)]
    for f in cases:
        got = taylor(f)
        public = FockTensor(f.config, got.ranks)
        assert [list(r.items()) for r in got.ranks] == [list(r.items()) for r in public.ranks]
        assert all(type(z) is complex for r in got.ranks for z in r.values()), str(f)


def test_affine_constants_equal_a_full_kernel_step():
    # on a chain of graded degree <= 1 the constant that _unit_constant
    # reads off its unit monomials is the whole derivative, bit for bit
    rng = np.random.default_rng(22)
    raw = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    for cfg in (heis(), GroupConfig(3, 2, raw - np.transpose(raw, (0, 2, 1)))):
        hols, units = _basis_kernels(cfg)
        zero = Polynomial._zero_key(cfg)
        for trial in range(20):
            terms = {zero: complex(rng.normal(), rng.normal())} if trial % 2 else {}
            for j in rng.choice(cfg.k, size=int(rng.integers(1, cfg.k + 1)), replace=False):
                key = list(zero)
                key[j] = 1
                terms[tuple(key)] = complex(rng.normal(), rng.normal())
            expected = []
            for j, hol in enumerate(hols):
                out = {}
                _one_sided(terms, 0, *hol, out)
                derived = _clean_terms(out)
                assert set(derived) <= {zero}
                if derived:
                    expected.append((j, derived[zero]))
            got = [(j, z) for j, u in enumerate(units) if (z := _unit_constant(terms, u))]
            assert got == expected
            assert repr(got) == repr(expected)  # signed zeros included


def test_taylor_rejects_non_holomorphic():
    cfg = heis()
    with pytest.raises(ValueError):
        taylor(parse_poly(cfg, "w1*wbar1"))


def test_taylor_rank_bounded_by_graded_degree():
    cfg = heis()
    f = parse_poly(cfg, "w1^2*c1")  # graded degree 4
    alpha = taylor(f)
    assert alpha.nonzero_maxrank() == 4
    with pytest.raises(ValueError):
        taylor(f, maxrank=3)


def test_inverse_taylor_roundtrip():
    cfg = heis()
    rng = np.random.default_rng(0)
    for _ in range(8):
        f = random_holo(cfg, rng)
        assert inverse_taylor(taylor(f)).close_to(f, 1e-10)


def test_norm_identity_against_heat_oracle():
    cfg = heis()
    rng = np.random.default_rng(1)
    for _ in range(10):
        f = random_holo(cfg, rng)
        for T in (0.5, 1.0, 2.0):
            lhs = fock_norm_sq(taylor(f), T)
            rhs = heat_expectation(f.abs_sq(), T).real
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-12)


def test_fock_inner_polarizes_norm():
    cfg = heis()
    rng = np.random.default_rng(2)
    f, g = random_holo(cfg, rng), random_holo(cfg, rng)
    af, ag = taylor(f), taylor(g)
    T = 0.8
    # <a+b, a+b> = |a|^2 + |b|^2 + 2 Re <a, b>
    total = fock_norm_sq(af.add(ag), T)
    split = fock_norm_sq(af, T) + fock_norm_sq(ag, T) + 2 * fock_inner(af, ag, T).real
    assert total == pytest.approx(split, rel=1e-11)
    swapped = fock_inner(ag, af, T)
    assert fock_inner(af, ag, T) == pytest.approx(np.conj(swapped), rel=1e-11)


@pytest.mark.parametrize("form", ["reference", "random_k3_d2"])
def test_fock_inner_against_heat_oracle(form):
    # the equivalence is unitary: <taylor f, taylor g>_T = E_T[f conj(g)]
    rng = np.random.default_rng(3)
    if form == "reference":
        cfg = heis()
    else:
        raw = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
        cfg = GroupConfig(3, 2, raw - np.transpose(raw, (0, 2, 1)))
    for _ in range(4):
        f = random_holo(cfg, rng)
        # share a part with f, so that no pair is orthogonal by grading
        g = random_holo(cfg, rng) + (0.5 - 0.5j) * f
        af, ag = taylor(f), taylor(g)
        for T in (0.5, 1.0, 2.0):
            lhs = fock_inner(af, ag, T)
            rhs = heat_expectation(f * g.conj(), T)
            assert abs(rhs) > 0.01
            assert lhs == pytest.approx(rhs, rel=1e-11)


@pytest.mark.parametrize("T", [float("nan"), float("inf")])
def test_fock_norms_reject_non_finite_time_by_name(T):
    cfg = heis()
    alpha = taylor(parse_poly(cfg, "w1*c1 + 2"))
    cases = [
        ("fock_norm_sq", lambda: fock_norm_sq(alpha, T)),
        ("fock_inner", lambda: fock_inner(alpha, alpha, T)),
    ]
    for name, call in cases:
        with pytest.raises(ValueError, match=rf"{name}: T must be finite and positive, got T={T}"):
            call()


def test_j0_residual_reference_values():
    cfg = heis()
    assert j0_residual(taylor(parse_poly(cfg, "c1"))) == pytest.approx(0.0, abs=1e-12)
    anti = FockTensor(cfg, [{}, {}, {(0, 1): 0.5, (1, 0): -0.5}])
    sym = FockTensor(cfg, [{}, {}, {(0, 1): 0.5, (1, 0): 0.5}])
    assert j0_residual(anti) == pytest.approx(1.0, abs=1e-12)
    assert j0_residual(sym) == pytest.approx(0.0, abs=1e-12)


def test_j0_residual_vanishes_on_taylor_range():
    cfg = heis()
    rng = np.random.default_rng(3)
    for _ in range(6):
        assert j0_residual(taylor(random_holo(cfg, rng))) <= 1e-10


def j0_by_candidates(alpha):
    # the candidate loop of an earlier release, kept as the reference
    cfg = alpha.config
    k, omega, N = cfg.k, cfg.omega, alpha.maxrank
    candidates = set()
    for r in range(2, N + 1):
        for key in alpha.ranks[r]:
            for p in range(r - 1):
                candidates.add((key[:p], key[p], key[p + 1], key[p + 2:]))
    for r in range(1, N):
        for key in alpha.ranks[r]:
            for p in range(r):
                if key[p] >= k:
                    rows, cols = omega[key[p] - k].nonzero()
                    for h, kk in zip(rows, cols):
                        candidates.add((key[:p], int(h), int(kk), key[p + 1:]))
    worst = 0.0
    for u, h, kk, v in candidates:
        if len(u) + len(v) + 2 > N:
            continue
        value = alpha.entry(u + (h, kk) + v) - alpha.entry(u + (kk, h) + v)
        if h < k and kk < k:
            for m in range(cfg.d):
                if omega[m, h, kk] != 0:
                    value -= omega[m, h, kk] * alpha.entry(u + (k + m,) + v)
        worst = max(worst, abs(value))
    return worst


def test_j0_residual_equals_the_candidate_loop():
    # taylor tensors (residual at rounding level), the anti/sym tensors above,
    # and random tensors whose conditions fail through every slot
    cfg = heis()
    rng = np.random.default_rng(23)
    raw = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    form = GroupConfig(3, 2, raw - np.transpose(raw, (0, 2, 1)))
    tensors = [
        FockTensor(cfg, [{}, {}, {(0, 1): 0.5, (1, 0): -0.5}]),
        FockTensor(cfg, [{}, {}, {(0, 1): 0.5, (1, 0): 0.5}]),
        FockTensor(cfg, [{(): 1.0}, {(2,): 2.0}]),
    ]
    tensors += [taylor(random_holo(c, rng, degree=5)) for c in (cfg, form) for _ in range(4)]
    for c in (cfg, form):
        for _ in range(6):
            ranks = [{(): complex(rng.normal())}]
            for r in range(1, 5):
                words = rng.integers(0, c.n, size=(int(rng.integers(1, 12)), r))
                ranks.append({tuple(int(i) for i in w): complex(rng.normal(), rng.normal())
                              for w in words})
            tensors.append(FockTensor(c, ranks))
    for alpha in tensors:
        assert j0_residual(alpha) == j0_by_candidates(alpha)


def test_j0_residual_equals_the_candidate_loop_on_a_near_skew_form():
    # a form skew only within SKEW_TOL: the conditions at (h, k) and (k, h)
    # are no longer exact negatives, and [h, h] has an entry, so j0_residual
    # must visit each of them rather than read one off the other
    rng = np.random.default_rng(25)
    raw = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    near = raw - np.transpose(raw, (0, 2, 1))
    near[0, 0, 1] += 1e-13
    near[1, 2, 1] -= 7e-14j
    near[0, 2, 2] = 8e-14
    form = GroupConfig(3, 2, near)
    assert form.omega[0, 0, 1] != -form.omega[0, 1, 0] and form.omega[0, 2, 2] != 0
    # the worst condition is at (0, 1) or (1, 0), which differ by about 1e-13
    tensors = [FockTensor(form, [{}, {(3,): 1.0, (4,): 0.5j}, {(0, 1): 10.0, (1, 0): -10.0}])]
    tensors += [taylor(random_holo(form, rng, degree=5)) for _ in range(4)]
    for _ in range(8):
        ranks = [{(): complex(rng.normal())}]
        for r in range(1, 5):
            words = rng.integers(0, form.n, size=(int(rng.integers(4, 16)), r))
            ranks.append({tuple(int(i) for i in w): complex(rng.normal(), rng.normal())
                          for w in words})
        for word in [w for w in ranks[2] if w[0] != w[1]]:
            ranks[2][word[::-1]] = complex(rng.normal(), rng.normal())
        tensors.append(FockTensor(form, ranks))
    for alpha in tensors:
        assert j0_residual(alpha) == j0_by_candidates(alpha)


def test_sub_equals_the_negated_add():
    # one pass, equal to add(scale(-1.0)) entry by entry and in key order;
    # entries that cancel to zero or to below CLEANUP_TOL are dropped
    cfg = heis()
    a = FockTensor(cfg, [{(): 1 + 2j}, {(0,): 0.5, (1,): -1.5j, (2,): 3.0},
                         {(0, 1): 2.0, (1, 0): 1e-3}])
    b = FockTensor(cfg, [{(): 1 + 2j}, {(2,): 1.0, (0,): 0.5 + 4e-15},
                         {(0, 1): 2.0, (2, 2): -1j}, {(0, 0, 1): 4.0}])
    rng = np.random.default_rng(26)
    pairs = [(a, b), (b, a), (a, a)]
    pairs += [(taylor(random_holo(cfg, rng)), taylor(random_holo(cfg, rng))) for _ in range(4)]
    f = random_holo(cfg, rng, degree=6)
    pairs.append((taylor(f), taylor(f + 1e-15 * random_holo(cfg, rng))))
    for x, y in pairs:
        got, ref = x.sub(y), x.add(y.scale(-1.0))
        assert [list(r.items()) for r in got.ranks] == [list(r.items()) for r in ref.ranks]
    diff = a.sub(b)
    assert diff.ranks[0] == {} and (0,) not in diff.ranks[1] and (0, 1) not in diff.ranks[2]
    assert diff.maxrank == 3


def test_grading_pullback_is_isometry():
    cfg = heis()
    rng = np.random.default_rng(4)
    f = random_holo(cfg, rng)
    alpha = taylor(f)
    for theta in (0.3, math.pi, 2.1):
        rotated = grading_pullback(alpha, theta)
        assert fock_norm_sq(rotated, 1.3) == pytest.approx(fock_norm_sq(alpha, 1.3), rel=1e-12)


def test_grading_pullback_phase_convention():
    cfg = heis()
    alpha = taylor(parse_poly(cfg, "c1"))
    # every entry of taylor(c1) has rank + central count = 2, so theta = pi fixes it
    assert grading_pullback(alpha, math.pi).close_to(alpha, 1e-12)
    # theta = pi/2 multiplies those entries by exp(i pi) = -1
    assert grading_pullback(alpha, math.pi / 2).close_to(alpha.scale(-1.0), 1e-12)


def test_fejer_truncate_reference_weights():
    cfg = heis()
    cut = fejer_truncate(taylor(parse_poly(cfg, "w1")), 2)
    assert cut.to_records() == [(1, [0], [0.5, 0.0])]


def test_fejer_truncate_kills_high_degrees():
    cfg = heis()
    alpha = taylor(parse_poly(cfg, "w1^3 + c1"))
    cut = fejer_truncate(alpha, 2)
    assert cut.rank_norm_sq(3) == 0.0
    # c1 contributes rank-1 entries of degree 2 (one central index): weight 0 at n = 2
    assert cut.entry((2,)) == 0.0
    with pytest.raises(ValueError):
        fejer_truncate(alpha, 0)


def test_fejer_weights_increase_to_one():
    cfg = heis()
    f = parse_poly(cfg, "w1^2 + c1*w2")
    alpha = taylor(f)
    for n in (4, 8, 16):
        cut = fejer_truncate(alpha, n)
        for r in range(alpha.maxrank + 1):
            assert cut.rank_norm_sq(r) <= alpha.rank_norm_sq(r) + 1e-15
    # exact weight: entry scales by 1 - degree/n, degree = rank + central count
    n = 16
    cut = fejer_truncate(alpha, n)
    assert cut.entry((0, 0)) == pytest.approx(alpha.entry((0, 0)) * (1 - 2 / n), rel=1e-12)
    assert cut.entry((2, 1)) == pytest.approx(alpha.entry((2, 1)) * (1 - 3 / n), rel=1e-12)


def test_records_roundtrip():
    cfg = heis()
    alpha = taylor(parse_poly(cfg, "w1*c1 + w2^2"))
    again = FockTensor.from_records(cfg, alpha.to_records())
    assert again.close_to(alpha, 1e-14)


def test_maxrank_is_the_stored_rank_count():
    cfg = heis()
    alpha = FockTensor(cfg, [{}, {(0,): 1}, {(0, 0): 2}])
    assert alpha.maxrank == 2 and alpha.entry((0, 0)) == 2
    assert alpha.entry((0, 0, 0)) == 0
    with pytest.raises(AttributeError):
        alpha.maxrank = 1
    with pytest.raises(TypeError):
        FockTensor(cfg, [{}, {(0,): 1}, {(0, 0): 2}], 1)


def test_empty_ranks_rejected_by_name():
    # an empty tensor would have maxrank -1 and no scalar; the zero tensor
    # is [{}], which the records round trip keeps
    cfg = heis()
    with pytest.raises(ValueError, match="empty ranks"):
        FockTensor(cfg, [])
    zero = FockTensor(cfg, [{}])
    assert zero.maxrank == 0 and zero.scalar == 0
    again = FockTensor.from_records(cfg, zero.to_records())
    assert again.maxrank == 0 and again.close_to(zero, 0.0)


def test_close_to_compares_the_group():
    # tensors of the same entries over another omega used to be close
    skew = np.array([[[0.0, 1.0], [-1.0, 0.0]]])
    ranks = [{(): 1.0}, {(0,): 2.0, (2,): 0.5j}, {(0, 1): -1.0}]
    alpha = FockTensor(GroupConfig(2, 1, skew), ranks)
    beta = FockTensor(GroupConfig(2, 1, 3 * skew), ranks)
    assert not alpha.close_to(beta) and not beta.close_to(alpha)
    assert alpha.close_to(FockTensor(GroupConfig(2, 1, skew), ranks))
