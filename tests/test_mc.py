"""Sampler reproducibility, moment targets, chaos pairing, and residuals."""

import gc
import tracemalloc

import numpy as np
import pytest

from holoheis.group import GroupConfig, GroupElement, group_mul
from holoheis.poly import parse_poly, heat_expectation
from holoheis.fock import FockTensor, taylor
from holoheis import mc

SKEW = np.array([[[0.0, 1.0], [-1.0, 0.0]]], dtype=complex)


def heis():
    return GroupConfig(2, 1, SKEW)


def test_params_validation():
    # each bad value fails by name: non-finite or non-positive T, fractional
    # or zero counts, seeds outside the uint64 key range
    cases = [
        (dict(T=0.0), "T"),
        (dict(T=float("nan")), "T"),
        (dict(T=float("inf")), "T"),
        (dict(steps=0), "steps"),
        (dict(steps=2.5), "steps"),
        (dict(paths=2.5), "paths"),
        (dict(seed=-1), "seed"),
        (dict(seed=2**64), "seed"),
    ]
    for bad, name in cases:
        kwargs = dict(T=1.0, steps=16, paths=10, seed=0) | bad
        with pytest.raises(ValueError, match=rf"\b{name} must"):
            mc.MCParams(**kwargs)
    assert mc.MCParams(T=1, steps=np.int64(4), paths=1, seed=2**64 - 1).seed == 2**64 - 1


def test_params_reject_bools_by_name():
    # True and False are Integral, so they used to pass as a 1-step, 1-path run
    for name in ("steps", "paths", "seed"):
        kwargs = dict(T=1.0, steps=16, paths=10, seed=0) | {name: True}
        with pytest.raises(ValueError, match=f"MCParams: {name} must be"):
            mc.MCParams(**kwargs)
    with pytest.raises(ValueError, match="MCParams: seed must be"):
        mc.MCParams(T=1.0, steps=16, paths=10, seed=False)


def test_estimators_reject_bad_arguments_by_name():
    cfg = heis()
    f = parse_poly(cfg, "w1")
    params = mc.MCParams(T=1.0, steps=4, paths=8, seed=0)
    for stride in (0, -1):
        with pytest.raises(ValueError, match="stride"):
            mc.heat_mc_grid(cfg, f, params, stride=stride)
    with pytest.raises(ValueError, match="stride must divide steps, got stride=3 and steps=4"):
        mc.heat_mc_grid(cfg, f, params, stride=3)
    for p in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="p must"):
            mc.lp_norm_mc(cfg, f, p, params)


def test_estimators_reject_bad_workers_by_name():
    # zero or negative counts used to run serially without complaint
    cfg = heis()
    f = parse_poly(cfg, "w1*c1")
    params = mc.MCParams(T=1.0, steps=4, paths=8, seed=0)
    alpha = taylor(f)
    calls = [
        lambda w: mc.heat_mc(cfg, f, params, workers=w),
        lambda w: mc.skeleton_sweep(cfg, [(f, cfg.identity())], params, w),
        lambda w: mc.heat_mc_grid(cfg, f, params, workers=w),
        lambda w: mc.chaos_residual(cfg, f, params, workers=w),
        lambda w: mc.chaos_isometry_mc(cfg, [alpha], params, workers=w),
        lambda w: mc.lp_norm_mc(cfg, f, 3.0, params, workers=w),
        lambda w: mc.gaussian_moment_check(cfg, np.array([0.5, 0.1j]), params, workers=w),
    ]
    for call in calls:
        for workers in (0, -3, 1.5, True, "2"):
            with pytest.raises(ValueError, match=r"workers must be an integer >= 1"):
                call(workers)
        call(np.int64(2))


def test_paths_deterministic_and_batch_independent():
    cfg = heis()
    params = mc.MCParams(T=1.0, steps=32, paths=1, seed=42)
    a = mc.sample_path(cfg, params, 7)
    b = mc.sample_path(cfg, params, 7)
    assert np.array_equal(a.values, b.values)
    # the same path index seen through a batch: identical stream
    batch = mc._increment_batch(cfg, params, 5, 4)
    solo = mc._increment_batch(cfg, params, 7, 1)
    assert np.array_equal(batch[2], solo[0])


def test_increment_stream_matches_fresh_philox_per_path():
    # reference: a fresh Philox keyed (seed, i) per path filling its
    # (step, coordinate, Re/Im) normals; a batch that re-keys one generator
    # must leave no counter or buffer state behind between paths, although a
    # ziggurat takes a variable number of draws per normal
    cfg = heis()
    params = mc.MCParams(T=0.7, steps=5, paths=1, seed=2**63 + 11)
    start, count = 37, 6
    normals = np.empty((count, params.steps, cfg.n, 2))
    for j in range(count):
        key = np.array([params.seed, start + j], np.uint64)
        np.random.Generator(np.random.Philox(key=key)).standard_normal(out=normals[j])
    ref = normals.view(complex)[..., 0] * np.sqrt(params.dt / 2.0)
    assert np.array_equal(mc._increment_batch(cfg, params, start, count), ref)
    for j in range(count):
        assert np.array_equal(mc.sample_path(cfg, params, start + j).increments, ref[j])


def test_increment_normalization():
    # each coordinate increment has E|dZ|^2 = dt, split evenly Re/Im
    cfg = heis()
    params = mc.MCParams(T=2.0, steps=4, paths=4000, seed=1)
    inc = np.concatenate(
        [mc._increment_batch(cfg, params, s, c) for s, c in mc._batch_ranges(4000)]
    )
    dt = params.dt
    assert np.mean(np.abs(inc) ** 2) == pytest.approx(dt, rel=0.05)
    assert np.mean(inc.real**2) == pytest.approx(dt / 2, rel=0.05)
    assert abs(np.mean(inc)) <= 3 * np.sqrt(dt / 2 / inc.size)


def random_form(k, d, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(d, k, k)) + 1j * rng.normal(size=(d, k, k))
    return GroupConfig(k, d, raw - raw.transpose(0, 2, 1))


def group_mul_fold(cfg, inc):
    """Reference path: the left product of the increments (dW_s, dC_s) as
    group elements, g(t_{s+1}) = g(t_s) . (dW_s, dC_s), at every grid point."""
    g = cfg.identity()
    Ws, Cs = [g.w], [g.c]
    for db in inc:
        g = group_mul(g, GroupElement(cfg, db[: cfg.k], db[cfg.k:]))
        Ws.append(g.w)
        Cs.append(g.c)
    return np.array(Ws), np.array(Cs)


@pytest.mark.parametrize("form", ["reference", "random_k3_d2"])
def test_group_paths_match_group_mul_fold(form):
    # the one builder, for a single path and for a batch that starts inside
    # the stream, against an independent fold of the group law
    cfg = heis() if form == "reference" else random_form(3, 2, 21)
    params = mc.MCParams(T=1.3, steps=64, paths=8, seed=9)
    start, count = 5, 3
    W, C = mc._group_paths(cfg, mc._increment_batch(cfg, params, start, count))
    assert W.shape == (count, params.steps + 1, cfg.k)
    assert C.shape == (count, params.steps + 1, cfg.d)
    assert not W[:, 0].any() and not C[:, 0].any()
    for j in range(count):
        b = mc.sample_path(cfg, params, start + j)
        ref_W, ref_C = group_mul_fold(cfg, b.increments)
        atol = 1e-14 * max(1.0, np.abs(ref_W).max(), np.abs(ref_C).max())
        single = mc.group_path(cfg, b)
        assert np.array_equal(single.times, b.times)
        for got_W, got_C in ((W[j], C[j]), (single.W, single.C)):
            np.testing.assert_allclose(got_W, ref_W, rtol=0, atol=atol)
            np.testing.assert_allclose(got_C, ref_C, rtol=0, atol=atol)


@pytest.mark.parametrize("steps", [33, 257])
@pytest.mark.parametrize("form", ["reference", "random_k3_d2"])
def test_block_length_never_changes_a_result(monkeypatch, form, steps):
    # the builder carries each block's last row into the next one's
    # cumulative sums, and its area products never take a one-row BLAS
    # kernel, so one-step blocks, short blocks and a single block covering
    # the grid all give the bits of the shipped block length
    cfg = heis() if form == "reference" else random_form(3, 2, 23)
    params = mc.MCParams(T=1.0, steps=steps, paths=mc.BATCH + 40, seed=24)
    f = parse_poly(cfg, "w1^2*c1 + w2*cbar1 - c1^2 + wbar1*w2^3")
    holo = parse_poly(cfg, "w1^2*w2 + w2*c1 + 3*c1^2")
    inc = mc._increment_batch(cfg, params, 3, 6)

    def results():
        W, C = mc._group_paths(cfg, inc)
        one = mc.group_path(cfg, mc.sample_path(cfg, params, 4))
        # a path's group path does not depend on the batch it is built in
        assert np.array_equal(one.W, W[1]) and np.array_equal(one.C, C[1])
        ests = [mc.heat_mc(cfg, f, params), mc.chaos_residual(cfg, holo, params)]
        for stride in (1, steps):
            ests += mc.heat_mc_grid(cfg, f, params, stride=stride)[1]
        return W, C, [(e.mean, e.stderr) for e in ests]

    W, C, ests = results()
    assert W.shape == (6, steps + 1, cfg.k) and C.shape == (6, steps + 1, cfg.d)
    for block in (1, 7, steps + 5):
        monkeypatch.setattr(mc, "BLOCK", block)
        got_W, got_C, got = results()
        assert np.array_equal(got_W, W) and np.array_equal(got_C, C), block
        assert got == ests, block


def test_batch_working_set_is_increments_plus_blocks():
    # one 512-path batch at 1024 steps: beside its increments a batch holds
    # O(paths x BLOCK) of group path, and heat_mc_grid its (times, paths)
    # samples; whole-grid W, C and evaluation arrays took 3x and 5x
    cfg = heis()
    params = mc.MCParams(T=1.0, steps=1024, paths=512, seed=25)
    increment_bytes = params.paths * params.steps * cfg.n * 16
    f = parse_poly(cfg, "w1^2*c1 + w2*cbar1")
    calls = {
        "heat_mc_grid": (lambda: mc.heat_mc_grid(cfg, f, params, stride=1, workers=1), 2.0),
        "heat_mc": (lambda: mc.heat_mc(cfg, f, params, workers=1), 1.5),
    }
    for name, (call, bound) in calls.items():
        call()  # warm-up: caches settle outside the trace
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * increment_bytes, (name, peak / increment_bytes)


def test_heat_mc_hits_exact_expectation():
    cfg = heis()
    params = mc.MCParams(T=1.0, steps=128, paths=12000, seed=3)
    for text in ["w1*wbar1", "c1*cbar1", "w1^2*c1"]:
        f = parse_poly(cfg, text)
        est = mc.heat_mc(cfg, f, params)
        assert est.within(heat_expectation(f, 1.0)), text


def test_heat_mc_worker_invariance():
    cfg = heis()
    params = mc.MCParams(T=1.0, steps=64, paths=6000, seed=4)
    f = parse_poly(cfg, "c1*cbar1")
    one = mc.heat_mc(cfg, f, params, workers=1)
    four = mc.heat_mc(cfg, f, params, workers=4)
    assert one.mean == four.mean
    assert one.stderr == four.stderr


def test_skeleton_reproduces_point_values():
    cfg = heis()
    params = mc.MCParams(T=1.0, steps=128, paths=12000, seed=5)
    h = GroupElement(cfg, np.array([0.4 - 0.1j, 0.2j]), np.array([-0.3 + 0.5j]))
    f = parse_poly(cfg, "w1^2*c1 + 2*w2 - c1^2")
    est = mc.skeleton_mc(cfg, f, h, params)
    assert est.within(f.eval(h))


def test_sweeps_match_single_runs():
    # same paths and one contiguous reduction per column, so a sweep column
    # agrees with the single run (bit for bit: see the test below)
    cfg = heis()
    params = mc.MCParams(T=1.0, steps=32, paths=4000, seed=6)
    polys = [parse_poly(cfg, t) for t in ("w1", "c1*cbar1")]
    sweep = mc.heat_sweep(cfg, polys, params)
    for f, est in zip(polys, sweep):
        single = mc.heat_mc(cfg, f, params)
        assert est.mean == pytest.approx(single.mean, abs=1e-12)
        assert est.stderr == pytest.approx(single.stderr, rel=1e-9)
    again = mc.heat_sweep(cfg, polys, params, workers=3)
    assert [e.mean for e in sweep] == [e.mean for e in again]


def test_sweep_columns_equal_lone_estimators_bit_for_bit():
    # each column is reduced as one contiguous row, so its neighbours do not
    # change its rounding; 1300 paths end in a short batch
    cfg = heis()
    params = mc.MCParams(T=1.0, steps=16, paths=1300, seed=9)
    g, f, k = (parse_poly(cfg, t) for t in ("w1*c1 + 2", "w1^2*cbar1 - 3*w2", "c1*cbar1"))
    h = GroupElement(cfg, np.array([0.4 - 0.1j, 0.2j]), np.array([-0.3 + 0.5j]))
    lone = mc.heat_mc(cfg, f, params)
    column = mc.heat_sweep(cfg, [g, f, k], params)[1]
    assert column.mean == lone.mean and column.stderr == lone.stderr
    lone = mc.skeleton_mc(cfg, f, h, params)
    column = mc.skeleton_sweep(cfg, [(g, h), (f, h), (k, cfg.identity())], params, workers=2)[1]
    assert column.mean == lone.mean and column.stderr == lone.stderr


@pytest.mark.parametrize("form", ["reference", "random_k3_d2"])
def test_heat_sweep_equals_terminal_evaluation(form):
    # heat_sweep is the skeleton sweep at e; translation by e adds exact
    # zeros, so it keeps the bits of evaluating f on the terminal values
    cfg = heis() if form == "reference" else random_form(3, 2, 26)
    params = mc.MCParams(T=1.0, steps=24, paths=1100, seed=27)
    polys = [parse_poly(cfg, t) for t in ("w1^2*c1 + w2", "c1*cbar1 - 2", "w1*wbar2 + (1+2i)")]
    polys.append(polys[0].abs_sq())

    def batch(start, count):
        W, C = mc._terminal(cfg, mc._increment_batch(cfg, params, start, count))
        return np.stack([f.eval_batch(W, C) for f in polys])

    ref = [(e.mean, e.stderr) for e in mc._sample_means(params, 1, batch)]
    for workers in (1, 2):
        got = mc.heat_sweep(cfg, polys, params, workers)
        assert [(e.mean, e.stderr) for e in got] == ref, workers
    lone = mc.heat_mc(cfg, polys[3], params)
    assert (lone.mean, lone.stderr) == ref[3]


def test_skeleton_sweep_translates_once_per_point(monkeypatch):
    # cases that share a point (by identity) share its translation; every
    # estimate keeps the bits of translating once per case
    cfg = heis()
    params = mc.MCParams(T=1.0, steps=16, paths=1100, seed=29)
    h = GroupElement(cfg, np.array([0.3 - 0.1j, 0.2j]), np.array([0.5 + 0.25j]))
    e = cfg.identity()
    polys = [parse_poly(cfg, t) for t in ("w1^2*c1 + w2", "c1*cbar1 - 2", "w1*wbar2 + (1+2i)")]
    cases = [(f, e) for f in polys] + [(f, h) for f in polys] + [(polys[0], e)]

    def batch(start, count):
        W, C = mc._terminal(cfg, mc._increment_batch(cfg, params, start, count))
        return np.stack([f.eval_batch(*mc._translate(cfg, p, W, C)) for f, p in cases])

    ref = [(est.mean, est.stderr) for est in mc._sample_means(params, 1, batch)]
    calls = []
    translate = mc._translate
    monkeypatch.setattr(mc, "_translate", lambda *a: calls.append(a[1]) or translate(*a))
    got = mc.skeleton_sweep(cfg, cases, params, workers=1)
    assert [(est.mean, est.stderr) for est in got] == ref
    batches = len(mc._batch_ranges(params.paths))
    assert len(calls) == 2 * batches
    calls.clear()
    mc.heat_sweep(cfg, polys, params, workers=1)
    assert len(calls) == batches


def test_heat_mc_grid_is_flat_for_holomorphic():
    # E f(g(t)) = f(e) for every t on the grid
    cfg = heis()
    params = mc.MCParams(T=1.0, steps=64, paths=8000, seed=7)
    f = parse_poly(cfg, "w1*c1 + w2^3")
    times, ests = mc.heat_mc_grid(cfg, f, params, stride=16)
    assert times[0] == 0.0 and times[-1] == params.T
    target = f.eval(cfg.identity())
    assert ests[0].mean == target and ests[0].stderr == 0.0
    for est in ests[1:]:
        assert est.within(target)


def test_increment_parts_independent_with_gaussian_fourth_moment():
    # Re and Im of dZ are independent N(0, dt/2): E[dZ^2] = 0 and
    # E|dZ|^4 = 2 dt^2. A transform that writes one normal into both parts
    # gives E[dZ^2] = i dt, one that skips the sqrt(1/2) gives E|dZ|^4 = 8 dt^2
    cfg = heis()
    params = mc.MCParams(T=2.0, steps=4, paths=4000, seed=3)
    inc = np.concatenate(
        [mc._increment_batch(cfg, params, s, c) for s, c in mc._batch_ranges(params.paths)]
    ).ravel()
    dt, sigmas = params.dt, 4.0

    def within(samples, target):
        stderr = np.std(samples, ddof=1) / np.sqrt(samples.size)
        return abs(samples.mean() - target) <= sigmas * stderr

    sq = inc**2
    assert within(sq.real, 0.0) and within(sq.imag, 0.0)
    assert within(np.abs(inc) ** 4, 2.0 * dt**2)

    # an estimator over these paths, spread over several batches, has the
    # same bits on one worker and on two
    assert len(mc._batch_ranges(params.paths)) > 2
    f = parse_poly(cfg, "w1*w2 + c1^2")
    one, two = (mc.heat_mc(cfg, f, params, workers=w) for w in (1, 2))
    assert (one.mean, one.stderr) == (two.mean, two.stderr)


@pytest.mark.parametrize("estimator", ["heat_mc_grid", "skeleton_sweep", "lp_norm_mc"])
def test_path_estimators_bit_identical_across_workers(monkeypatch, estimator):
    # small batches, so the paths span several of them and the worker
    # counts split the batches differently
    monkeypatch.setattr(mc, "BATCH", 64)
    cfg = heis()
    params = mc.MCParams(T=1.0, steps=8, paths=300, seed=19)
    f = parse_poly(cfg, "w1^2*c1 + w2 - c1^2")
    h = GroupElement(cfg, np.array([0.3, -0.2j]), np.array([0.1 + 0.4j]))

    def run(workers):
        if estimator == "heat_mc_grid":
            return mc.heat_mc_grid(cfg, f, params, stride=2, workers=workers)[1]
        if estimator == "skeleton_sweep":
            return mc.skeleton_sweep(cfg, [(f, h), (f, cfg.identity())], params, workers)
        return [mc.lp_norm_mc(cfg, f, 3.0, params, workers)]

    one, three = run(1), run(3)
    assert len(mc._batch_ranges(params.paths)) == 5
    assert [(e.mean, e.stderr) for e in one] == [(e.mean, e.stderr) for e in three]


def test_default_batches_bit_identical_across_workers():
    # the shipped BATCH, not a patched one: a 2048-path call spans several
    # batches, so two workers share it, and the results stay bitwise equal
    assert len(mc._batch_ranges(2048)) >= 2
    cfg = heis()
    params = mc.MCParams(T=1.0, steps=8, paths=2 * mc.BATCH + 100, seed=20)
    assert len(mc._batch_ranges(params.paths)) == 3
    f = parse_poly(cfg, "w1^2*w2 + w2*c1 + 3*c1^2")
    grid = {w: mc.heat_mc_grid(cfg, f, params, stride=2, workers=w) for w in (1, 2)}
    res = {w: mc.chaos_residual(cfg, f, params, workers=w) for w in (1, 2)}
    assert [(e.mean, e.stderr) for e in grid[1][1]] == [(e.mean, e.stderr) for e in grid[2][1]]
    assert (res[1].mean, res[1].stderr) == (res[2].mean, res[2].stderr)

    # one evaluation over every grid point against one per time point
    W, C = mc._group_paths(cfg, mc._increment_batch(cfg, params, 0, params.paths))
    times, ests = grid[1]
    assert np.array_equal(times, np.arange(0, params.steps + 1, 2) * params.dt)
    for t, est in zip(range(0, params.steps + 1, 2), ests):
        x = f.eval_batch(W[:, t], C[:, t])
        stderr = np.sqrt(np.var(x, ddof=1) / params.paths) if t else 0.0
        assert np.isclose(est.mean, x.mean(), rtol=1e-12, atol=1e-15)
        assert np.isclose(est.stderr, stderr, rtol=1e-9, atol=1e-15)


def test_iterated_integrals_low_rank_exact():
    cfg = heis()
    params = mc.MCParams(T=1.0, steps=128, paths=1, seed=8)
    b = mc.sample_path(cfg, params, 0)
    Ms = mc.iterated_integrals(cfg, b, 2)
    assert np.allclose(Ms[0], b.values[-1], atol=1e-14)
    # M_2 antisymmetrized over the flat block reproduces the area sum
    area = np.einsum("mij,ij->m", cfg.omega, Ms[1][: cfg.k, : cfg.k])
    g = mc.group_path(cfg, b).terminal()
    assert np.allclose(g.c, b.values[-1, cfg.k:] + 0.5 * area, atol=1e-13)


def test_chaos_eval_exact_for_central_coordinate():
    cfg = heis()
    params = mc.MCParams(T=1.0, steps=256, paths=1, seed=9)
    c1 = parse_poly(cfg, "c1")
    alpha = taylor(c1)
    for idx in range(3):
        b = mc.sample_path(cfg, params, idx)
        direct = c1.eval(mc.group_path(cfg, b).terminal())
        assert abs(mc.chaos_eval(alpha, b) - direct) <= 1e-13


def test_chaos_residual_c1_is_zero():
    # the discrete pairing telescopes to the discrete area sum exactly; an
    # affine f has a Taylor tensor that stops at rank 1
    cfg = heis()
    for text in ["c1", "w1 + 2*w2 + 1"]:
        res = mc.chaos_residual(cfg, parse_poly(cfg, text), mc.MCParams(1.0, 128, 2000, 10))
        assert res.mean.real <= 1e-20, text


def test_chaos_residual_halves_with_step_doubling():
    cfg = heis()
    f = parse_poly(cfg, "w1^2 + w1*c1")
    means = []
    for steps in (128, 256, 512):
        r = mc.chaos_residual(cfg, f, mc.MCParams(1.0, steps, 4000, 11))
        means.append(r.mean.real)
    assert means[0] > means[1] > means[2] > 0
    for a, b in zip(means[:-1], means[1:]):
        assert 1.4 <= a / b <= 2.8


def test_chaos_isometry_targets():
    cfg = heis()
    comps2 = [dict(), dict(), {(0, 1): 1.0, (2, 2): 0.5j}]
    alpha2 = FockTensor(cfg, comps2)
    params = mc.MCParams(T=1.0, steps=128, paths=12000, seed=12)
    ests, cov, cstd = mc.chaos_isometry_mc(cfg, [alpha2], params)
    target = params.T**2 / 2 * alpha2.rank_norm_sq(2)
    assert ests[0].within(target)


def test_chaos_isometry_cross_moments_match_reference_paths(monkeypatch):
    # dependent pairings: the tensors share indices, so X_i conj(X_j) must be
    # judged by its own sample spread; small batches make the worker counts
    # split the paths differently
    monkeypatch.setattr(mc, "BATCH", 64)
    cfg = heis()
    alphas = [
        FockTensor(cfg, [dict(), {(0,): 1.0, (1,): -0.5j}]),
        FockTensor(cfg, [dict(), dict(), {(0, 0): 1.0, (0, 1): 0.7 - 0.2j}]),
        FockTensor(cfg, [dict(), dict(), dict(), {(0, 0, 0): 0.8j, (0, 1, 0): 1.0}]),
    ]
    params = mc.MCParams(T=1.0, steps=32, paths=300, seed=15)
    x = np.array(
        [[mc.chaos_eval(a, mc.sample_path(cfg, params, p)) for a in alphas]
         for p in range(params.paths)]
    )
    prods = x[:, :, None] * x.conj()[:, None, :]
    ref_mean = prods.mean(axis=0)
    ref_stderr = np.sqrt(
        (np.abs(prods - ref_mean) ** 2).sum(axis=0) / (params.paths - 1) / params.paths
    )
    ests, cov, cstd = mc.chaos_isometry_mc(cfg, alphas, params, workers=1)
    assert np.allclose(cov, ref_mean, rtol=1e-9, atol=0.0)
    assert np.allclose(cstd, ref_stderr, rtol=1e-9, atol=0.0)
    for i, est in enumerate(ests):
        assert est.mean == cov[i, i] and est.stderr == cstd[i, i]
    again = mc.chaos_isometry_mc(cfg, alphas, params, workers=3)
    assert [(e.mean, e.stderr) for e in ests] == [(e.mean, e.stderr) for e in again[0]]
    assert np.array_equal(cov, again[1]) and np.array_equal(cstd, again[2])


def test_gaussian_moment_check_rows():
    cfg = heis()
    rows = mc.gaussian_moment_check(
        cfg, np.array([0.5, -0.25j]), mc.MCParams(1.5, 1, 30000, 13)
    )
    assert [r["moment"] for r in rows] == ["exp_mean", "re_sq", "im_sq", "abs_sq"]
    assert all(r["pass"] for r in rows)


def test_lp_norm_mc_matches_exact_for_p2():
    cfg = heis()
    f = parse_poly(cfg, "w1*c1 + 2")
    params = mc.MCParams(T=1.0, steps=128, paths=12000, seed=14)
    est = mc.lp_norm_mc(cfg, f, 2.0, params)
    assert est.within(heat_expectation(f.abs_sq(), 1.0).real)


def test_pairings_match_dense_reference(monkeypatch):
    # the prefix walk against the dense per-path route: shared prefixes
    # across columns, a key that ends where a longer one continues, a
    # scalar-only tensor, keys into the central direction and rank 4
    cfg = heis()
    alphas = [
        FockTensor(cfg, [{(): 0.5 - 1j}]),
        FockTensor(cfg, [{(): 2.0}, {(0,): 1.0, (2,): -0.5j}, {(0, 1): 0.3, (2, 2): 1j}]),
        FockTensor(cfg, [dict(), {(0,): 0.25}, dict(), {(0, 1, 0): 0.7 - 0.2j, (0, 1, 2): 1.1}]),
        FockTensor(cfg, [dict(), dict(), {(0, 1): -1.0},
                         {(2, 0, 1): 0.4j}, {(0, 1, 2, 1): 1.0, (1, 1, 1, 1): -0.6}]),
    ]
    params = mc.MCParams(T=1.3, steps=24, paths=40, seed=16)
    got = mc._pairings(alphas, mc._increment_batch(cfg, params, 0, params.paths))
    ref = np.array(
        [[mc.chaos_eval(a, mc.sample_path(cfg, params, p)) for a in alphas]
         for p in range(params.paths)]
    )
    assert got.shape == ref.shape
    assert np.array_equal(got[:, 0], ref[:, 0])
    assert np.allclose(got, ref, rtol=1e-12, atol=0.0)

    monkeypatch.setattr(mc, "BATCH", 64)
    f = parse_poly(cfg, "w1^2*w2 + w2*c1 + 3*c1^2")
    params = mc.MCParams(T=1.0, steps=16, paths=300, seed=17)
    one = mc.chaos_residual(cfg, f, params, workers=1)
    three = mc.chaos_residual(cfg, f, params, workers=3)
    assert (one.mean, one.stderr) == (three.mean, three.stderr)
    const = mc.chaos_residual(cfg, parse_poly(cfg, "(2-1i)"), params, workers=3)
    assert const.mean == 0.0 and const.stderr == 0.0


def tree_pairings(alphas, inc):
    """Reference walk: the keys gathered into a tree of their prefixes,
    walked depth first by recursion, siblings in order of first appearance."""
    count, steps, _ = inc.shape
    out = np.empty((count, len(alphas)), complex)
    root = {}  # index -> (children, [(column, coeff) of keys ending here])
    for col, alpha in enumerate(alphas):
        out[:, col] = alpha.scalar
        for comp in alpha.ranks[1:]:
            for key, coeff in comp.items():
                children = root
                for i in key[:-1]:
                    children = children.setdefault(i, ({}, []))[0]
                children.setdefault(key[-1], ({}, []))[1].append((col, coeff))

    def walk(children, prev):
        for i, (grand, leaves) in children.items():
            db = inc[:, :, i]
            if grand:
                path = np.empty((count, steps + 1), complex)
                path[:, 0] = 0.0
                if prev is None:
                    np.cumsum(db, axis=1, out=path[:, 1:])
                else:
                    np.multiply(prev, db, out=path[:, 1:])
                    np.cumsum(path[:, 1:], axis=1, out=path[:, 1:])
                terminal = path[:, -1]
            elif prev is None:
                terminal = db.sum(axis=1)
            else:
                terminal = np.einsum("ps,ps->p", prev, db)
            for col, coeff in leaves:
                out[:, col] += coeff * terminal
            if grand:
                walk(grand, path[:, :-1])

    walk(root, None)
    return out


def test_pairings_free_each_left_path_before_the_next():
    # rank-3 keys under two first indices: at most two left-point paths (a
    # prefix and its parent) may be alive at once; a path the walk has left,
    # kept by a loop variable while the next is allocated, makes three
    cfg = heis()
    params = mc.MCParams(T=1.0, steps=512, paths=128, seed=30)
    inc = mc._increment_batch(cfg, params, 0, params.paths)
    alpha = taylor(parse_poly(cfg, "w1*w2*w1 + w2^3 + c1*w1"))
    path_bytes = params.paths * (params.steps + 1) * 16
    mc._pairings([alpha], inc)  # warm-up: caches settle outside the trace
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        mc._pairings([alpha], inc)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * path_bytes, peak / path_bytes


def test_pairings_equal_the_tree_walk():
    # the flat walk does the tree walk's numpy operations in its order, so
    # the bits agree: shared prefixes across columns, a key that ends where
    # a longer one continues, a scalar-only tensor, rank 4, then random sets
    cfg = heis()
    alphas = [
        FockTensor(cfg, [{(): 0.5 - 1j}]),
        FockTensor(cfg, [{(): 2.0}, {(0,): 1.0, (2,): -0.5j}, {(0, 1): 0.3, (2, 2): 1j}]),
        FockTensor(cfg, [dict(), {(0,): 0.25}, dict(), {(0, 1, 0): 0.7 - 0.2j, (0, 1, 2): 1.1}]),
        FockTensor(cfg, [dict(), dict(), {(1, 0): -1.0, (0, 1): 2j},
                         {(2, 0, 1): 0.4j}, {(0, 1, 2, 1): 1.0, (1, 0, 1, 1): -0.6}]),
    ]
    params = mc.MCParams(T=1.3, steps=24, paths=40, seed=28)
    inc = mc._increment_batch(cfg, params, 0, params.paths)
    assert np.array_equal(mc._pairings(alphas, inc), tree_pairings(alphas, inc))
    rng = np.random.default_rng(29)
    for trial in range(40):
        k, d = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        cfg = random_form(k, d, trial)
        alphas = []
        for _ in range(int(rng.integers(1, 4))):
            comps = [dict() for _ in range(int(rng.integers(1, 6)))]
            for r, comp in enumerate(comps):
                for _ in range(int(rng.integers(0, 4))):
                    key = tuple(int(i) for i in rng.integers(0, cfg.n, size=r))
                    comp[key] = complex(rng.normal(), rng.normal())
            alphas.append(FockTensor(cfg, comps))
        params = mc.MCParams(T=1.0, steps=int(rng.integers(1, 40)), paths=7, seed=trial)
        inc = mc._increment_batch(cfg, params, 0, params.paths)
        assert np.array_equal(mc._pairings(alphas, inc), tree_pairings(alphas, inc)), trial


def test_inputs_from_another_group_fail_by_name():
    # B's form is three times A's: same k and d, another group. Such an input
    # used to be read in A's group without a word (E|c1|^2 near A's 1.25,
    # not B's 3.25), and one of another size failed inside numpy
    A, B, K3 = heis(), GroupConfig(2, 1, 3 * SKEW), random_form(3, 1, 30)
    params = mc.MCParams(T=1.0, steps=4, paths=8, seed=31)
    f_B = parse_poly(B, "c1*cbar1")
    f_A = parse_poly(A, "w1*c1")
    h_K3 = GroupElement(K3, np.zeros(3), np.zeros(1))
    alpha_K3 = FockTensor(K3, [dict(), {(3,): 1.0}])
    b_K3 = mc.sample_path(K3, params, 0)
    calls = [
        (lambda: mc.heat_mc(A, f_B, params), "Polynomial", B),
        (lambda: mc.heat_sweep(A, [f_A, f_B], params), "Polynomial", B),
        (lambda: mc.skeleton_mc(A, f_A, h_K3, params), "GroupElement", K3),
        (lambda: mc.skeleton_sweep(A, [(f_B, A.identity())], params), "Polynomial", B),
        (lambda: mc.heat_mc_grid(A, f_B, params), "Polynomial", B),
        (lambda: mc.lp_norm_mc(A, f_B, 3.0, params), "Polynomial", B),
        (lambda: mc.chaos_residual(A, f_B, params), "Polynomial", B),
        (lambda: mc.chaos_isometry_mc(A, [taylor(f_A), alpha_K3], params), "FockTensor", K3),
    ]
    for call, kind, other in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"the {kind} belongs to {other!r}, not to {A!r}"
    paths = [
        lambda: mc.iterated_integrals(A, b_K3, 2),
        lambda: mc.chaos_eval(taylor(f_A), b_K3),
        lambda: mc.group_path(A, b_K3),
    ]
    for call in paths:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"the path has 4 coordinates, {A!r} has 3"
    # a configuration equal to A's but built apart is the same group
    twin = GroupConfig(2, 1, SKEW.copy())
    est = mc.heat_mc(A, parse_poly(twin, "c1*cbar1"), params)
    assert est == mc.heat_mc(A, parse_poly(A, "c1*cbar1"), params)


def test_gaussian_moment_check_rejects_phi_of_another_length():
    # a third coefficient used to fail inside numpy's reshape
    params = mc.MCParams(T=1.0, steps=1, paths=8, seed=32)
    for phi in (np.ones(3), np.ones(1), []):
        with pytest.raises(ValueError) as info:
            mc.gaussian_moment_check(heis(), phi, params)
        assert str(info.value) == f"phi must hold k = 2 coefficients, got {len(phi)}"
    # a (k, 1) column still counts as k coefficients
    rows = mc.gaussian_moment_check(heis(), np.ones((2, 1)), params)
    assert [r["moment"] for r in rows] == ["exp_mean", "re_sq", "im_sq", "abs_sq"]


def test_estimators_leave_no_reference_cycles():
    # arrays caught in a cycle live until the cyclic collector runs, which
    # inflates peak memory; every estimator must free its batches by
    # reference counting alone
    cfg = heis()
    params = mc.MCParams(T=1.0, steps=8, paths=200, seed=18)
    f = parse_poly(cfg, "w1^2*c1 + w2")
    h = GroupElement(cfg, np.array([0.3, -0.2j]), np.array([0.1 + 0.4j]))
    alphas = [taylor(f), FockTensor(cfg, [dict(), {(0,): 1.0}])]
    calls = [
        lambda: mc.heat_sweep(cfg, [f], params),
        lambda: mc.skeleton_sweep(cfg, [(f, h)], params),
        lambda: mc.heat_mc_grid(cfg, f, params, stride=2),
        lambda: mc.lp_norm_mc(cfg, f, 3.0, params),
        lambda: mc.chaos_residual(cfg, f, params, workers=1),
        lambda: mc.chaos_isometry_mc(cfg, alphas, params, workers=1),
        lambda: mc.chaos_isometry_mc(cfg, alphas, params, workers=2),
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
