"""Tests of the benchmark itself: its arithmetic, its span bookkeeping, a
reduced-size run of every workload with all of its checks, and the command's
output format.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import (  # noqa: E402
    Recorder,
    Round,
    Span,
    median,
    nearest_rank,
    rate,
    self_times,
    tail_percentile,
)


# -- arithmetic ----------------------------------------------------------------


def test_median_odd_and_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_nearest_rank():
    values = list(range(1, 101))
    assert nearest_rank(values, 50) == 50
    assert nearest_rank(values, 90) == 90
    assert nearest_rank(values, 0) == 1
    assert nearest_rank([5.0], 99) == 5.0


@pytest.mark.parametrize(
    "n, expected",
    [(39, None), (40, (75.0, 30)), (99, (75.0, 75)), (100, (90.0, 90)),
     (1000, (99.0, 990)), (10000, (99.9, 9990))],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    values = list(range(1, n + 1))
    assert tail_percentile(values) == expected
    if expected is not None:
        p, value = expected
        assert sum(v > value for v in values) >= 10


def test_rate():
    assert rate(10, 4.0) == 2.5
    with pytest.raises(ValueError):
        rate(1, 0.0)


# -- spans and self time ----------------------------------------------------------------


def _span(i, start, end, parent=None):
    return Span(i, f"s{i}", start, end, parent, "run", 0)


def test_self_time_subtracts_children_once():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, 0),
        _span(2, 2.0, 5.0, 0),  # overlaps child 1: [1, 5] is covered once
        _span(3, 8.0, 12.0, 0),  # runs past its parent: only [8, 10] counts
        _span(4, 2.5, 2.75, 1),  # grandchild: no effect on span 0
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[1] == pytest.approx(2.0 - 0.25)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(0.25)


def test_recorder_rounds_counts_and_parents():
    rec = Recorder("r", keep_spans=True)
    with rec.span("outside", path_steps=7):
        pass
    with rec.round():
        with rec.span("mc.heat_mc", path_steps=100):
            with rec.span("inner"):
                pass
        with rec.span("mc.heat_mc", path_steps=50):
            pass
        rec.count("fock.taylor.entries", 3)
    rec.count("fock.taylor.entries", 1000)  # outside any round: not counted

    (rnd,) = rec.rounds
    assert rnd.counts["mc.heat_mc.path_steps"] == 150
    assert rnd.counts["mc.heat_mc.calls"] == 2
    assert rnd.counts["fock.taylor.entries"] == 3
    assert "outside.path_steps" not in rnd.counts
    by_name = {s.name: s for s in rec.spans}
    heat_ids = sorted(s.id for s in rec.spans if s.name == "mc.heat_mc")
    assert by_name["outside"].round == -1
    assert by_name["inner"].parent == heat_ids[0]
    assert {s.parent for s in rec.spans if s.name == "mc.heat_mc"} == {by_name["bench.round"].id}
    assert by_name["bench.round"].parent is None
    assert rnd.wall_s == by_name["bench.round"].duration
    assert {s.run_id for s in rec.spans} == {"r"}

    (per,) = rec.self_busy()
    heat = [s for s in rec.spans if s.name == "mc.heat_mc"]
    inner = by_name["inner"].duration
    assert per["mc.heat_mc"] == pytest.approx(sum(s.duration for s in heat) - inner)
    assert per["bench.round"] <= rnd.wall_s


def test_untraced_recorder_keeps_no_spans():
    rec = Recorder("r", keep_spans=False)
    with rec.round():
        with rec.span("x"):
            pass
    assert rec.spans == []
    assert rec.rounds[0].counts["x.calls"] == 1
    with pytest.raises(RuntimeError):
        rec.self_busy()


# -- rate metrics ----------------------------------------------------------------


def test_mc_rate_counts_only_estimator_calls():
    rnd = Round(
        busy={"bench.round": 5.0, "mc.heat_mc": 2.0, "mc.heat_sweep": 2.0, "fock.taylor": 0.5},
        counts={"mc.heat_mc.path_steps": 300, "mc.heat_sweep.path_steps": 500,
                "mc.heat_mc.calls": 1, "fock.taylor.entries": 9},
    )
    assert workloads.mc_work(rnd) == (800, 4.0)
    assert run.round_rate(workloads.MCTerminal, rnd) == 200.0


def test_exact_rate_counts_pipeline_time_only():
    rnd = Round(
        busy={"bench.round": 9.0, "poly.heat_expectation": 1.0, "fock.taylor": 0.5,
              "projection.projection_convergence": 4.0, "geometry.distance_upper": 2.0},
        counts={"bench.exact_polys": 3},
    )
    wl = workloads.ExactCalculus.__new__(workloads.ExactCalculus)
    assert wl.work(rnd) == (3, 1.5)
    assert run.round_rate(wl, rnd) == 2.0


def test_per_layer_medians_over_rounds_and_zero_for_unused_layers():
    rec = Recorder("r", keep_spans=True)
    for steps in (10, 30, 20):
        with rec.round():
            with rec.span("mc.heat_mc", path_steps=steps):
                pass
    self_busy = rec.self_busy()
    assert run.per_layer("mc.heat_mc.path_steps", rec, self_busy) == 20
    assert run.per_layer("mc.heat_mc.calls", rec, self_busy) == 1
    assert run.per_layer("geometry.distance_upper.busy_s", rec, self_busy) == 0.0
    assert run.per_layer("mc.heat_mc.busy_s", rec, self_busy) > 0.0


def test_mc_check_uses_four_standard_errors():
    s = workloads.Session(Recorder("r", keep_spans=False))
    est = workloads.mc.MCEstimate(mean=1.0 + 0j, stderr=0.1, paths=100)
    s.require_mc(est, 1.39, "inside")
    assert s.failures == []
    s.require_mc(est, 1.41, "outside")
    assert len(s.failures) == 1 and s.failures[0].startswith("outside")


# -- reduced-size runs of every workload ---------------------------------------------


def _count_checks(session):
    """Wrap require so the test can see how many checks ran."""
    calls = []
    original = session.require

    def counting(ok, label):
        calls.append(label)
        original(ok, label)

    session.require = counting
    return calls


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_passes_every_check(name):
    wl = workloads.build(name, seed=7, workers=2, smoke=True)
    rec = Recorder(name, keep_spans=True)
    session = workloads.Session(rec)
    checks = _count_checks(session)
    attempted = []
    for index in range(2):
        with rec.round():
            wl.round(session, index)
        attempted.append(session.attempted - sum(attempted))
    wl.identity(session)

    assert session.failures == []
    assert session.failed == 0
    assert attempted[0] == attempted[1] > 0  # whole rounds of the same operations
    assert len(checks) > 0
    for rnd in rec.rounds:
        work, seconds = wl.work(rnd)
        assert work > 0 and seconds > 0
        assert rnd.counts["bench.check.calls"] > 0


def test_smoke_inputs_follow_the_seed():
    a = workloads.build("exact-calculus", seed=3, workers=2, smoke=True)
    b = workloads.build("exact-calculus", seed=3, workers=2, smoke=True)
    c = workloads.build("exact-calculus", seed=4, workers=2, smoke=True)
    fa, fb, fc = (w._inputs(0)["polys"][0][0] for w in (a, b, c))
    assert fa == fb and fa != fc
    ta, tc = (workloads.build("mc-terminal", seed=s, workers=2, smoke=True) for s in (3, 4))
    assert ta.blocks[0]["p_heat"].seed != tc.blocks[0]["p_heat"].seed


# -- the command ----------------------------------------------------------------------


def _bench(args, cwd):
    return subprocess.run(
        [sys.executable, "bench/run.py"] + args,
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_command_prints_every_metric_of_the_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _bench(["--workload", "mc-chaos", "--seed", "5", "--seconds", "0.1",
                       "--trace", str(trace)], ROOT)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) == {m["name"] for m in spec[key]}
        for m in spec[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-chaos", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
