"""End-to-end checks of the command line interface, in process where possible."""

import json
import subprocess
import sys

import pytest

from holoheis import cli


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def body(text):
    # drop the timestamped comment lines so outputs are comparable
    return "\n".join(l for l in text.splitlines() if not l.startswith("#"))


def test_taylor_frozen_rows(capsys):
    code, out, err = run(capsys, ["taylor", "--poly", "c1"])
    assert code == 0 and err == ""
    lines = body(out).splitlines()
    assert lines[0] == "rank,indices,re,im"
    assert lines[1:] == ["1,2,1.0,0.0", "2,0 1,0.5,0.0", "2,1 0,-0.5,0.0"]


def test_simulate_schema_and_exit(capsys):
    code, out, _ = run(
        capsys,
        ["simulate", "--poly", "w1*w2", "--paths", "4000", "--steps", "64"],
    )
    assert code == 0
    lines = body(out).splitlines()
    assert lines[0] == ",".join(cli.UNIFIED_COLUMNS)
    first = lines[1].split(",")
    assert first[0].startswith("simulate")
    assert first[1] == "9ce673bbac23"
    assert first[-1] == "True"


def test_missing_omega_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 2, "d": 1}))
    code, out, err = run(capsys, ["taylor", "--poly", "c1", "--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert err.strip() == "config: omega required"


def test_bad_poly_exits_2(capsys):
    for text in ["q9 + w1", "3 c1"]:
        code, _, err = run(capsys, ["taylor", "--poly", text])
        assert code == 2, text
        assert err.startswith("error:")


def test_bad_mc_parameters_exit_2(capsys):
    for extra in (["--T", "nan"], ["--seed", "-1"]):
        argv = ["simulate", "--poly", "w1", "--paths", "10", "--steps", "4"] + extra
        code, out, err = run(capsys, argv)
        assert code == 2, extra
        assert out == "" and err.startswith("error: MCParams:")
    code, out, err = run(capsys, ["bounds", "--count", "1", "--p", "nan", "--paths", "10",
                                  "--steps", "4"])
    assert code == 2 and out == "" and err.startswith("error: p must")


@pytest.mark.parametrize("command", [["bounds", "--count", "1"], ["verify-all"]])
def test_negative_seed_is_named(capsys, command):
    code, out, err = run(capsys, command + ["--seed", "-1"])
    assert code == 2 and out == ""
    assert err.startswith("error: --seed must be an integer")


@pytest.mark.parametrize(
    "command, derived",
    [(["bounds", "--count", "2"], 1), (["bounds", "--count", "4"], 3), (["verify-all"], 5)],
    ids=["bounds_2", "bounds_4", "verify_all"],
)
def test_seed_whose_derived_seeds_overflow_is_named(capsys, command, derived):
    # the subcommand also draws with seed + 1 .. seed + derived, and the
    # largest must stay below 2^64; the error names --seed and the limit
    # before any work is done
    seed = 2**64 - derived
    code, out, err = run(capsys, command + ["--seed", str(seed)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: --seed must be an integer in [0, 2^64 - {derived}), got {seed}")


def test_largest_seed_whose_derived_seeds_fit_runs(capsys):
    argv = ["bounds", "--count", "2", "--seed", str(2**64 - 2), "--paths", "10", "--steps", "4"]
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert len(body(out).splitlines()) == 3


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_bad_workers_exit_2(capsys, workers):
    argv = ["simulate", "--poly", "w1", "--paths", "10", "--steps", "4", "--workers", workers]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: workers must be an integer >= 1")


@pytest.mark.parametrize(
    "k, size",
    [(3, 2), (2, 3)],
    ids=["matrices-smaller-than-k", "matrices-larger-than-k"],
)
def test_config_with_wrong_omega_shape_exits_2(tmp_path, capsys, k, size):
    # omega lists one skew size x size matrix (d = 1) that does not fit k
    omega = [[[[0.0, 0.0]] * size for _ in range(size)]]
    omega[0][0][1], omega[0][1][0] = [1.0, 0.0], [-1.0, 0.0]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": k, "d": 1, "omega": omega}))
    code, out, err = run(capsys, ["taylor", "--poly", "c1", "--config", str(cfg)])
    assert code == 2 and out == ""
    assert err.startswith("config:") and "omega must have shape" in err


def test_config_error_has_one_prefix(tmp_path, capsys):
    # GroupConfig's messages start with "config:"; the CLI used to add a second one
    omega = [[[[0.0, 0.0], [1.0, 0.0]], [[-1.0, 0.0], [0.0, 0.0]]]]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 3, "d": 1, "omega": omega}))
    code, out, err = run(capsys, ["taylor", "--poly", "c1", "--config", str(cfg)])
    assert code == 2 and out == ""
    assert err == "config: omega must have shape (1,3,3), got (1, 2, 2)\n"
    cfg.write_text(json.dumps({"k": "two", "d": 1, "omega": omega}))
    code, out, err = run(capsys, ["taylor", "--poly", "c1", "--config", str(cfg)])
    assert code == 2 and out == ""
    assert err == "config: k and d must be integers, got k='two', d=1\n"


@pytest.mark.parametrize(
    "argv",
    [["taylor", "--poly", "w1*c1", "--workers", "0"], ["project", "--poly", "w1", "--workers", "-2"]],
    ids=["taylor", "project"],
)
def test_bad_workers_exit_2_without_an_estimator(capsys, argv):
    # subcommands that run no Monte Carlo estimator used to ignore --workers
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error: workers must be an integer >= 1, got {int(argv[-1])}\n"


def test_bad_point_exits_2(capsys):
    code, _, err = run(
        capsys,
        ["skeleton", "--poly", "w1", "--point", "0.3", "--paths", "100"],
    )
    assert code == 2
    assert err.startswith("error:")


def test_json_output(tmp_path, capsys):
    out_file = tmp_path / "rows.json"
    code, _, _ = run(
        capsys,
        ["isometry", "--poly", "w1*c1", "--format", "json", "--out", str(out_file)],
    )
    assert code == 0
    rows = json.loads(out_file.read_text())
    assert isinstance(rows, list) and rows
    assert set(cli.UNIFIED_COLUMNS) <= set(rows[0])
    assert rows[0]["experiment"] == "isometry:exact"
    assert rows[0]["pass"] is True


def test_bounds_header_and_exit(tmp_path, capsys):
    out_file = tmp_path / "bounds.csv"
    code, _, _ = run(capsys, ["bounds", "--count", "2", "--out", str(out_file)])
    assert code == 0
    lines = [l for l in out_file.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "point,|f|,bound,margin,d_upper,pass"
    assert len(lines) == 3
    assert all(l.endswith("True") for l in lines[1:])


def test_project_monotone_to_zero(capsys):
    code, out, _ = run(capsys, ["project", "--poly", "w1*w2 + c1*w2^2"])
    assert code == 0
    lines = body(out).splitlines()
    assert lines[0] == ",".join(cli.PROJECT_COLUMNS)
    totals = [float(l.split(",")[4]) for l in lines[1:]]
    assert totals[0] > 1e-3  # the N=1 projection really removes something
    assert all(a >= b - 1e-12 for a, b in zip(totals[:-1], totals[1:]))
    assert totals[-1] <= 1e-12


def test_project_bad_T_exits_2(capsys):
    for T in ("-1", "0", "nan"):
        code, out, err = run(capsys, ["project", "--poly", "w1*w2 + c1^2 - w2", "--T", T])
        assert code == 2, T
        assert out == "" and err.startswith("error:") and "T=" in err


@pytest.mark.parametrize(
    "argv, escape, code",
    [
        # linear in w: both residuals are rounding noise, so their ratio is too
        (["--poly", "w1 + 2*w2 + 1", "--steps-list", "16,32", "--paths", "200"], True, 0),
        (["--poly", "w1^2 + w1*c1", "--steps-list", "32,64", "--paths", "400", "--seed", "2"],
         False, 0),
        # an eightfold refinement: the residual ratio is about 8, not 2
        (["--poly", "w1^2", "--steps-list", "8,64", "--paths", "400", "--seed", "1"], False, 1),
    ],
    ids=["linear", "quadratic", "not_a_doubling"],
)
def test_chaos_ratio_rows_and_exit(capsys, argv, escape, code):
    got, out, err = run(capsys, ["chaos"] + argv)
    assert got == code and err == ""
    lines = body(out).splitlines()
    assert lines[0] == ",".join(cli.UNIFIED_COLUMNS)
    coarse, fine, ratio = (dict(zip(cli.UNIFIED_COLUMNS, l.split(","))) for l in lines[1:])
    assert coarse["experiment"] == fine["experiment"] == "chaos:residual"
    assert ratio["experiment"] == "chaos:ratio" and ratio["target"] == "2.0"
    value = float(ratio["estimate_re"])
    assert value == float(coarse["estimate_re"]) / float(fine["estimate_re"])
    assert ratio["pass"] == str(code == 0)
    in_band = 1.4 <= value <= 2.8
    if escape:
        assert float(coarse["estimate_re"]) <= 1e-20 and not in_band
    else:
        assert in_band == (code == 0)


def test_chaos_bad_steps_list_exits_2_by_name(capsys):
    # an empty entry used to surface as int()'s own message
    for text in ("64,,128", "64,x"):
        code, out, err = run(capsys, ["chaos", "--poly", "w1^2", "--steps-list", text])
        assert code == 2, text
        assert out == "" and err == f"error: --steps-list must list integers, got {text!r}\n"


def test_isometry_non_finite_T_exits_2(capsys):
    for T in ("nan", "inf"):
        argv = ["isometry", "--poly", "w1*c1", "--T", T, "--paths", "0"]
        code, out, err = run(capsys, argv)
        assert code == 2, T
        assert out == "" and err.startswith("error:") and f"T={T}" in err


def test_verify_all_finds_the_distance_bound_once(monkeypatch, capsys):
    # both bounds rows share one point, so one optimizer run serves them
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    real = cli.distance_upper
    monkeypatch.setattr(cli, "distance_upper", counted)
    code, out, _ = run(capsys, ["verify-all", "--paths", "500", "--seed", "3"])
    rows = [l for l in body(out).splitlines() if l.startswith("bounds:")]
    assert code == 0 and len(rows) == 2
    assert calls == [dict(segments=3, restarts=2, seed=8)]


def test_verify_all_simulates_the_heat_rows_once(monkeypatch, capsys):
    # simulate:c1, the three meanvalue rows and the three skeleton rows are
    # heat averages translated by e or h, so one skeleton_sweep serves all
    calls = []

    def counted(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    for name in ("heat_mc", "heat_sweep", "skeleton_mc", "skeleton_sweep"):
        monkeypatch.setattr(cli.mc, name, counted(name, getattr(cli.mc, name)))
    code, out, _ = run(capsys, ["verify-all", "--paths", "500", "--seed", "3"])
    assert code == 0
    assert calls == ["skeleton_sweep"]
    names = [l.split(",")[0] for l in body(out).splitlines()]
    assert sum(n.startswith(("simulate:", "meanvalue:", "skeleton:")) for n in names) == 7


def test_verify_all_builds_each_taylor_tensor_once(monkeypatch, capsys):
    # three polynomials, and each one's tensor serves all four exact rows
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    real = cli.taylor
    monkeypatch.setattr(cli, "taylor", counted)
    code, _, _ = run(capsys, ["verify-all", "--paths", "500", "--seed", "3"])
    assert code == 0
    assert len(calls) == 3


def test_custom_config_roundtrip(tmp_path, capsys):
    z, o = [0.0, 0.0], [1.0, 0.0]
    m = [[z, o, z], [[-1.0, 0.0], z, z], [z, z, z]]
    cfg = tmp_path / "k3.json"
    cfg.write_text(json.dumps({"k": 3, "d": 1, "omega": [m]}))
    code, out, _ = run(capsys, ["taylor", "--poly", "w3", "--config", str(cfg)])
    assert code == 0
    assert body(out).splitlines()[1] == "1,2,1.0,0.0"


def test_verify_all_deterministic(tmp_path, capsys):
    outs = []
    for name, extra in [("a", []), ("b", []), ("c", ["--workers", "3"])]:
        path = tmp_path / f"{name}.csv"
        code, _, _ = run(
            capsys,
            ["verify-all", "--paths", "1500", "--out", str(path)] + extra,
        )
        assert code == 0
        outs.append(body(path.read_text()))
    assert outs[0] == outs[1] == outs[2]
    assert all(l.split(",")[-1] == "True" for l in outs[0].splitlines()[1:])


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "holoheis.cli", "taylor", "--poly", "w1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "rank,indices,re,im" in proc.stdout
    assert "1,0,1.0,0.0" in proc.stdout


def test_import_and_taylor_leave_scipy_unloaded():
    # the package runs on numpy alone, distance bounds included
    script = (
        "import sys, holoheis, holoheis.cli\n"
        "argvs = [['taylor', '--poly', 'w1*c1'], ['bounds', '--count', '2'], ['verify-all']]\n"
        "print([holoheis.cli.main(argv) for argv in argvs])\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["[0, 0, 0]", "[]"]


@pytest.mark.parametrize(
    "data, message",
    [
        ({"k": 2.7, "d": 1}, "k and d must be integers, got k=2.7, d=1"),
        ({"k": 2, "d": True}, "k and d must be integers, got k=2, d=True"),
        (3, "the top level must be a JSON object, got int"),
        ([], "the top level must be a JSON object, got list"),
    ],
    ids=["k-2.7", "d-true", "top-level-3", "top-level-list"],
)
def test_config_rejects_fractional_boolean_and_non_object_input(tmp_path, capsys, data, message):
    # k = 2.7 used to run as k = 2 and d = true as d = 1; a non-object top
    # level used to crash with a TypeError traceback
    if isinstance(data, dict):
        data |= {"omega": [[[[0.0, 0.0], [1.0, 0.0]], [[-1.0, 0.0], [0.0, 0.0]]]]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    code, out, err = run(capsys, ["taylor", "--poly", "c1", "--config", str(cfg)])
    assert code == 2 and out == ""
    assert err == f"config: {message}\n"


@pytest.mark.parametrize("count", ["0", "-2"])
def test_bounds_rejects_a_count_below_one(capsys, count):
    # an empty sweep used to print a header and pass vacuously
    code, out, err = run(capsys, ["bounds", "--count", count])
    assert code == 2 and out == ""
    assert err == f"error: count must be an integer >= 1, got {int(count)}\n"
