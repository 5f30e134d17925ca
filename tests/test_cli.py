"""Command line driver: config plumbing, run directories, output files,
error codes, and reproducibility."""
import glob
import json
import os
import shutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import artifact as af
from artifact import cli


def run_cli(argv, capsys):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def stdout_value(out, key):
    for line in out.splitlines():
        if line.startswith(key + " "):
            return line[len(key) + 1 :]
    raise AssertionError(f"no line starts with {key!r}:\n{out}")


def test_scalar_single_bump(tmp_path, capsys):
    rc, out, err = run_cli([
        "scalar", "--dim", "1", "--n-points", "513", "--r-max", "16",
        "--h", "1", "--sigma", "1", "--out", str(tmp_path), "--label", "s1",
    ], capsys)
    assert rc == 0 and err == ""
    assert float(stdout_value(out, "c_infinity")) == pytest.approx(4.0 / 3.0, abs=1e-3)
    assert float(stdout_value(out, "norm_lower")) > 0
    assert float(stdout_value(out, "bump 1 energy")) == pytest.approx(
        float(stdout_value(out, "c_infinity")), rel=1e-12
    )
    run_dir = stdout_value(out, "run_dir")
    assert run_dir == str(tmp_path / "s1")
    for name in ("config.json", "profile.json", "profile.csv"):
        assert os.path.isfile(os.path.join(run_dir, name))
    meta = json.loads(open(os.path.join(run_dir, "profile.json")).read())
    assert meta["node_radii"] == []
    assert meta["h"] == 1


def test_config_error_exit_code(tmp_path, capsys):
    rc, out, err = run_cli([
        "scalar", "--dim", "1", "--n-points", "513", "--r-max", "16",
        "--h", "0", "--out", str(tmp_path),
    ], capsys)
    assert rc == 2
    blob = json.loads(err.strip())
    assert blob["error"] == "config"
    assert "h" in blob["message"]


def test_solve_rejects_adjacent_repeat(tmp_path, capsys):
    rc, out, err = run_cli([
        "solve", "--beta", "1", "--dim", "2", "--n-points", "513",
        "--r-max", "30", "--h", "2", "--sigma", "1,1", "--out", str(tmp_path),
    ], capsys)
    assert rc == 2
    assert json.loads(err.strip())["error"] == "config"


def test_solve_rejects_sigma_length_mismatch(tmp_path, capsys):
    rc, out, err = run_cli([
        "solve", "--beta", "1", "--dim", "2", "--n-points", "513",
        "--r-max", "30", "--h", "3", "--sigma", "1,2", "--out", str(tmp_path),
    ], capsys)
    assert rc == 2


def test_solve_rejects_negative_beta_before_the_run_dir(tmp_path, capsys):
    # nan and inf used to leave a run directory and a traceback
    for beta in ("-1", "nan", "inf"):
        rc, out, err = run_cli([
            "solve", "--beta", beta, "--dim", "2", "--n-points", "513",
            "--r-max", "30", "--h", "2", "--sigma", "1,2", "--out", str(tmp_path),
        ], capsys)
        assert rc == 2
        assert "beta" in json.loads(err.strip())["message"]
        assert os.listdir(tmp_path) == []


def test_solve_uncoupled_reproduces_reference(tmp_path, capsys):
    rc, out, err = run_cli([
        "solve", "--beta", "0", "--dim", "1", "--n-points", "513",
        "--r-max", "16", "--h", "1", "--sigma", "1",
        "--out", str(tmp_path), "--label", "b0",
    ], capsys)
    assert rc == 0
    run_dir = stdout_value(out, "run_dir")
    meta = json.loads(open(os.path.join(run_dir, "profile.json")).read())
    assert float(stdout_value(out, "energy")) == pytest.approx(
        meta["c_infinity"], abs=1e-6
    )
    assert stdout_value(out, "in_nehari") == "True"
    assert stdout_value(out, "accepted") == "True"
    # a stage is its pulses and its record; its components are not written
    assert sorted(os.listdir(run_dir)) == [
        "config.json", "profile.csv", "profile.json",
        "pulses_beta0.csv", "record_beta0.json",
    ]
    payload = json.loads(open(os.path.join(run_dir, "record_beta0.json")).read())
    assert payload["record"]["beta"] == 0.0
    assert payload["diagnostics"]["membership"]["in_N_beta"] is True


@pytest.mark.parametrize("h, sigma", [("2", "1,2"), ("3", "1,2,1")])
def test_solve_uncoupled_rejects_segregated_states_before_the_run_dir(
        tmp_path, capsys, h, sigma):
    # at beta 0 each component solves its own equation, so a nonnegative
    # one is positive at every interior node and no segregated state exists
    rc, out, err = run_cli([
        "solve", "--beta", "0", "--dim", "2", "--n-points", "513",
        "--r-max", "30", "--h", h, "--sigma", sigma,
        "--out", str(tmp_path),
    ], capsys)
    assert rc == 2
    blob = json.loads(err.strip())
    assert blob["error"] == "config"
    assert "decouple" in blob["message"]
    assert os.listdir(tmp_path) == []


SADDLE_CASE = ["--dim", "2", "--n-points", "1025", "--r-max", "30",
               "--h", "3", "--sigma", "1,2,1"]


def test_sweep_logs_a_failed_stage_and_keeps_the_rest(tmp_path, capsys):
    # beta=1 has no scaling maximum here (a typed saddle); the sweep
    # records that and still writes the beta=100 stage
    rc, out, err = run_cli([
        "sweep", *SADDLE_CASE, "--beta-schedule", "1,100",
        "--out", str(tmp_path), "--label", "saddle",
    ], capsys)
    assert rc == 0
    assert stdout_value(out, "stages") == "1 of 2"
    log = open(tmp_path / "saddle" / "failures.log").read().splitlines()
    assert len(log) == 1 and "beta=1 failed: scaling saddle" in log[0]
    assert stdout_value(out, "failed") == log[0]
    assert os.path.isfile(tmp_path / "saddle" / "record_beta100.json")


def test_solve_failed_stage_writes_one_json_line(tmp_path):
    # in a fresh interpreter, so that a StageFailure warning escaping to
    # stderr (file, line and source) would show beside the JSON error
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "artifact.cli", "solve", "--beta", "1",
         *SADDLE_CASE, "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    blob = json.loads(lines[0])
    assert blob["error"] == "solver"
    assert blob["message"].startswith("stage beta=1 failed: scaling saddle")


def _run_fresh(code):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_only_the_shooting_route_imports_scipy_integrate():
    # in a fresh interpreter, since the test modules import solve_ivp:
    # scipy.integrate pulls in scipy.optimize, special, fft and spatial,
    # about a third of a cold import, and the partition route and the
    # continuation never shoot; the first shot imports it
    _run_fresh("""
        import sys
        import artifact as af
        import artifact.cli
        g = af.build_grid(2, 513, 30.0)
        profile = af.compute_c_infinity(g, 2)
        records = af.continuation(profile, af.build_assignment((1, 2)),
                                  af.SolverConfig((100.0,)))
        assert len(records) == 1
        assert "scipy.integrate" not in sys.modules
        af.find_nodal_solution(g, 2)
        assert "scipy.integrate" in sys.modules
    """)


LAPACK_ROUTINES = ("dgtsv", "dgttrf", "dgttrs", "dgbtrf", "dgbtrs")


def test_lapack_comes_without_the_scipy_linalg_package():
    # importing scipy.linalg runs scipy._lib.array_api_compat.numpy, whose
    # "from numpy import *" loads numpy.f2py and numpy.testing, about half
    # of a cold start; the five LAPACK routines are loaded from the
    # extension's file, and a later import of the package yields the same
    # function objects
    _run_fresh(f"""
        import sys
        import artifact as af
        import artifact.cli
        g = af.build_grid(2, 513, 30.0)
        profile = af.compute_c_infinity(g, 2)
        records = af.continuation(profile, af.build_assignment((1, 2)),
                                  af.SolverConfig((100.0,)))
        assert len(records) == 1
        loaded = [m for m in ("scipy.linalg", "scipy.linalg._flapack",
                              "numpy.f2py", "numpy.testing") if m in sys.modules]
        assert not loaded, loaded
        import scipy.linalg
        import scipy.linalg.lapack
        assert scipy.linalg._flapack is sys.modules["scipy.linalg._flapack"]
        for name in {LAPACK_ROUTINES!r}:
            assert getattr(af.grid, name) is getattr(scipy.linalg.lapack, name), name
        assert af.solver.dgbtrf is scipy.linalg.lapack.dgbtrf
        assert af.solver.dgbtrs is scipy.linalg.lapack.dgbtrs
        assert af.grid.LinAlgError is scipy.linalg.LinAlgError
        assert af.solver.LinAlgError is scipy.linalg.LinAlgError
    """)


def test_lapack_falls_back_to_the_package_without_the_file():
    # an install without the extension's file (a meson editable install)
    # imports the scipy.linalg package for it
    _run_fresh(f"""
        import sys
        from importlib.machinery import PathFinder
        find_spec = PathFinder.find_spec

        def no_file(name, path=None, target=None):
            # the package's own import of the extension still finds it
            if name == "scipy.linalg._flapack" and "scipy.linalg" not in sys.modules:
                return None
            return find_spec(name, path, target)

        PathFinder.find_spec = staticmethod(no_file)
        import artifact as af
        assert "scipy.linalg" in sys.modules
        import scipy.linalg.lapack
        for name in {LAPACK_ROUTINES!r}:
            assert getattr(af.grid, name) is getattr(scipy.linalg.lapack, name), name
    """)


def test_solve_two_components(tmp_path, capsys):
    rc, out, err = run_cli([
        "solve", "--beta", "100", "--dim", "2", "--n-points", "513",
        "--r-max", "30", "--h", "2", "--sigma", "1,2",
        "--out", str(tmp_path), "--label", "b100",
    ], capsys)
    assert rc == 0
    run_dir = stdout_value(out, "run_dir")
    assert stdout_value(out, "accepted") == "True"
    meta = json.loads(open(os.path.join(run_dir, "profile.json")).read())
    assert float(stdout_value(out, "energy")) < meta["c_infinity"]
    header = open(os.path.join(run_dir, "pulses_beta100.csv")).readline().strip()
    assert header == "r,p_1,p_2"
    assert glob.glob(os.path.join(run_dir, "solution_beta*")) == []


@pytest.fixture(scope="module")
def sweep_pair(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweeps")
    outs = []
    for label in ("run1", "run2"):
        argv = [
            "sweep", "--dim", "2", "--n-points", "513", "--r-max", "30",
            "--h", "2", "--sigma", "1,2", "--beta-schedule", "1,10,100",
            "--out", str(root), "--label", label,
        ]
        rc = cli.main(argv)
        assert rc == 0
        outs.append(os.path.join(str(root), label))
    return outs


def test_sweep_outputs(sweep_pair, capsys):
    run_dir = sweep_pair[0]
    assert os.path.isfile(os.path.join(run_dir, "sweep.csv"))
    for tag in ("1", "10", "100"):
        for stem in ("pulses_beta", "record_beta"):
            ext = ".json" if stem == "record_beta" else ".csv"
            assert os.path.isfile(os.path.join(run_dir, f"{stem}{tag}{ext}"))
    assert glob.glob(os.path.join(run_dir, "solution_beta*")) == []
    lines = open(os.path.join(run_dir, "sweep.csv")).read().strip().split("\n")
    assert len(lines) == 4
    assert lines[0].startswith("beta,energy,residual,d_to_K")


def test_sweep_runs_are_identical(sweep_pair):
    # the same files with the same bytes, config.json included: the label
    # is the directory's name and is not stored
    names = sorted(os.listdir(sweep_pair[0]))
    assert sorted(os.listdir(sweep_pair[1])) == names
    assert "sweep.csv" in names and "record_beta100.json" in names
    for name in names:
        a, b = (open(os.path.join(run, name), "rb").read() for run in sweep_pair)
        assert a == b, name


def test_stage_components_rebuild_from_pulses_and_record(
        tmp_path, profile_h2, assignment_h2):
    [record] = af.continuation(profile_h2, assignment_h2,
                               af.SolverConfig(beta_schedule=(10.0,)))
    cli.write_stage(str(tmp_path), cli.ExperimentConfig(), profile_h2, record)
    pulses = cli._read_columns(str(tmp_path / "pulses_beta10.csv"),
                               assignment_h2.h)
    blob = json.loads((tmp_path / "record_beta10.json").read_text())
    ensemble = af.PulseEnsemble(profile_h2.grid, assignment_h2, pulses)
    U = ensemble.components(np.array(blob["record"]["lambda_bar"]))
    assert np.array_equal(U, record.ensemble.components(record.lambda_bar))


def test_report_recomputes_diagnostics(sweep_pair, capsys):
    rc, out, err = run_cli(["report", "--run", sweep_pair[0]], capsys)
    assert rc == 0
    blob = json.loads(out)
    assert set(blob) == {"1", "10", "100"}
    ref = None
    for tag, entry in blob.items():
        assert entry["membership"]["in_N_beta"] is True
        assert entry["membership"]["in_tilde_X"] is True
        assert entry["residual_max"] < 1e-7
        assert entry["stationarity_min"] <= 0.0
        if ref is None:
            ref = entry["c_infinity_ref"]
        assert entry["c_infinity_ref"] == ref
    # the coupling-weighted overlap stays bounded along the schedule
    b100 = max(max(row) for row in blob["100"]["beta_overlap_matrix"])
    b1 = max(max(row) for row in blob["1"]["beta_overlap_matrix"])
    assert b100 < 10.0 * max(b1, 1e-30) + 1.0


def test_report_is_deterministic(sweep_pair, tmp_path, capsys):
    # an old run directory with another probe seed reports the same
    copy = tmp_path / "reseeded"
    shutil.copytree(sweep_pair[0], copy)
    cfg_path = copy / "config.json"
    cfg_path.write_text(json.dumps(dict(json.loads(cfg_path.read_text()), seed=12345)))
    outs = [run_cli(["report", "--run", str(run)], capsys)[1]
            for run in (sweep_pair[0], copy)]
    assert outs[0] == outs[1]


def test_report_lists_stages_by_coupling(tmp_path, capsys):
    # in the order of sweep.csv, not of the file names (10, 100, 2)
    rc, _, _ = run_cli([
        "sweep", "--dim", "2", "--n-points", "513", "--r-max", "30",
        "--h", "2", "--sigma", "1,2", "--beta-schedule", "2,10,100",
        "--out", str(tmp_path), "--label", "run",
    ], capsys)
    assert rc == 0
    run = tmp_path / "run"
    rows = (run / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["2", "10", "100"]
    rc, out, _ = run_cli(["report", "--run", str(run)], capsys)
    assert rc == 0
    assert list(json.loads(out)) == ["2", "10", "100"]


def test_report_missing_run(tmp_path, capsys):
    rc, out, err = run_cli(["report", "--run", str(tmp_path / "absent")], capsys)
    assert rc == 2


def _pulses_tagged(tag):
    # a copy of a pulses file under a tag that names no coupling
    def spoil(run):
        shutil.copy(run / "pulses_beta10.csv", run / f"pulses_beta{tag}.csv")
        return ["report", "--run", str(run)], f"pulses_beta{tag}.csv"

    return spoil


def _profile_value(key, value):
    # a profile.json value of the wrong JSON type
    def spoil(run):
        meta = json.loads((run / "profile.json").read_text())
        meta[key] = value
        (run / "profile.json").write_text(json.dumps(meta))
        return ["report", "--run", str(run)], repr(key)

    return spoil


def _profile_without_node_radii(run):
    meta = json.loads((run / "profile.json").read_text())
    del meta["node_radii"]
    (run / "profile.json").write_text(json.dumps(meta))
    return ["report", "--run", str(run)], "node_radii"


def _pulses_missing_a_column(run):
    path = run / "pulses_beta10.csv"
    rows = [line.split(",")[:2] for line in path.read_text().splitlines()]
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    return ["report", "--run", str(run)], "pulses_beta10.csv"


def _profile_not_json(run):
    (run / "profile.json").write_text("{")
    return ["report", "--run", str(run)], "profile.json"


def _pulses_not_numbers(run):
    path = run / "pulses_beta10.csv"
    path.write_text(path.read_text().replace("\n0,", "\nx,", 1))
    return ["report", "--run", str(run)], "pulses_beta10.csv"


def _output_dir_not_a_string(run):
    path = run.parent / "f.json"
    path.write_text(json.dumps({"dimension": 1, "n_points": 513, "r_max": 16.0,
                                "h": 1, "sigma": [1], "output_dir": 5}))
    return ["scalar", "--config", str(path)], "output_dir"


@pytest.mark.parametrize(
    "spoil",
    [_pulses_tagged("10.bak"), _profile_without_node_radii,
     _pulses_missing_a_column, _profile_not_json, _pulses_not_numbers,
     _output_dir_not_a_string, _profile_value("n_points", "257"),
     _profile_value("h", "2"), _profile_value("r_max", None),
     _profile_value("c_infinity", "x"), _pulses_tagged("nan"),
     _pulses_tagged("-5"), _pulses_tagged("inf"), _pulses_tagged("1e400")],
    ids=["stray-file", "missing-key", "missing-column", "not-json",
         "not-numbers", "output-dir", "n-points-string", "h-string",
         "r-max-null", "c-infinity-string", "tag-nan", "tag-negative",
         "tag-inf", "tag-overflow"])
def test_malformed_run_input_is_a_config_error(sweep_pair, tmp_path, capsys, spoil):
    # each escaped main as a traceback with exit 1: ValueError from the
    # file's tag, KeyError, IndexError, JSONDecodeError, ValueError from
    # loadtxt, TypeError from os.makedirs, and TypeError from a profile
    # value of the wrong type; a tag of nan or -5 was reported (nan as
    # invalid JSON), and one of inf or 1e400 exited 3 as an unbounded ray
    run = tmp_path / "run"
    shutil.copytree(sweep_pair[0], run)
    argv, named = spoil(run)
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2 and len(err.splitlines()) == 1
    blob = json.loads(err)
    assert blob["error"] == "config" and named in blob["message"]


def test_config_round_trip(tmp_path):
    cfg = cli.ExperimentConfig(
        dimension=3, n_points=1025, r_max=20.0, h=3, sigma=(1, 2, 3),
        beta_schedule=(2.0, 20.0),
        output_dir=str(tmp_path),
    )
    path = tmp_path / "config.json"
    cli.save_config(cfg, path)
    back = cli.load_config(path)
    assert back == cfg


def test_flag_overrides_config_file(tmp_path):
    cfg = cli.ExperimentConfig(dimension=1, n_points=513, r_max=16.0,
                               h=1, sigma=(1,), output_dir=str(tmp_path))
    path = tmp_path / "config.json"
    cli.save_config(cfg, path)
    parser = cli.build_parser()
    args = parser.parse_args(["scalar", "--config", str(path), "--n-points", "257"])
    merged = cli.build_cli_config(args)
    assert merged.n_points == 257
    assert merged.dimension == 1
    assert merged.sigma == (1,)


def test_unknown_config_key(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"dimension": 1, "frobnicate": True}))
    rc, out, err = run_cli([
        "scalar", "--config", str(path), "--out", str(tmp_path),
    ], capsys)
    assert rc == 2
    assert "frobnicate" in json.loads(err.strip())["message"]


@pytest.mark.parametrize("key, value", [("outer_tol", 1e-7), ("epsilon", 0.5),
                                        ("seed", 7), ("newton_tol", 1e-9),
                                        ("tol_nehari", 1e-8)],
                         ids=["outer_tol", "epsilon", "seed", "newton_tol",
                              "tol_nehari"])
def test_legacy_outer_tol_key_is_dropped(tmp_path, key, value):
    # config.json of older runs carries the descent's outer_tol, the trust
    # distance epsilon, the probe seed of report, the coupled Newton
    # tolerance and the bump constraint tolerance; none is read any more
    cfg = cli.ExperimentConfig(output_dir=str(tmp_path))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(cfg.to_dict(), **{key: value})))
    assert cli.load_config(path) == cfg
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["scalar", flag, str(value)])
    assert exc.value.code == 2


@pytest.mark.parametrize("entry", [{"sigma": [1, 2.5, 1]}, {"sigma": ["x"]},
                                   {"n_points": "4097"}, {"n_points": 257.5},
                                   {"h": 2.5}, {"beta_schedule": ["x"]},
                                   {"r_max": float("nan")}, {"r_max": float("inf")},
                                   {"n_points": True}, {"dimension": True},
                                   {"h": 2, "sigma": [True, 2]}, {"r_max": True},
                                   {"h": True},
                                   {"beta_schedule": [True, 10.0]},
                                   {"beta_schedule": [0.5, True]},
                                   {"beta_schedule": ["10", "1e2"]}])
def test_config_values_of_the_wrong_type_are_rejected(tmp_path, capsys, entry):
    # sigma [1, 2.5, 1] and n_points 257.5 used to run silently as
    # (1, 2, 1) and 257; the others escaped main as a bare ValueError or
    # TypeError, h = 2.5 only once the profile was computed.  JSON true
    # ran as 1 (r_max was written back as true), and
    # r_max NaN was caught only after the run directory was made; the
    # strings "10", "1e2" ran as the schedule (10.0, 100.0)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(cli.ExperimentConfig().to_dict(), **entry)))
    with pytest.raises(cli.ConfigError):
        cli.load_config(path)
    rc, out, err = run_cli(["scalar", "--config", str(path), "--out", str(tmp_path)],
                           capsys)
    assert rc == 2 and json.loads(err.strip())["error"] == "config"
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("entry, message",
                         [({"n_points": 8}, "n_points must be at least 16"),
                          ({"output_dir": 5}, "output_dir must be a string"),
                          ({"r_max": "40"}, "r_max must be a number, got '40'")],
                         ids=["n_points-range", "output_dir-type", "r_max-type"])
def test_config_checks_keep_their_own_message(tmp_path, capsys, entry, message):
    # these were reported as "config value of the wrong type: ..." because
    # ConfigError is a ValueError; the strings as "'<' not supported
    # between instances of 'int' and 'str'", from the range check
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(cli.ExperimentConfig().to_dict(), **entry)))
    rc, out, err = run_cli(["scalar", "--config", str(path)], capsys)
    assert rc == 2 and len(err.splitlines()) == 1
    blob = json.loads(err)
    assert blob["error"] == "config" and blob["message"] == message


def test_config_type_errors_keep_their_prefix(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"sigma": 5}))
    with pytest.raises(cli.ConfigError, match="^config value of the wrong type: "):
        cli.load_config(path)


def test_columns_are_written_as_one_format_per_value(tmp_path):
    # the row format must give the bytes of "%.17g" applied value by value
    r = np.linspace(0.0, 3.0, 7)
    cols = {"a": [-0.0, 5e-324, 1e-300, 1e300, np.nan, 3.0, -2.0],
            "b": [0.0, 1.0, -1e-310, 0.1, 2.0**53, 123456789.0, -np.inf]}
    path = tmp_path / "cols.csv"
    cli._write_columns(str(path), r, cols)
    lines = ["r,a,b"] + [",".join("%.17g" % float(x) for x in row)
                         for row in zip(r, cols["a"], cols["b"])]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert b"-0," in path.read_bytes() and b"nan" in path.read_bytes()


def test_beta_tags_are_distinct_and_read_back_exactly():
    # "%g" keeps six digits, so 1234567 and 1234568 shared one tag
    betas = [0.0, 1.0, 2.5, 100.0, 1e4, 1e6, 1234567.0, 1234568.0, 0.1 + 0.2]
    tags = [cli._beta_tag(b) for b in betas]
    assert len(set(tags)) == len(betas)
    assert [float(t) for t in tags] == betas
    assert tags[:6] == ["0", "1", "2.5", "100", "10000", "1e+06"]


def test_run_dir_never_clobbers(tmp_path):
    cfg = cli.ExperimentConfig(output_dir=str(tmp_path))
    first = cli.make_run_dir(cfg, "solve", label="same")
    second = cli.make_run_dir(cfg, "solve", label="same")
    assert first != second
    assert os.path.isdir(first) and os.path.isdir(second)


def test_a_run_dir_taken_before_mkdir_gets_the_next_suffix(tmp_path, monkeypatch):
    # another run that takes the label after a probe for it, just before
    # this run's mkdir, made this run exit 2 with "[Errno 17] File exists"
    cfg = cli.ExperimentConfig(output_dir=str(tmp_path))
    taken = str(tmp_path / "same")
    mkdir = os.mkdir

    def racing_mkdir(path, *args, **kwargs):
        if os.fspath(path) == taken and not os.path.isdir(taken):
            mkdir(taken)  # the other run
        return mkdir(path, *args, **kwargs)

    monkeypatch.setattr(os, "mkdir", racing_mkdir)
    assert cli.make_run_dir(cfg, "solve", label="same") == taken + "-2"
    assert sorted(os.listdir(tmp_path)) == ["same", "same-2"]


def test_an_empty_label_means_a_timestamp(tmp_path):
    cfg = cli.ExperimentConfig(output_dir=str(tmp_path))
    path = cli.make_run_dir(cfg, "sweep", label="")
    assert os.path.dirname(path) == str(tmp_path)
    assert os.path.basename(path).startswith("sweep-")


@pytest.mark.parametrize("label", ["../x", "absolute", "a/b", ".", ".."])
def test_a_label_names_one_directory_of_out(tmp_path, capsys, label):
    # "../x" and an absolute label would put the run outside --out, and
    # "a/b" a level below it
    if label == "absolute":
        label = str(tmp_path / "x")
    rc, _, err = run_cli(["scalar", "--dim", "1", "--n-points", "513",
                          "--r-max", "16", "--h", "1", "--sigma", "1",
                          "--out", str(tmp_path / "out"), "--label", label],
                         capsys)
    assert rc == 2 and len(err.splitlines()) == 1
    blob = json.loads(err)
    assert blob["error"] == "config" and repr(label) in blob["message"]
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("out", ["", "taken"], ids=["empty", "a-file"])
def test_unusable_out_is_a_config_error(tmp_path, monkeypatch, capsys, out):
    # an empty --out escaped main as FileNotFoundError, and an existing
    # file as FileExistsError, each with exit 1 and a traceback
    monkeypatch.chdir(tmp_path)
    if out:
        (tmp_path / out).write_text("")
    rc, _, err = run_cli(["scalar", "--dim", "1", "--n-points", "513",
                          "--r-max", "16", "--h", "1", "--sigma", "1",
                          "--out", out], capsys)
    assert rc == 2 and len(err.splitlines()) == 1
    blob = json.loads(err)
    assert blob["error"] == "config" and repr(out) in blob["message"]
    assert os.listdir(tmp_path) == ([out] if out else [])


@pytest.mark.parametrize("text", ["1,a,2", "", "1;2"])
def test_list_parsing_rejects(text):
    with pytest.raises(cli.ConfigError):
        cli._parse_list(text, int, "integers")


def test_list_parsing_accepts():
    assert cli._parse_list("1,2,1", int, "integers") == (1, 2, 1)
    assert cli._parse_list("1,10,1e2", float, "numbers") == (1.0, 10.0, 100.0)
