"""Command line driver: config plumbing, run directories, output files,
error codes, and reproducibility."""
import json
import os
import shutil

import pytest

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
    for name in ("solution_beta0.csv", "pulses_beta0.csv", "record_beta0.json"):
        assert os.path.isfile(os.path.join(run_dir, name))
    payload = json.loads(open(os.path.join(run_dir, "record_beta0.json")).read())
    assert payload["record"]["beta"] == 0.0
    assert payload["diagnostics"]["membership"]["in_N_beta"] is True


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
    header = open(os.path.join(run_dir, "solution_beta100.csv")).readline().strip()
    assert header == "r,U_1,U_2"


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
        for stem in ("solution_beta", "pulses_beta", "record_beta"):
            ext = ".json" if stem == "record_beta" else ".csv"
            assert os.path.isfile(os.path.join(run_dir, f"{stem}{tag}{ext}"))
    lines = open(os.path.join(run_dir, "sweep.csv")).read().strip().split("\n")
    assert len(lines) == 4
    assert lines[0].startswith("beta,energy,residual,d_to_K")


def test_sweep_runs_are_identical(sweep_pair):
    a = open(os.path.join(sweep_pair[0], "sweep.csv"), "rb").read()
    b = open(os.path.join(sweep_pair[1], "sweep.csv"), "rb").read()
    assert a == b
    for tag in ("1", "10", "100"):
        pa = open(os.path.join(sweep_pair[0], f"pulses_beta{tag}.csv"), "rb").read()
        pb = open(os.path.join(sweep_pair[1], f"pulses_beta{tag}.csv"), "rb").read()
        assert pa == pb


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


def test_report_missing_run(tmp_path, capsys):
    rc, out, err = run_cli(["report", "--run", str(tmp_path / "absent")], capsys)
    assert rc == 2


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
                                        ("seed", 7)],
                         ids=["outer_tol", "epsilon", "seed"])
def test_legacy_outer_tol_key_is_dropped(tmp_path, key, value):
    # config.json of older runs carries the descent's outer_tol, the trust
    # distance epsilon and the probe seed of report; none is read any more
    cfg = cli.ExperimentConfig(output_dir=str(tmp_path))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(cfg.to_dict(), **{key: value})))
    assert cli.load_config(path) == cfg
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["scalar", flag, str(value)])


@pytest.mark.parametrize("entry", [{"sigma": [1, 2.5, 1]}, {"sigma": ["x"]},
                                   {"n_points": "4097"}, {"n_points": 257.5},
                                   {"h": 2.5}, {"beta_schedule": ["x"]}])
def test_config_values_of_the_wrong_type_are_rejected(tmp_path, capsys, entry):
    # sigma [1, 2.5, 1] and n_points 257.5 used to run silently as
    # (1, 2, 1) and 257; the others escaped main as a bare ValueError or
    # TypeError, h = 2.5 only once the profile was computed
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(cli.ExperimentConfig().to_dict(), **entry)))
    with pytest.raises(cli.ConfigError):
        cli.load_config(path)
    rc, out, err = run_cli(["scalar", "--config", str(path), "--out", str(tmp_path)],
                           capsys)
    assert rc == 2 and json.loads(err.strip())["error"] == "config"


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


@pytest.mark.parametrize("text", ["1,a,2", "", "1;2"])
def test_list_parsing_rejects(text):
    with pytest.raises(cli.ConfigError):
        cli._parse_int_list(text)


def test_list_parsing_accepts():
    assert cli._parse_int_list("1,2,1") == (1, 2, 1)
    assert cli._parse_float_list("1,10,1e2") == (1.0, 10.0, 100.0)
