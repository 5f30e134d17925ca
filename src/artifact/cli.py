"""Command line front end.

Subcommands: scalar (segregated profile only), solve (one coupling),
sweep (full schedule), report (re-derive diagnostics from a run dir).
Exit codes: 0 success, 2 configuration problem, 3 solver failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from .assignment import build_assignment
from .diagnostics import build_report, write_sweep_csv
from .errors import ConfigError, SolveError, StageFailure
from .grid import build_grid
from .nehari import PulseEnsemble, maximize_phi
from .scalar import NodalProfile, bump_constants, compute_c_infinity
from .solver import (
    SolverConfig,
    continuation,
    initial_guess,
    newton_refine,
    residual_components,
)


@dataclass
class ExperimentConfig:
    dimension: int = 2
    n_points: int = 4096
    r_max: float = 40.0
    h: int = 5
    sigma: tuple = (1, 2, 1, 3, 2)
    beta_schedule: tuple = (1.0, 10.0, 100.0, 1000.0, 10000.0)
    newton_tol: float = 1e-10
    tol_nehari: float = 1e-8
    output_dir: str = "runs"

    def __post_init__(self) -> None:
        for name in ("dimension", "n_points", "h"):
            if not isinstance(getattr(self, name), int):
                raise ConfigError(f"{name} must be an integer")
        if self.dimension not in (1, 2, 3):
            raise ConfigError("dimension must be 1, 2 or 3")
        if self.n_points < 16:
            raise ConfigError("n_points must be at least 16")
        if self.r_max <= 0:
            raise ConfigError("r_max must be positive")
        if self.h < 1:
            raise ConfigError("h must be at least 1")
        if not all(isinstance(s, int) for s in self.sigma):
            raise ConfigError(f"sigma entries must be integers, got {self.sigma}")
        self.sigma = tuple(self.sigma)
        # SolverConfig checks the schedule and the solver tolerances
        self.beta_schedule = self.solver_config().beta_schedule
        if self.tol_nehari <= 0:
            raise ConfigError("tol_nehari must be positive")

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "n_points": self.n_points,
            "r_max": self.r_max,
            "h": self.h,
            "sigma": list(self.sigma),
            "beta_schedule": list(self.beta_schedule),
            "newton_tol": self.newton_tol,
            "tol_nehari": self.tol_nehari,
            "output_dir": self.output_dir,
        }

    def solver_config(self) -> SolverConfig:
        return SolverConfig(beta_schedule=self.beta_schedule,
                            newton_tol=self.newton_tol)


# keys of older run directories that no run reads any more: the descent's
# stopping tolerance, the trust distance epsilon, and the seed of the
# random stationarity probes of `report`
LEGACY_KEYS = ("outer_tol", "epsilon", "seed")


def config_from_dict(data: dict) -> ExperimentConfig:
    kwargs = {k: v for k, v in data.items() if k not in LEGACY_KEYS}
    known = {f.name for f in fields(ExperimentConfig)}
    bad = set(kwargs) - known
    if bad:
        raise ConfigError(f"unknown config keys: {sorted(bad)}")
    try:
        for key in ("sigma", "beta_schedule"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config value of the wrong type: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return config_from_dict(data)


def save_config(config: ExperimentConfig, path: str) -> None:
    with open(path, "w") as f:
        json.dump(config.to_dict(), f, indent=2, sort_keys=True)
        f.write("\n")


def _parse_int_list(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"expected comma separated integers, got {text!r}") from exc


def _parse_float_list(text: str) -> tuple:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"expected comma separated numbers, got {text!r}") from exc


def build_cli_config(args) -> ExperimentConfig:
    data = {}
    if args.config:
        data = load_config(args.config).to_dict()
    overrides = {
        "dimension": args.dim,
        "n_points": args.n_points,
        "r_max": args.r_max,
        "h": args.h,
        "newton_tol": args.newton_tol,
        "tol_nehari": args.tol_nehari,
        "output_dir": args.out,
    }
    if args.sigma is not None:
        overrides["sigma"] = _parse_int_list(args.sigma)
    if getattr(args, "beta_schedule", None) is not None:
        overrides["beta_schedule"] = _parse_float_list(args.beta_schedule)
    base = ExperimentConfig().to_dict()
    base.update(data)
    base.update({k: v for k, v in overrides.items() if v is not None})
    return config_from_dict(base)


def make_run_dir(config: ExperimentConfig, kind: str, label=None) -> str:
    os.makedirs(config.output_dir, exist_ok=True)
    stem = label if label else f"{kind}-{time.strftime('%Y%m%d-%H%M%S')}"
    path = os.path.join(config.output_dir, stem)
    suffix = 1
    while os.path.exists(path):
        suffix += 1
        path = os.path.join(config.output_dir, f"{stem}-{suffix}")
    os.makedirs(path)
    return path


def _write_columns(path: str, r: np.ndarray, cols: dict) -> None:
    names = ["r"] + list(cols)
    arrays = [r] + [np.asarray(v, float) for v in cols.values()]
    with open(path, "w") as f:
        f.write(",".join(names) + "\n")
        for row in zip(*arrays):
            f.write(",".join("%.17g" % x for x in row) + "\n")


def _read_columns(path: str):
    with open(path) as f:
        header = f.readline().strip().split(",")
        data = np.loadtxt(f, delimiter=",", ndmin=2)
    return header, data


def _beta_tag(beta: float) -> str:
    """File-name tag of a coupling: "%g" where it reads back exactly,
    otherwise the shortest exact form, so two couplings never share a
    tag and `report` recovers each one."""
    tag = "%g" % beta
    return tag if float(tag) == beta else repr(float(beta))


def _profile_paths(run_dir: str):
    return (
        os.path.join(run_dir, "profile.json"),
        os.path.join(run_dir, "profile.csv"),
    )


def write_profile(run_dir: str, profile: NodalProfile) -> None:
    c1, c2 = bump_constants(profile)
    meta = {
        "dimension": profile.grid.dimension,
        "n_points": profile.grid.n_points,
        "r_max": profile.grid.r_max,
        "h": profile.h,
        "c_infinity": profile.c_value,
        "energies": [float(e) for e in profile.energies],
        "node_radii": [float(r) for r in profile.node_radii],
        "norm_lower": c1,
        "norm_upper": c2,
    }
    jpath, cpath = _profile_paths(run_dir)
    with open(jpath, "w") as f:
        json.dump(meta, f, indent=2)
        f.write("\n")
    cols = {f"bump_{l + 1}": b for l, b in enumerate(profile.bumps)}
    _write_columns(cpath, profile.grid.nodes, cols)


def compute_profile(config: ExperimentConfig) -> NodalProfile:
    grid = build_grid(config.dimension, config.n_points, config.r_max)
    return compute_c_infinity(grid, config.h, tol_nehari=config.tol_nehari)


def write_stage(run_dir: str, config: ExperimentConfig, profile: NodalProfile,
                record) -> None:
    """Write a stage's fields, pulses and record with its diagnostics.
    `config` is not read; it stays in the signature that
    `perfbench/workloads.py` calls."""
    tag = _beta_tag(record.beta)
    grid = record.ensemble.grid
    U = record.ensemble.components(record.lambda_bar)
    _write_columns(
        os.path.join(run_dir, f"solution_beta{tag}.csv"),
        grid.nodes,
        {f"U_{i + 1}": U[i] for i in range(U.shape[0])},
    )
    _write_columns(
        os.path.join(run_dir, f"pulses_beta{tag}.csv"),
        grid.nodes,
        {f"p_{q + 1}": p for q, p in enumerate(record.ensemble.pulses)},
    )
    diag = build_report(record.beta, record.ensemble, profile, record.maximizer)
    payload = {"record": record.to_dict(), "diagnostics": diag.to_dict()}
    with open(os.path.join(run_dir, f"record_beta{tag}.json"), "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")


def cmd_scalar(args) -> int:
    config = build_cli_config(args)
    run_dir = make_run_dir(config, "scalar", args.label)
    save_config(config, os.path.join(run_dir, "config.json"))
    profile = compute_profile(config)
    write_profile(run_dir, profile)
    c1, c2 = bump_constants(profile)
    print(f"run_dir {run_dir}")
    print(f"c_infinity {profile.c_value:.12g}")
    print(f"norm_lower {c1:.12g}")
    print(f"norm_upper {c2:.12g}")
    for l, e in enumerate(profile.energies):
        print(f"bump {l + 1} energy {e:.12g}")
    print("node_radii " + " ".join("%.12g" % r for r in profile.node_radii))
    return 0


def cmd_solve(args) -> int:
    config = build_cli_config(args)
    assignment = build_assignment(config.sigma)
    if assignment.h != config.h:
        raise ConfigError(
            f"sigma has {assignment.h} entries but h is {config.h}"
        )
    beta = float(args.beta)
    if beta < 0:
        raise ConfigError("beta must be nonnegative")
    run_dir = make_run_dir(config, "solve", args.label)
    save_config(config, os.path.join(run_dir, "config.json"))
    profile = compute_profile(config)
    write_profile(run_dir, profile)
    solver_cfg = config.solver_config()
    if beta == 0.0:
        record = newton_refine(
            0.0, initial_guess(profile, assignment),
            config=solver_cfg, target=profile,
        )
    else:
        records = continuation(
            profile, assignment, replace(solver_cfg, beta_schedule=(beta,))
        )
        if not records:
            raise SolveError(f"no converged state at coupling {beta:g}")
        record = records[0]
    write_stage(run_dir, config, profile, record)
    print(f"run_dir {run_dir}")
    print(f"beta {record.beta:g}")
    print(f"energy {record.energy:.12g}")
    print(f"residual {record.residual:.3e}")
    print(f"d_to_K {record.d_to_K:.6g}")
    print(f"in_nehari {record.in_nehari}")
    print(f"accepted {record.accepted}")
    return 0


def cmd_sweep(args) -> int:
    config = build_cli_config(args)
    assignment = build_assignment(config.sigma)
    if assignment.h != config.h:
        raise ConfigError(
            f"sigma has {assignment.h} entries but h is {config.h}"
        )
    run_dir = make_run_dir(config, "sweep", args.label)
    save_config(config, os.path.join(run_dir, "config.json"))
    profile = compute_profile(config)
    write_profile(run_dir, profile)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", StageFailure)
        records = continuation(profile, assignment, config.solver_config())
    failures = [str(w.message) for w in caught
                if issubclass(w.category, StageFailure)]
    for record in records:
        write_stage(run_dir, config, profile, record)
    write_sweep_csv(os.path.join(run_dir, "sweep.csv"), records)
    if failures:
        with open(os.path.join(run_dir, "failures.log"), "w") as f:
            for line in failures:
                f.write(line + "\n")
    print(f"run_dir {run_dir}")
    print(f"stages {len(records)} of {len(config.beta_schedule)}")
    for line in failures:
        print(f"failed {line}")
    for record in records:
        print(
            f"beta {record.beta:<8g} energy {record.energy:.10g} "
            f"residual {record.residual:.2e} d_to_K {record.d_to_K:.4g} "
            f"accepted {record.accepted}"
        )
    if not records:
        raise SolveError("no continuation stage converged")
    return 0


def cmd_report(args) -> int:
    run_dir = args.run
    cfg_path = os.path.join(run_dir, "config.json")
    if not os.path.isfile(cfg_path):
        raise ConfigError(f"{run_dir} has no config.json")
    config = load_config(cfg_path)
    jpath, cpath = _profile_paths(run_dir)
    if not (os.path.isfile(jpath) and os.path.isfile(cpath)):
        raise ConfigError(f"{run_dir} has no stored profile")
    with open(jpath) as f:
        meta = json.load(f)
    grid = build_grid(meta["dimension"], meta["n_points"], meta["r_max"])
    _, bump_data = _read_columns(cpath)
    bumps = [bump_data[:, 1 + l].copy() for l in range(meta["h"])]
    profile = NodalProfile(
        grid=grid,
        h=meta["h"],
        bumps=bumps,
        node_radii=tuple(meta["node_radii"]),
        energies=tuple(meta["energies"]),
        c_value=meta["c_infinity"],
    )
    assignment = build_assignment(config.sigma)
    reports = {}
    for name in sorted(os.listdir(run_dir)):
        if not (name.startswith("pulses_beta") and name.endswith(".csv")):
            continue
        tag = name[len("pulses_beta") : -len(".csv")]
        beta = float(tag)
        _, pdata = _read_columns(os.path.join(run_dir, name))
        pulses = np.array([pdata[:, 1 + q] for q in range(assignment.h)])
        ensemble = PulseEnsemble(grid, assignment, pulses)
        rep = maximize_phi(beta, ensemble)
        diag = build_report(beta, ensemble, profile, rep)
        entry = diag.to_dict()
        U = ensemble.components(rep.lambda_bar)
        R = residual_components(grid, beta, U)
        # least slope sum_q <R_sigma(q), v_q> over probes 0 <= v_q <= 1
        # that vanish at the Dirichlet node: each v_q is 1 where R < 0
        neg = np.minimum(R[:, :-1], 0.0) @ grid.quad_weights[:-1]
        entry["stationarity_min"] = float(sum(neg[i - 1] for i in assignment.sigma))
        reports[tag] = entry
    if not reports:
        raise ConfigError(f"{run_dir} holds no pulse data to report on")
    print(json.dumps(reports, indent=2))
    return 0


def _add_shared(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--dim", type=int, help="radial dimension (1, 2 or 3)")
    parser.add_argument("--n-points", type=int, dest="n_points")
    parser.add_argument("--r-max", type=float, dest="r_max")
    parser.add_argument("--h", type=int, help="number of pulses")
    parser.add_argument("--sigma", help="component assignment, e.g. 1,2,1,3,2")
    parser.add_argument("--newton-tol", type=float, dest="newton_tol")
    parser.add_argument("--tol-nehari", type=float, dest="tol_nehari")
    parser.add_argument("--out", help="output directory root")
    parser.add_argument("--label", help="run directory name instead of timestamp")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artifact",
        description="segregated multi-pulse states of coupled cubic fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scalar = sub.add_parser("scalar", help="compute the segregated profile")
    _add_shared(p_scalar)
    p_scalar.set_defaults(func=cmd_scalar)

    p_solve = sub.add_parser("solve", help="solve at one coupling strength")
    _add_shared(p_solve)
    p_solve.add_argument("--beta", type=float, required=True)
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="continuation over the schedule")
    _add_shared(p_sweep)
    p_sweep.add_argument("--beta-schedule", dest="beta_schedule")
    p_sweep.set_defaults(func=cmd_sweep)

    p_report = sub.add_parser("report", help="re-derive diagnostics for a run")
    p_report.add_argument("--run", required=True, help="existing run directory")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2
    except SolveError as exc:
        print(json.dumps({"error": "solver", "message": str(exc)}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
