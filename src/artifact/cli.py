"""Command line front end.

Subcommands, each with the files it writes in its run directory
<out>/<label> (<out>/<kind>-<timestamp> without a label): scalar, the
segregated profile (config.json, profile.json, profile.csv); solve, one
coupling (those, pulses_beta<tag>.csv, record_beta<tag>.json); sweep, the
full schedule (those for each converged stage, sweep.csv, failures.log if
a stage failed); report, diagnostics re-derived from a run dir (none).
Exit codes: 0 success, 2 configuration problem, 3 solver failure.
A stage's U is PulseEnsemble(grid, build_assignment(sigma), pulses)
.components(lambda_bar), bit for bit: "%.17g" and JSON floats read back.
"""
from __future__ import annotations

import argparse
import itertools
import json
import numbers
import os
import sys
import time
import warnings
from dataclasses import asdict, dataclass, fields, replace
from typing import ClassVar

import numpy as np

from .assignment import Assignment, build_assignment
from .diagnostics import build_report, write_sweep_csv
from .errors import ConfigError, SolveError, StageFailure
from .grid import build_grid
from .nehari import PulseEnsemble, maximize_phi
from .scalar import NEHARI_TOL, NodalProfile, bump_constants, compute_c_infinity
from .solver import (
    SolverConfig,
    continuation,
    initial_guess,
    newton_refine,
    residual_components,
)


def _is_int(x) -> bool:
    # JSON true and false are ints to isinstance
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass
class ExperimentConfig:
    dimension: int = 2
    n_points: int = 4096
    r_max: float = 40.0
    h: int = 5
    sigma: tuple = (1, 2, 1, 3, 2)
    beta_schedule: tuple = SolverConfig.beta_schedule
    output_dir: str = "runs"
    # not a field, so no config sets it: the benchmark passes it to
    # compute_c_infinity, and it goes with that keyword (ROADMAP item 20)
    tol_nehari: ClassVar[float] = NEHARI_TOL

    def __post_init__(self) -> None:
        for name in ("dimension", "n_points", "h"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer")
        if not isinstance(self.r_max, numbers.Real) or isinstance(self.r_max, bool):
            raise ConfigError(f"r_max must be a number, got {self.r_max!r}")
        if not isinstance(self.output_dir, str):
            raise ConfigError("output_dir must be a string")
        if self.dimension not in (1, 2, 3):
            raise ConfigError("dimension must be 1, 2 or 3")
        if self.n_points < 16:
            raise ConfigError("n_points must be at least 16")
        if not 0 < self.r_max < np.inf:
            raise ConfigError("r_max must be positive and finite")
        if self.h < 1:
            raise ConfigError("h must be at least 1")
        if not all(_is_int(s) for s in self.sigma):
            raise ConfigError(f"sigma entries must be integers, got {self.sigma}")
        self.sigma = tuple(self.sigma)
        # SolverConfig checks the schedule
        self.beta_schedule = self.solver_config().beta_schedule

    def to_dict(self) -> dict:
        return asdict(self)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(beta_schedule=self.beta_schedule)


# keys of older run directories that no run reads any more: the descent's
# stopping tolerance, the trust distance epsilon, the seed of the random
# stationarity probes of `report`, the coupled Newton tolerance, now the
# constant solver.NEWTON_TOL, and the bump constraint tolerance, now the
# constant scalar.NEHARI_TOL
LEGACY_KEYS = ("outer_tol", "epsilon", "seed", "newton_tol", "tol_nehari")


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    kwargs = {k: v for k, v in data.items() if k not in LEGACY_KEYS}
    bad = set(kwargs) - {f.name for f in fields(ExperimentConfig)}
    if bad:
        raise ConfigError(f"unknown config keys: {sorted(bad)}")
    try:
        return ExperimentConfig(**kwargs)
    except ConfigError:
        # ExperimentConfig's own checks name what is wrong
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config value of the wrong type: {exc}") from exc


def save_config(config: ExperimentConfig, path: str) -> None:
    with open(path, "w") as f:
        json.dump(config.to_dict(), f, indent=2, sort_keys=True)
        f.write("\n")


def _parse_list(text: str, kind: type, what: str) -> tuple:
    """The comma separated values of ``text`` as ``kind``; ``what`` names
    them in the error."""
    try:
        return tuple(kind(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"expected comma separated {what}, got {text!r}") from exc


def build_cli_config(args) -> ExperimentConfig:
    """The --config file, or the defaults, with the given flags replacing
    their fields; ExperimentConfig checks the result."""
    given = {
        "dimension": args.dim,
        "n_points": args.n_points,
        "r_max": args.r_max,
        "h": args.h,
        "output_dir": args.out,
    }
    if args.sigma is not None:
        given["sigma"] = _parse_list(args.sigma, int, "integers")
    if getattr(args, "beta_schedule", None) is not None:
        given["beta_schedule"] = _parse_list(args.beta_schedule, float, "numbers")
    config = load_config(args.config) if args.config else ExperimentConfig()
    return replace(config, **{k: v for k, v in given.items() if v is not None})


def make_run_dir(config: ExperimentConfig, kind: str, label=None) -> str:
    # a label with a separator, or "." or "..", would put the run
    # elsewhere than one new directory of output_dir
    if label and (label in (".", "..") or os.sep in label
                  or (os.altsep and os.altsep in label)):
        raise ConfigError(f"label {label!r} must name one directory, "
                          "without a path separator and not . or ..")
    stem = label if label else f"{kind}-{time.strftime('%Y%m%d-%H%M%S')}"
    path = os.path.join(config.output_dir, stem)
    try:
        os.makedirs(config.output_dir, exist_ok=True)
        # no probe before mkdir: another run may take a name between them
        for suffix in itertools.count(2):
            try:
                os.mkdir(path)
                return path
            except FileExistsError:
                path = os.path.join(config.output_dir, f"{stem}-{suffix}")
    except OSError as exc:
        raise ConfigError(f"cannot make a run directory in {config.output_dir!r}: "
                          f"{exc}") from exc


def _write_columns(path: str, r: np.ndarray, cols: dict) -> None:
    """CSV of r and the columns, every value "%.17g"; one format per row
    writes the bytes of one per value in less time, and a row at a time
    holds no more than the stacked array."""
    names = ["r"] + list(cols)
    rows = np.column_stack([r] + [np.asarray(v, float) for v in cols.values()])
    fmt = ",".join(["%.17g"] * len(names)) + "\n"
    with open(path, "w") as f:
        f.write(",".join(names) + "\n")
        f.writelines(fmt % tuple(row.tolist()) for row in rows)


def _read_columns(path: str, count: int) -> np.ndarray:
    """The first `count` columns after r of a CSV that `_write_columns`
    wrote, one row each."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if data.shape[1] < 1 + count:
        raise ConfigError(f"{path} has {data.shape[1] - 1} columns after r, "
                          f"not {count}")
    return data[:, 1:1 + count].T.copy()


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
    return compute_c_infinity(grid, config.h)


def write_stage(run_dir: str, config: ExperimentConfig, profile: NodalProfile,
                record) -> None:
    """Write a stage's pulses and its record with its diagnostics.
    `config` is not read; it stays in the signature that
    `perfbench/workloads.py` calls."""
    tag = _beta_tag(record.beta)
    _write_columns(
        os.path.join(run_dir, f"pulses_beta{tag}.csv"),
        record.ensemble.grid.nodes,
        {f"p_{q + 1}": p for q, p in enumerate(record.ensemble.pulses)},
    )
    payload = {"record": record.to_dict(),
               "diagnostics": build_report(record.beta, record.ensemble,
                                           profile, record.maximizer)}
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


def _start_run(args, kind: str, beta=None):
    """The start of `solve` and `sweep`: the config and its assignment,
    checked against h and against the coupling ``beta`` of a solve, then
    the run directory with config.json, and the profile with
    profile.json.  Returns (config, assignment, run_dir, profile)."""
    config = build_cli_config(args)
    assignment = build_assignment(config.sigma)
    if assignment.h != config.h:
        raise ConfigError(
            f"sigma has {assignment.h} entries but h is {config.h}"
        )
    if beta == 0.0 and config.h > 1:
        raise ConfigError(
            "at beta 0 the components decouple and each nonnegative one is "
            "positive at every interior node, so no segregated state with "
            f"h = {config.h} bumps exists"
        )
    run_dir = make_run_dir(config, kind, args.label)
    save_config(config, os.path.join(run_dir, "config.json"))
    profile = compute_profile(config)
    write_profile(run_dir, profile)
    return config, assignment, run_dir, profile


def _continuation(profile: NodalProfile, assignment: Assignment,
                  config: SolverConfig):
    """`continuation`'s records and the messages of its `StageFailure`
    warnings, which are collected instead of printed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", StageFailure)
        records = continuation(profile, assignment, config)
    return records, [str(w.message) for w in caught
                     if issubclass(w.category, StageFailure)]


def cmd_solve(args) -> int:
    beta = float(args.beta)
    if not 0 <= beta < np.inf:
        raise ConfigError("beta must be nonnegative and finite")
    config, assignment, run_dir, profile = _start_run(args, "solve", beta)
    if beta == 0.0:
        record = newton_refine(0.0, initial_guess(profile, assignment),
                               target=profile)
    else:
        records, failures = _continuation(
            profile, assignment, SolverConfig(beta_schedule=(beta,)))
        if failures:
            raise SolveError(failures[0])
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
    config, assignment, run_dir, profile = _start_run(args, "sweep")
    records, failures = _continuation(profile, assignment,
                                      config.solver_config())
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


# the JSON types of the profile.json values that report reads, bool excluded
PROFILE_TYPES = {"dimension": int, "n_points": int, "h": int,
                 "r_max": (int, float), "c_infinity": (int, float),
                 "node_radii": list, "energies": list}


def cmd_report(args) -> int:
    run_dir = args.run
    cfg_path = os.path.join(run_dir, "config.json")
    if not os.path.isfile(cfg_path):
        raise ConfigError(f"{run_dir} has no config.json")
    config = load_config(cfg_path)
    jpath, cpath = _profile_paths(run_dir)
    if not (os.path.isfile(jpath) and os.path.isfile(cpath)):
        raise ConfigError(f"{run_dir} has no stored profile")
    try:
        with open(jpath) as f:
            meta = json.load(f)
        for key, kind in PROFILE_TYPES.items():
            value = meta[key]
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(f"{jpath} key {key!r} holds a "
                                  f"{type(value).__name__}")
        grid = build_grid(meta["dimension"], meta["n_points"], meta["r_max"])
        profile = NodalProfile(
            grid=grid,
            h=meta["h"],
            bumps=list(_read_columns(cpath, meta["h"])),
            node_radii=tuple(meta["node_radii"]),
            energies=tuple(meta["energies"]),
            c_value=meta["c_infinity"],
        )
    except KeyError as exc:
        raise ConfigError(f"{jpath} has no key {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"cannot read {jpath}: {exc}") from exc
    assignment = build_assignment(config.sigma)
    stages = []
    for name in os.listdir(run_dir):
        if not (name.startswith("pulses_beta") and name.endswith(".csv")):
            continue
        path = os.path.join(run_dir, name)
        tag = name[len("pulses_beta") : -len(".csv")]
        try:
            beta = float(tag)
        except ValueError:
            beta = np.nan
        # the rule of solve --beta
        if not 0 <= beta < np.inf:
            raise ConfigError(f"{path} names no coupling")
        stages.append((beta, tag, path))
    reports = {}
    # in the order of the couplings, as sweep.csv lists them
    for beta, tag, path in sorted(stages):
        pulses = _read_columns(path, assignment.h)
        ensemble = PulseEnsemble(grid, assignment, pulses)
        rep = maximize_phi(beta, ensemble)
        entry = build_report(beta, ensemble, profile, rep)
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
