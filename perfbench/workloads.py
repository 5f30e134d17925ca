"""The benchmark's three fixed workloads and the checks on their outputs.

Every workload goes through the package's public API.  An operation is
one (case, route) pair of ``profile-routes`` or one schedule stage of a
sweep.  It fails when it raises, is missing from the records, comes back
with ``accepted=False``, or breaks a check; each failure carries the
names of what it broke.  The bounds are those of the tier-1 tests each
check mirrors (``test_02``, ``test_06``, ``test_08``, ``test_09``).
"""
from __future__ import annotations

import os
import shutil
import tempfile
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

import artifact as af
from artifact import cli

# Checks each operation broke at the commit that defined the benchmark,
# all from ROADMAP item 1's defects: the scaling saddle that loses beta=1,
# and zero nodes inside a support at large beta (test_08).  They count as
# failed operations like any other; a failure not listed here makes the
# result incorrect.
KNOWN_DEFECTS = {
    "profile-routes": {},
    "sweep-ref": {"beta=1": {"missing"}, "beta=10000": {"positivity"}},
    "sweep-dense": {"beta=1": {"missing"}, "beta=5000": {"positivity"},
                    "beta=10000": {"positivity"}},
}


@dataclass
class Outcome:
    op: str
    failed_checks: list = field(default_factory=list)
    detail: str = ""

    @property
    def passed(self) -> bool:
        return not self.failed_checks


def unexplained(workload, iterations):
    """Why the outputs of a run are not correct, as a list of lines: a
    failed check that is not a known defect, or an operation whose checks
    came out differently in two iterations on the same inputs."""
    known = KNOWN_DEFECTS[workload]
    problems = []
    first = {o.op: o.failed_checks for o in iterations[0]}
    for i, outcomes in enumerate(iterations):
        checks = {o.op: o.failed_checks for o in outcomes}
        if checks.keys() != first.keys():
            problems.append(f"iteration {i}: operations {sorted(checks)} "
                            f"differ from {sorted(first)}")
            continue
        for o in outcomes:
            new = set(o.failed_checks) - known.get(o.op, set())
            if new:
                problems.append(f"iteration {i}: {o.op} broke {','.join(sorted(new))}"
                                f" ({o.detail})")
            if o.failed_checks != first[o.op]:
                problems.append(f"iteration {i}: {o.op} broke {o.failed_checks}, "
                                f"iteration 0 broke {first[o.op]}")
    return problems


# ---------------------------------------------------------------------
# profile-routes
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class ProfileCase:
    dim: int
    h: int
    n: int
    r_max: float
    frozen_c: float  # test_02's frozen partition energy

    @property
    def label(self) -> str:
        return f"N={self.dim},h={self.h}"


PROFILE_CASES = (
    ProfileCase(2, 5, 8193, 40.0, 295.81005682),
    ProfileCase(3, 3, 4097, 40.0, 360.05073457),
)
ROUTES = (("partition", "compute_c_infinity"), ("shooting", "find_nodal_solution"))


def setup_profile_routes(cases=PROFILE_CASES):
    return [(case, af.build_grid(case.dim, case.n, case.r_max)) for case in cases]


def run_profile_routes(state):
    """Both routes on every case; returns (outcomes, seconds per route)."""
    seconds = {route: 0.0 for route, _ in ROUTES}
    outcomes = []
    for case, grid in state:
        results, errors = {}, {}
        for route, fn_name in ROUTES:
            fn = getattr(af, fn_name)
            t0 = time.perf_counter()
            try:
                results[route] = fn(grid, case.h)
            except Exception as exc:  # a raised route is a failed operation
                errors[route] = f"{type(exc).__name__}: {exc}"
            seconds[route] += time.perf_counter() - t0
        outcomes.extend(check_profile_case(case, grid.dr, results, errors))
    return outcomes, seconds


def check_profile_case(case, dr, results, errors):
    """test_02's bounds: frozen c within 5e-6, routes within 1e-4, node
    radii within 2 dr."""
    part, shot = results.get("partition"), results.get("shooting")
    outcomes = []
    for route, _ in ROUTES:
        out = Outcome(f"{case.label},{route}")
        outcomes.append(out)
        if route in errors:
            out.failed_checks.append("raised")
            out.detail = errors[route]
            continue
        c = results[route].c_value
        out.detail = f"c={c:.10g}"
        if not abs(c - case.frozen_c) / case.frozen_c < 5e-6:
            out.failed_checks.append("c_infinity_frozen")
        if part is None or shot is None:
            continue
        if not abs(part.c_value - shot.c_value) / abs(shot.c_value) < 1e-4:
            out.failed_checks.append("routes_agree")
        za, zb = np.asarray(part.node_radii), np.asarray(shot.node_radii)
        if za.shape != zb.shape or (za.size and not np.max(np.abs(za - zb)) < 2.0 * dr):
            out.failed_checks.append("node_radii")
    return outcomes


# ---------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    n: int
    r_max: float
    sigma: tuple
    schedule: tuple
    frozen: dict  # beta -> stage energy at the commit that defined the benchmark
    dim: int = 2


SWEEP_REF = SweepSpec(
    n=4097, r_max=40.0, sigma=(1, 2, 1, 3, 2),
    schedule=(1.0, 10.0, 100.0, 1e3, 1e4),
    frozen={10.0: 219.9717844, 100.0: 252.1063778, 1e3: 270.8770939,
            1e4: 281.6813092},
)
SWEEP_DENSE = SweepSpec(
    n=2049, r_max=30.0, sigma=(1, 2, 1, 3, 2),
    schedule=(1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1e3,
              2e3, 5e3, 1e4),
    frozen={2.0: 180.7332543, 5.0: 206.0291143, 10.0: 219.9549188,
            20.0: 231.5126406, 50.0: 244.1536250, 100.0: 252.0869078,
            200.0: 258.8408699, 500.0: 266.2371567, 1e3: 270.8533600,
            2e3: 274.7603228, 5e3: 279.0116552, 1e4: 281.6500795},
)
INTERLEAVE_BETA = 1e4


@dataclass
class SweepState:
    spec: SweepSpec
    profile: object
    assignment: object
    config: object  # cli.ExperimentConfig, as `artifact sweep` builds it
    workdir: str


def setup_sweep(spec, workdir):
    """Grid and profile, as `artifact sweep` builds them; returns the
    state and the seconds spent in compute_c_infinity."""
    config = cli.ExperimentConfig(
        dimension=spec.dim, n_points=spec.n, r_max=spec.r_max,
        h=len(spec.sigma), sigma=spec.sigma, beta_schedule=spec.schedule,
        output_dir=workdir,
    )
    grid = af.build_grid(spec.dim, spec.n, spec.r_max)
    t0 = time.perf_counter()
    profile = af.compute_c_infinity(grid, config.h, tol_nehari=config.tol_nehari)
    partition_s = time.perf_counter() - t0
    assignment = af.build_assignment(spec.sigma)
    return SweepState(spec, profile, assignment, config, workdir), partition_s


def run_sweep(state):
    """continuation, then the run-directory writes of `artifact sweep`;
    returns (outcomes, seconds per phase)."""
    error = None
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", af.StageFailure)
        try:
            records = af.continuation(state.profile, state.assignment,
                                      state.config.solver_config())
        except Exception as exc:  # every stage of the run then fails
            records, error = [], f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    stage_failures = [str(w.message) for w in caught
                      if issubclass(w.category, af.StageFailure)]
    run_dir = tempfile.mkdtemp(prefix="sweep-", dir=state.workdir)
    try:
        for record in records:
            cli.write_stage(run_dir, state.config, state.profile, record)
        af.write_sweep_csv(os.path.join(run_dir, "sweep.csv"), records)
    finally:
        shutil.rmtree(run_dir)
    t2 = time.perf_counter()
    outcomes = check_sweep(state.spec, state.profile, records,
                           stage_failures, error)
    return outcomes, {"continuation": t1 - t0, "writes": t2 - t1}


def check_sweep(spec, profile, records, stage_failures=(), error=None):
    """One outcome per schedule stage."""
    by_beta = {rec.beta: rec for rec in records}
    previous = {b.beta: a for a, b in zip(records, records[1:])}
    cap = profile.c_value + 1e-4
    outcomes = []
    for beta in spec.schedule:
        out = Outcome(f"beta={beta:g}")
        outcomes.append(out)
        rec = by_beta.get(beta)
        if rec is None:
            out.failed_checks.append("missing")
            tag = f"stage beta={beta:g} "
            out.detail = next((m for m in stage_failures if m.startswith(tag)),
                              error or "absent from the records")
            continue
        out.detail = f"energy={rec.energy:.10g}"
        if not rec.accepted:
            out.failed_checks.append("accepted")
            continue
        out.failed_checks.extend(stage_checks(spec, rec, previous.get(beta), cap))
    return outcomes


def stage_checks(spec, rec, prev, cap):
    """Names of the checks one accepted stage breaks."""
    broken = []
    if not rec.residual < 1e-8:
        broken.append("residual")
    if not np.max(np.abs(np.asarray(rec.lambda_bar) - 1.0)) < 1e-6:
        broken.append("lambda_unit")
    if prev is not None and not rec.energy >= prev.energy:
        broken.append("energy_monotone")
    if not rec.energy <= cap:
        broken.append("energy_bound")
    U = rec.ensemble.components(rec.lambda_bar)
    if not positive_on_supports(U):
        broken.append("positivity")
    if rec.beta == INTERLEAVE_BETA and not interleaving_follows_sigma(
            rec.ensemble.grid, U, spec.sigma):
        broken.append("interleaving")
    frozen = spec.frozen.get(rec.beta)
    if frozen is not None and not abs(rec.energy - frozen) / abs(frozen) < 1e-6:
        broken.append("frozen_energy")
    return broken


def positive_on_supports(U) -> bool:
    """test_08: nonnegative everywhere and strictly positive between the
    first and last node above 1e-8 of the maximum."""
    if not np.all(U >= 0.0):
        return False
    for u in U:
        idx = np.flatnonzero(u > 1e-8 * u.max())
        if idx.size == 0 or not np.all(u[idx[0]:idx[-1] + 1] > 0.0):
            return False
    return True


def interleaving_follows_sigma(grid, U, sigma) -> bool:
    """test_09: maxima above 0.1 of each component's peak, one per pulse,
    in the radial order sigma gives."""
    tagged = []
    for i, u in enumerate(U, start=1):
        floor = 0.1 * float(u.max())
        radii = [float(grid.nodes[j]) for j in range(len(u) - 1)
                 if u[j] > (u[j - 1] if j > 0 else -np.inf)
                 and u[j] >= u[j + 1] and u[j] > floor]
        if len(radii) != sigma.count(i):
            return False
        tagged.extend((r, i) for r in radii)
    return tuple(i for _, i in sorted(tagged)) == tuple(sigma)
