"""Coupled Newton solves and continuation in the coupling strength for
the k-component cubic system.

A continuation run anchors a damped Newton solve at a large coupling,
where the segregated initial guess is nearly exact, and walks the
positive branch once in log-coupling: down through the schedule points
at or below the anchor, then up through those above it.  Plain descent
from the initial guess at weak coupling falls into the wrong basin, while
the walk follows the branch.  Each walk step predicts along the branch
tangent and corrects with full-step Newton, rejecting the step as soon
as the simplified-Newton contraction shows it left the Newton basin
(P. Deuflhard, Newton Methods for Nonlinear Problems, 2004).  A stage is
its walked state, already converged by that corrector: one positivity
step, a cut into pulses, and one scaling maximization that certifies it.
The paper's descent of the maximized scaling energy, `minimize_m_beta`,
is a standalone tool that no stage calls.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .assignment import Assignment
from .errors import (
    ConfigError,
    MaximizerFailure,
    NegativityPersistent,
    NewtonDivergence,
    SolveError,
    StageFailure,
)
from .grid import (
    RadialGrid,
    apply_tridiag,
    factor_tridiag,
    h1_norm_sq,
    newton,
    solve_tridiag,
)
from .nehari import MaximizerReport, PulseEnsemble, coupled_energy, maximize_phi
from .scalar import NodalProfile

LAMBDA_UNIT_TOL = 1e-6
# coupling of the anchor solve, where the segregated guess is nearly exact
ANCHOR_BETA = 1e4


@dataclass
class SolverConfig:
    """Schedule and Newton tolerance; `outer_tol` and `max_iters` serve
    only `minimize_m_beta`."""

    beta_schedule: tuple = (1.0, 10.0, 100.0, 1000.0, 10000.0)
    outer_tol: float = 1e-7
    newton_tol: float = 1e-10
    max_iters: int = 150

    def __post_init__(self) -> None:
        sched = tuple(float(b) for b in self.beta_schedule)
        if len(sched) == 0:
            raise ConfigError("beta_schedule must be nonempty")
        if any(b <= 0 for b in sched):
            raise ConfigError("beta_schedule entries must be positive")
        if any(b2 <= b1 for b1, b2 in zip(sched, sched[1:])):
            raise ConfigError("beta_schedule must be strictly increasing")
        self.beta_schedule = sched
        for name in ("outer_tol", "newton_tol"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")


@dataclass
class SolutionRecord:
    beta: float
    ensemble: PulseEnsemble
    lambda_bar: np.ndarray
    energy: float
    residual: float
    d_to_K: float
    overlaps: np.ndarray
    in_nehari: bool
    hessian_negdef: bool = False
    accepted: bool = False
    maximizer: Optional[MaximizerReport] = field(default=None, repr=False)

    def to_dict(self) -> dict:
        return {
            "beta": self.beta,
            "lambda_bar": [float(x) for x in self.lambda_bar],
            "energy": self.energy,
            "residual": self.residual,
            "d_to_K": self.d_to_K,
            "overlaps": [[float(x) for x in row] for row in self.overlaps],
            "in_nehari": self.in_nehari,
            "hessian_negdef": self.hessian_negdef,
            "accepted": self.accepted,
        }


def initial_guess(profile: NodalProfile, assignment: Assignment) -> PulseEnsemble:
    """Pulse (i, m) starts as the bump it is assigned to."""
    if profile.h != assignment.h:
        raise ConfigError(
            f"profile has {profile.h} bumps, assignment expects {assignment.h}"
        )
    return PulseEnsemble(
        grid=profile.grid,
        assignment=assignment,
        pulses=np.array([np.asarray(b, float) for b in profile.bumps]),
    )


def pulse_distance(ensemble: PulseEnsemble, profile: NodalProfile) -> float:
    """Aggregate H1 distance pulse-to-bump under the assignment order."""
    if profile.h != ensemble.assignment.h:
        raise ConfigError("bump count mismatch")
    grid = ensemble.grid
    total = 0.0
    for l in range(profile.h):
        diff = ensemble.pulses[l] - np.asarray(profile.bumps[l], float)
        total += h1_norm_sq(grid, diff)
    return float(np.sqrt(total))


def _cross_sq(U: np.ndarray) -> np.ndarray:
    """T_i = sum_{j != i} U_j^2 for each component, shape (k, n).

    Summed term by term rather than as S - U_i^2 with S = sum_j U_j^2:
    the shortcut cancels where U_i dominates.  On the reference sweep's
    anchor state at beta = 1e7 it moves the residual by 1.3e-9, 13 times
    the default Newton tolerance.
    """
    sq = U**2
    k = len(U)
    return np.array(
        [sum((sq[j] for j in range(k) if j != i), np.zeros_like(sq[i]))
         for i in range(k)]
    )


def residual_components(grid: RadialGrid, beta: float, U: np.ndarray) -> np.ndarray:
    """Discrete residual of each component equation; identity row at r_max."""
    k = U.shape[0]
    T = _cross_sq(U)
    R = np.empty_like(U)
    for i in range(k):
        R[i] = (
            apply_tridiag(grid.op_lower, grid.op_diag, grid.op_upper, U[i])
            - U[i] ** 3
            + beta * U[i] * T[i]
        )
        R[i, -1] = U[i, -1]
    return R


def component_centers(grid: RadialGrid, assignment: Assignment, U: np.ndarray,
                      reference=None):
    """Per-pulse center indices read off the current component fields.

    For each component the tallest local maxima (the origin counts as
    one) are matched to its pulses in radial order.  Components showing
    fewer maxima than pulses keep the reference centers, so a dissolving
    state degrades instead of producing sliver cuts.
    """
    h = assignment.h
    centers = list(reference) if reference is not None else [0] * h
    for i in range(1, assignment.k + 1):
        qs = [q for q in range(h) if assignment.sigma[q] == i]
        u = U[i - 1]
        peak = float(u.max())
        if peak <= 0:
            continue
        cand = []
        for j in range(len(u) - 1):
            left = u[j - 1] if j > 0 else -np.inf
            if u[j] > left and u[j] >= u[j + 1] and u[j] > 1e-3 * peak:
                cand.append(j)
        cand = sorted(sorted(cand, key=lambda j: u[j])[-len(qs):])
        if len(cand) == len(qs):
            for q, j in zip(qs, cand):
                centers[q] = int(j)
    return centers


def split_components(grid: RadialGrid, assignment: Assignment, U: np.ndarray,
                     centers) -> np.ndarray:
    """Re-extract pulses: cut each component at its interior local minima
    between consecutive pulse centers."""
    h, k, n = assignment.h, assignment.k, grid.n_points
    P = np.zeros((h, n))
    for i in range(1, k + 1):
        qs = sorted(
            (q for q in range(h) if assignment.sigma[q] == i),
            key=lambda q: centers[q],
        )
        cuts = []
        for a, b in zip(qs[:-1], qs[1:]):
            ja, jb = centers[a], centers[b]
            if jb <= ja + 1:
                cuts.append(ja + 1)
                continue
            cuts.append(ja + int(np.argmin(U[i - 1][ja : jb + 1])))
        bnds = [0] + cuts + [n]
        for q, (ja, jb) in zip(qs, zip(bnds[:-1], bnds[1:])):
            P[q, ja:jb] = np.maximum(U[i - 1][ja:jb], 0.0)
    return P


def _jacobian_solver(grid: RadialGrid, beta: float, U: np.ndarray):
    """LU-factor the Jacobian of `residual_components` at U once; return
    solve(F), which maps a (k, n) right-hand side to J^{-1} F.

    Unknowns are node-major (the k components of a node adjacent), so the
    Jacobian has k sub- and k super-diagonals; its bands are filled from
    node-major views of the fields.  LAPACK ``gbtrf`` factors it and each
    solve is one ``gbtrs``; for k = 1 the matrix is tridiagonal and
    ``factor_tridiag`` does the same.  These are the eliminations
    ``solve_banded((k, k), ...)`` performs, so solutions equal its bit for
    bit.
    """
    k, n = U.shape
    diag = grid.op_diag - 3 * U**2 + beta * _cross_sq(U)
    diag[:, -1] = 1.0  # identity row at r_max
    lower = grid.op_lower.copy()
    lower[-1] = 0.0
    if k == 1:
        tri = factor_tridiag(lower, diag[0], grid.op_upper)
        return lambda F: tri(F[0])[None, :]
    # LAPACK band storage with k rows for fill-in on top: entry (p, q)
    # sits in row 2k + p - q, column q = k * node + component
    ab = np.zeros((3 * k + 1, n, k))
    ab[2 * k] = diag.T
    ab[k, 1:] = grid.op_upper[:, None]
    ab[3 * k, :-1] = lower[:, None]
    C = 2 * beta * U[:, None, :] * U[None, :, :]  # dF_i/dU_j at each node
    C[:, :, -1] = 0.0
    for i in range(k):
        for j in range(k):
            if j != i:
                ab[2 * k + i - j, :, j] = C[i, j]
    ab = ab.reshape(3 * k + 1, n * k)
    if not np.isfinite(ab).all():
        raise ValueError("array must not contain infs or NaNs")
    lu, piv, info = dgbtrf(ab, k, k)
    if info > 0:
        raise LinAlgError("singular matrix")

    def solve(F):
        x, _ = dgbtrs(lu, k, k, F.T.reshape(-1), piv)
        return x.reshape(n, k).T

    return solve


def coupled_newton(grid: RadialGrid, beta: float, U: np.ndarray,
                   tol: float = 1e-10, maxit: int = 60,
                   history: Optional[list] = None):
    """Damped banded Newton on the k-field system; returns (U, resid, iters).

    `grid.newton` on `residual_components`, each step solved with
    `_jacobian_solver`, from a copy of U.  It serves the anchor solve of
    `continuation` and `newton_refine`, whose starting states lie outside
    the full-step Newton basin; the beta-walk uses its own corrector,
    `_correct`.
    """
    return newton(lambda V: residual_components(grid, beta, V),
                  lambda V: _jacobian_solver(grid, beta, V),
                  U.copy(), tol, maxit, history)


def minimize_m_beta(beta: float, start: PulseEnsemble, config: SolverConfig,
                    trace: Optional[list] = None) -> PulseEnsemble:
    """Descend the maximized scaling energy in the pulses.

    The descent direction is the preconditioned residual of the scaled
    components, weighted per pulse by its scaling (the scaling maximizer
    is critical, so no scaling derivative enters); Armijo backtracking
    with positivity clipping, re-maximization each accepted step.
    No continuation stage calls it: a walked stage state is already
    Newton-converged, and the descent takes no step from it.
    """
    grid = start.grid
    assignment = start.assignment
    h, k = assignment.h, assignment.k
    w = grid.quad_weights
    P = start.pulses.copy()
    report = maximize_phi(beta, start)
    lam = report.lambda_bar.values.copy()
    centers = [int(np.argmax(P[q])) for q in range(h)]
    ens = PulseEnsemble(grid, assignment, P)
    U = ens.components(lam)
    M = coupled_energy(grid, beta, U)
    if trace is not None:
        trace.append(M)
    for _ in range(config.max_iters):
        lamfield = np.zeros((k, grid.n_points))
        for q in range(h):
            i = assignment.sigma[q] - 1
            lamfield[i][P[q] > 0] = lam[q]
        lamfield[lamfield == 0] = 1.0
        R = residual_components(grid, beta, U)
        D = np.empty_like(R)
        gsq = 0.0
        for i in range(k):
            rhs_ = R[i] * lamfield[i]
            D[i] = solve_tridiag(grid.op_lower, grid.op_diag, grid.op_upper, rhs_)
            act = ~((U[i] <= 0) & (D[i] > 0))
            gsq += np.dot(w, (rhs_ * D[i]) * act)
        gn = np.sqrt(max(gsq, 0.0))
        if gn < config.outer_tol:
            break
        t = 1.0
        ok = False
        for _ in range(30):
            Un = np.maximum(U - t * D, 0.0)
            Un[:, -1] = 0.0
            Pn = split_components(grid, assignment, Un, centers)
            ens_n = PulseEnsemble(grid, assignment, Pn)
            try:
                rep_n = maximize_phi(beta, ens_n, x0=lam)
            except MaximizerFailure:
                # trial left the region where the scaling energy has a
                # finite maximum; shrink the step
                t *= 0.5
                continue
            Mn = rep_n.m_value
            if Mn < M - 1e-4 * t * gsq:
                U, P, lam, M = Un, Pn, rep_n.lambda_bar.values.copy(), Mn
                ok = True
                if trace is not None:
                    trace.append(M)
                break
            t *= 0.5
        if not ok:
            break
        centers = [int(np.argmax(P[q])) for q in range(h)]
    return PulseEnsemble(grid, assignment, P)


def _picard_step(grid: RadialGrid, beta: float, U: np.ndarray) -> np.ndarray:
    """Solve (-Lap + 1 + beta T_i) V_i = U_i^3 for each component of a
    nonnegative state; identity row at r_max."""
    T = _cross_sq(U)
    V = np.empty_like(U)
    for i in range(U.shape[0]):
        diag = grid.op_diag + beta * T[i]
        diag[-1] = 1.0
        rhs = U[i] ** 3
        rhs[-1] = 0.0
        V[i] = solve_tridiag(grid.op_lower, diag, grid.op_upper, rhs)
    return V


def _certify(beta: float, grid: RadialGrid, assignment: Assignment,
             U: np.ndarray, centers, newton_tol: float,
             target: Optional[NodalProfile]) -> SolutionRecord:
    """The record of a Newton-converged state U: its pulses, cut at the
    given centers, and the scaling maximum that certifies them.

    Between a component's pulses at strong coupling the true values
    (1e-100 and below) lie far under the Newton tolerance, so U can be
    zero or negative there.  After clipping it, one Picard step per
    component solves (-Lap + 1 + beta T_i) V_i = U_i^3 with
    T_i = sum_{j != i} U_j^2.  That matrix is a strictly diagonally
    dominant M-matrix: elimination takes no pivots and every update adds
    terms of one sign, so V_i, solved for itself rather than as a
    correction, keeps its sign and relative accuracy down to the tiniest
    values, and its change from U_i is bounded by the residual.  The
    components are then nonnegative everywhere and strictly positive on
    their supports.  `maximize_phi` raises where the pulses have no
    scaling maximum, e.g. `SaddleScaling` at weak coupling.
    """
    U = _picard_step(grid, beta, np.maximum(U, 0.0))
    resid = float(np.max(np.abs(residual_components(grid, beta, U))))
    P = split_components(grid, assignment, U, centers)
    refined = PulseEnsemble(grid, assignment, P)
    rep = maximize_phi(beta, refined)
    lam_bar = rep.lambda_bar.values
    k = assignment.k
    w = grid.quad_weights
    overlaps = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            if i != j:
                overlaps[i, j] = np.dot(w, U[i] ** 2 * U[j] ** 2)
    in_nehari = bool(np.max(np.abs(lam_bar - 1.0)) < LAMBDA_UNIT_TOL)
    energy = coupled_energy(grid, beta, U)
    d_to_K = pulse_distance(refined, target) if target is not None else float("nan")
    return SolutionRecord(
        beta=float(beta),
        ensemble=refined,
        lambda_bar=lam_bar,
        energy=energy,
        residual=resid,
        d_to_K=d_to_K,
        overlaps=overlaps,
        in_nehari=in_nehari,
        hessian_negdef=rep.hessian_negdef,
        accepted=bool(resid < max(1e-8, newton_tol * 10))
        and in_nehari
        and rep.hessian_negdef,
        maximizer=rep,
    )


def newton_refine(beta: float, ensemble: PulseEnsemble,
                  config: Optional[SolverConfig] = None,
                  target: Optional[NodalProfile] = None) -> SolutionRecord:
    """Solve the coupled system by damped Newton from the scaled ensemble
    and certify the result (see `_certify`), cutting it at the pulse
    maxima of the ensemble.  `artifact solve` uses it at zero coupling,
    where no branch is walked.
    """
    if config is None:
        config = SolverConfig()
    grid = ensemble.grid
    assignment = ensemble.assignment
    report = maximize_phi(beta, ensemble)
    U0 = ensemble.components(report.lambda_bar.values)
    U, resid, _ = coupled_newton(grid, beta, U0, tol=config.newton_tol, maxit=80)
    if resid > max(1e-8, config.newton_tol * 10):
        raise NewtonDivergence(f"coupled solve stalled at residual {resid:.2e}")
    if U.min() < -1e-9:
        warnings.warn(
            f"component min {U.min():.2e} negative after damping",
            NegativityPersistent,
        )
    centers = [int(np.argmax(ensemble.pulses[q])) for q in range(assignment.h)]
    return _certify(beta, grid, assignment, U, centers, config.newton_tol, target)


def _tangent(grid: RadialGrid, beta: float, U: np.ndarray) -> np.ndarray:
    """Branch tangent dU/dlog10(beta) = -J^{-1} dF/dlog10(beta) at a
    converged state: one factorization and one solve."""
    dF = np.log(10.0) * beta * U * _cross_sq(U)
    dF[:, -1] = 0.0
    return _jacobian_solver(grid, beta, U)(-dF)


def _correct(grid: RadialGrid, beta: float, U: np.ndarray,
             tol: float) -> Optional[np.ndarray]:
    """Full-step Newton from a predicted state; the converged state, or
    None once the trial is judged outside the Newton basin.

    After each step dU, one more solve with the same factors gives the
    simplified-Newton correction at U + dU, and its ratio to dU in the
    max norm is the contraction Theta (Deuflhard).  Theta >= 1/2 rejects
    the trial at once, so a too-long continuation step costs one or two
    Newton steps.  With
    Theta < 1/2 every correction at least halves; accepted trials on the
    reference sweeps take 2 to 6 steps, and 20 bounds a slow contraction.
    """
    F = residual_components(grid, beta, U)
    for _ in range(20):
        if np.max(np.abs(F)) < tol:
            return U
        solve = _jacobian_solver(grid, beta, U)
        dU = solve(-F)
        U = U + dU
        F = residual_components(grid, beta, U)
        if np.max(np.abs(F)) >= tol and not (
                np.max(np.abs(solve(-F))) < 0.5 * np.max(np.abs(dU))):
            return None
    return U if np.max(np.abs(F)) < tol else None


def _walk_beta(grid: RadialGrid, U, b_from: float, targets,
               tol: float = 1e-10):
    """Walk the branch from a converged state at b_from through targets.

    The targets are couplings in walking order, all on one side of
    b_from.  Each trial predicts along the tangent and corrects with
    `_correct`; the log-coupling step grows by 1.7 after an accepted
    trial and shrinks by 0.35 after a rejected one, and every segment
    between targets starts at 0.25 decade or less.  Returns the converged
    states at the targets reached, in order, and the coupling reached: the
    walk stops short when the step falls under 1e-4 decade or after 400
    corrector calls.
    """
    states = []
    pos = np.log10(b_from)
    tangent = None
    solves = 0
    for b_to in targets:
        lt = np.log10(b_to)
        step = float(np.clip(lt - pos, -0.25, 0.25))
        while pos != lt:
            if tangent is None:
                tangent = _tangent(grid, 10.0**pos, U)
            trial = pos + step if abs(step) < abs(lt - pos) else lt
            beta = b_to if trial == lt else 10.0**trial
            U2 = _correct(grid, beta, U + (trial - pos) * tangent, tol)
            solves += 1
            if U2 is not None:
                U, pos, tangent = U2, trial, None
                step *= 1.7
            else:
                step *= 0.35
                if abs(step) < 1e-4 or solves >= 400:
                    return states, 10.0**pos
        states.append(U)
    return states, 10.0**pos


def continuation(profile: NodalProfile, assignment: Assignment,
                 config: SolverConfig) -> list:
    """One SolutionRecord per accepted schedule stage, in schedule order.

    The branch is anchored by a damped Newton solve at a large coupling,
    where the segregated guess is nearly exact, and walked once: down
    through the schedule points at or below the anchor, then up through
    those above it.  A stage is its walked state, which the walk's
    corrector has converged: `_certify` cuts it at the re-located bump
    centers and certifies it with one scaling maximization, with no
    Newton solve of its own.
    A failed stage, including one beyond a walk stall, is reported as a
    `StageFailure` warning naming its cause and is absent from the
    records; the other stages are unaffected.  A failed anchor solve
    raises NewtonDivergence.
    """
    grid = profile.grid
    guess = initial_guess(profile, assignment)
    schedule = config.beta_schedule
    anchor = max(ANCHOR_BETA, schedule[0])
    U, res, _ = coupled_newton(
        grid, anchor, guess.components(), tol=config.newton_tol, maxit=120
    )
    if res > config.newton_tol:
        raise NewtonDivergence(f"anchor solve stalled at residual {res:.2e}")
    states, stalls = {}, {}
    for targets in ([b for b in reversed(schedule) if b <= anchor],
                    [b for b in schedule if b > anchor]):
        walked, reached = _walk_beta(grid, U, anchor, targets,
                                     tol=config.newton_tol)
        states.update(zip(targets, walked))
        for beta in targets[len(walked):]:
            stalls[beta] = NewtonDivergence(
                f"branch walk stalled near coupling {reached:.4g}"
            )
    # walked states are compressed relative to the segregated guess, so
    # re-locate the bump centers before cutting them into pulses
    reference = [int(np.argmax(p)) for p in guess.pulses]
    records = []
    for beta in schedule:
        try:
            if beta in stalls:
                raise stalls[beta]
            centers = component_centers(
                grid, assignment, states[beta], reference=reference
            )
            records.append(_certify(beta, grid, assignment, states[beta],
                                    centers, config.newton_tol, profile))
        except SolveError as exc:
            warnings.warn(
                f"stage beta={beta:g} failed: {exc}",
                StageFailure,
                stacklevel=2,
            )
    return records
