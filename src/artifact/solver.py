"""Coupled Newton solves and continuation in the coupling strength for
the k-component cubic system.

A continuation run anchors a damped Newton solve at a large coupling,
where the segregated initial guess is nearly exact, and walks the
positive branch once in log-coupling: down through the schedule points
at or below the anchor, then up through those above it.  The anchor is
solved by nested iteration (W. Briggs, V. Henson and S. McCormick, A
Multigrid Tutorial, 2000): on the coarsest halving of the grid that
keeps four nodes per layer scale beta^(-1/4) first, then on each finer
grid from the interpolated coarser state, because damped steps from the
guess move the interface fronts by a fraction of a node each.  The walk
down runs on the anchor's half grid, and each stage it reaches is
polished once on the grid (R. Bank and T. Chan, PLTMGC: a multi-grid
continuation program, 1986); the grid itself is walked from a stage the
half walk misses or whose polish fails, and above the anchor, where the
layers narrow past the half grid's resolution.  Plain
descent from the initial guess at weak coupling falls into the wrong
basin, while the walk follows the branch.  Each walk step predicts by
the cubic Hermite polynomial through the last two accepted states and
their branch tangents (along the tangent alone before there are two)
and corrects with Newton, each factorization serving the full step and
then the simplified-Newton step that measures the contraction; the trial
is rejected as soon as that contraction shows it left the Newton basin
(E. Allgower and K. Georg, Numerical Continuation Methods, 1990;
P. Deuflhard, Newton Methods for Nonlinear Problems, 2004).  A stage is
its walked state, already converged by that corrector: one positivity
step, a cut into pulses, and one scaling maximization that certifies it.
The paper's descent of the maximized scaling energy, `minimize_m_beta`,
is a standalone tool that no stage calls.
"""
from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .assignment import Assignment
from .errors import (
    ConfigError,
    MaximizerFailure,
    NewtonDivergence,
    SolveError,
    StageFailure,
)
from .grid import (
    RadialGrid,
    _check_finite,
    _check_info,
    accepts,
    apply_tridiag,
    build_grid,
    converged,
    dgbtrf,
    dgbtrs,
    h1_norm_sq,
    newton,
    normal_power,
    solve_tridiag,
)
from .nehari import (
    MaximizerReport,
    PulseEnsemble,
    coupled_energy,
    maximize_phi,
    overlap_matrix,
)
from .scalar import NodalProfile

LAMBDA_UNIT_TOL = 1e-6
# coupling of the anchor solve, where the segregated guess is nearly exact
ANCHOR_BETA = 1e4
# nodes per layer scale beta^(-1/4) that the coarsest anchor level keeps
ANCHOR_LAYER_NODES = 4
# residual under which every coupled Newton row is converged (rows whose
# terms are large converge at their roundoff instead, see grid.converged)
NEWTON_TOL = 1e-10
# damped steps of one coupled Newton solve
NEWTON_MAXIT = 120
# max-norm residual under which a stage's state is accepted
ACCEPT_RESIDUAL = 1e-8


@dataclass
class SolverConfig:
    """The coupling schedule of a continuation run: positive, finite and
    strictly increasing.  The solver's tolerances are module constants."""

    beta_schedule: tuple = (1.0, 10.0, 100.0, 1000.0, 10000.0)

    def __post_init__(self) -> None:
        # float() would also take "10" or True
        if not all(isinstance(b, numbers.Real) and not isinstance(b, bool)
                   for b in self.beta_schedule):
            raise ConfigError("beta_schedule entries must be numbers, "
                              f"got {list(self.beta_schedule)}")
        sched = tuple(float(b) for b in self.beta_schedule)
        if len(sched) == 0:
            raise ConfigError("beta_schedule must be nonempty")
        if not all(0 < b < np.inf for b in sched):
            raise ConfigError("beta_schedule entries must be positive and finite")
        if any(b2 <= b1 for b1, b2 in zip(sched, sched[1:])):
            raise ConfigError("beta_schedule must be strictly increasing")
        self.beta_schedule = sched


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

    Each T_i is summed from zero in ascending j, one whole-array add per
    j, rather than as S - U_i^2 with S = sum_j U_j^2: the shortcut
    cancels where U_i dominates.  On the reference sweep's anchor state
    at beta = 1e7 it moves the residual by 1.3e-9, 13 times NEWTON_TOL.
    """
    sq = U**2
    k = len(sq)
    T = np.zeros_like(sq)
    for j in range(k):
        np.add(T, sq[j], out=T, where=(np.arange(k) != j)[:, None])
    return T


def residual_components(grid: RadialGrid, beta: float, U: np.ndarray) -> np.ndarray:
    """Discrete residual of each component equation; identity row at r_max."""
    R = (apply_tridiag(grid.op_lower, grid.op_diag, grid.op_upper, U)
         - normal_power(U, 3) + beta * U * _cross_sq(U))
    R[:, -1] = U[:, -1]
    return R


def component_centers(grid: RadialGrid, assignment: Assignment, U: np.ndarray,
                      reference):
    """Per-pulse center indices read off the current component fields.

    For each component the tallest local maxima (the origin counts as
    one) are matched to its pulses in radial order.  Components showing
    fewer maxima than pulses keep the reference centers, so a dissolving
    state degrades instead of producing sliver cuts.
    """
    centers = list(reference)
    for i in range(1, assignment.k + 1):
        qs = [q for q in range(assignment.h) if assignment.sigma[q] == i]
        u = U[i - 1]
        peak = float(u.max())
        # local maxima j < n - 1: above the left neighbour (the origin
        # has none), at least the right one, and above 1e-3 of the peak
        left = np.concatenate(([-np.inf], u[:-2]))
        mid = u[:-1]
        cand = np.flatnonzero((mid > left) & (mid >= u[1:]) & (mid > 1e-3 * peak))
        cand = sorted(sorted(cand.tolist(), key=lambda j: u[j])[-len(qs):])
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
    Jacobian has k sub- and k super-diagonals.  Its bands are filled into
    an (n, k, 3k + 1) array whose transposed reshape is LAPACK's
    Fortran-ordered band storage, so ``gbtrf`` factors it in place with
    no copy; each solve is one ``gbtrs``, in place on the node-major copy
    of F, through ``scipy.linalg.lapack``'s wrappers (see
    `grid._load_scipy`).  These are the eliminations of LAPACK ``gbsv``,
    which ``solve_banded((k, k), ...)`` calls for k >= 2, so solutions
    equal its bit for bit.  A non-finite band entry, such as the square of
    a huge U, raises ValueError.
    """
    k, n = U.shape
    sq = U**2
    diag = grid.op_diag - 3 * sq + beta * _cross_sq(U)
    diag[:, -1] = 1.0  # identity row at r_max, whose op_lower entry is 0
    # band storage with k rows for fill-in on top: entry (p, q) sits in
    # row 2k + p - q, column q = k * node + component; row is the last axis
    band = np.zeros((n, k, 3 * k + 1))
    band[:, :, 2 * k] = diag.T
    band[1:, :, k] = grid.op_upper[:, None]
    band[:-1, :, 3 * k] = grid.op_lower[:, None]
    C = 2 * beta * U[:, None, :] * U[None, :, :]  # dF_i/dU_j at each node
    C[:, :, -1] = 0.0
    for i in range(k):
        for j in range(k):
            if j != i:
                band[:, j, 2 * k + i - j] = C[i, j]
    ab = band.reshape(n * k, 3 * k + 1).T
    _check_finite(ab)
    lu, piv, info = dgbtrf(ab, k, k, overwrite_ab=1)
    _check_info(info)

    def solve(F):
        # flatten always copies, so gbtrs may overwrite its argument
        x, _ = dgbtrs(lu, k, k, F.T.flatten(), piv, overwrite_b=1)
        return x.reshape(n, k).T

    return solve


def _row_terms(grid: RadialGrid, beta: float):
    """Row terms of `residual_components` for `grid.converged`:
    |di U_i| + |U_i|^3 + beta |U_i| T_i, and the cheap bound
    max|di| m + (1 + beta (k - 1)) m^3 of their largest, m = max|U|."""
    dmax = float(np.max(np.abs(grid.op_diag)))

    def rows(U):
        m = float(np.max(np.abs(U)))
        return (dmax * m + (1.0 + beta * (len(U) - 1)) * m**3,
                lambda: np.abs(grid.op_diag * U) + normal_power(np.abs(U), 3)
                + beta * np.abs(U) * _cross_sq(U))

    return rows


def coupled_newton(grid: RadialGrid, beta: float, U: np.ndarray,
                   tol: float = NEWTON_TOL):
    """Damped banded Newton on the k-field system; returns (U, resid, iters)
    with resid the max-norm residual.

    `grid.newton` on `residual_components`, each step solved with
    `_jacobian_solver`, from a copy of U, for at most NEWTON_MAXIT steps;
    a row is converged under tol or the roundoff of its terms
    (`_row_terms`).  It serves the anchor solve of `continuation` and
    `newton_refine`, whose starting states lie outside the full-step
    Newton basin; the beta-walk uses its own corrector, `_correct`.
    """
    U, resid, iters, _ = newton(lambda V: residual_components(grid, beta, V),
                                lambda V: _jacobian_solver(grid, beta, V),
                                U.copy(), tol, NEWTON_MAXIT,
                                _row_terms(grid, beta))
    return U, resid, iters


def minimize_m_beta(beta: float, start: PulseEnsemble,
                    trace: Optional[list] = None) -> PulseEnsemble:
    """Descend the maximized scaling energy in the pulses.

    The descent direction is the preconditioned residual of the scaled
    components, weighted per pulse by its scaling (the scaling maximizer
    is critical, so no scaling derivative enters); Armijo backtracking
    with positivity clipping, re-maximization each accepted step.  It
    stops after 150 steps, at a gradient norm under 1e-7, or when
    backtracking finds no decrease; `trace` collects the energy of the
    start and of every accepted step.
    No continuation stage calls it: a walked stage state is already
    Newton-converged, and the descent takes no step from it.
    """
    grid = start.grid
    assignment = start.assignment
    h, k = assignment.h, assignment.k
    w = grid.quad_weights
    P = start.pulses.copy()
    report = maximize_phi(beta, start)
    lam = report.lambda_bar.copy()
    centers = [int(np.argmax(P[q])) for q in range(h)]
    ens = PulseEnsemble(grid, assignment, P)
    U = ens.components(lam)
    M = coupled_energy(grid, beta, U)
    if trace is not None:
        trace.append(M)
    for _ in range(150):
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
        if gn < 1e-7:
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
                U, P, lam, M = Un, Pn, rep_n.lambda_bar.copy(), Mn
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
        rhs = normal_power(U[i], 3)
        rhs[-1] = 0.0
        V[i] = solve_tridiag(grid.op_lower, diag, grid.op_upper, rhs)
    return V


def _certify(beta: float, grid: RadialGrid, assignment: Assignment,
             U: np.ndarray, centers,
             target: Optional[NodalProfile]) -> SolutionRecord:
    """The record of a Newton-converged state U: its pulses, cut at the
    given centers, and the scaling maximum that certifies them.  It is
    accepted when its residual lies under ACCEPT_RESIDUAL and its
    scalings are 1 within LAMBDA_UNIT_TOL.

    Between a component's pulses at strong coupling the true values
    (1e-100 and below) lie far under NEWTON_TOL, so U can be
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
    lam_bar = rep.lambda_bar
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
        overlaps=overlap_matrix(grid, U),
        in_nehari=in_nehari,
        accepted=bool(resid < ACCEPT_RESIDUAL) and in_nehari,
        maximizer=rep,
    )


def newton_refine(beta: float, ensemble: PulseEnsemble,
                  target: Optional[NodalProfile] = None) -> SolutionRecord:
    """Solve the coupled system by damped Newton from the scaled ensemble
    and certify the result (see `_certify`), cutting it at the pulse
    maxima of the ensemble.  `artifact solve` uses it at zero coupling,
    where no branch is walked.
    """
    grid = ensemble.grid
    assignment = ensemble.assignment
    report = maximize_phi(beta, ensemble)
    U0 = ensemble.components(report.lambda_bar)
    U, resid, _ = coupled_newton(grid, beta, U0)
    if resid > ACCEPT_RESIDUAL:
        raise NewtonDivergence(f"coupled solve stalled at residual {resid:.2e}")
    centers = [int(np.argmax(ensemble.pulses[q])) for q in range(assignment.h)]
    return _certify(beta, grid, assignment, U, centers, target)


def _tangent(grid: RadialGrid, beta: float, U: np.ndarray,
             solve=None) -> np.ndarray:
    """Branch tangent dU/dlog10(beta) = -J^{-1} dF/dlog10(beta) at a
    converged state: one solve, on the factors `solve` brings or after
    one factorization at U.  The walk passes the factors of its
    corrector's last factorization, taken up to two Newton steps before
    U, so the tangent errs by the order of those steps, which the
    corrector removes: refining it with a second solve saved no time.
    """
    dF = np.log(10.0) * beta * U * _cross_sq(U)
    dF[:, -1] = 0.0
    if solve is None:
        solve = _jacobian_solver(grid, beta, U)
    return solve(-dF)


def _correct(grid: RadialGrid, beta: float, U: np.ndarray):
    """Newton from a predicted state, two steps per factorization; (the
    converged state, the solve of its last factorization), or None once
    the trial is judged outside the Newton basin.

    Each factorization takes the full Newton step dU.  One more solve
    with the same factors gives the simplified-Newton correction dV at
    U + dU, and its ratio to dU in the max norm is the contraction Theta
    (Deuflhard).  Theta >= 1/2 rejects the trial at once, so a too-long
    continuation step costs one factorization; otherwise dV is taken as
    a second step (Shamanskii's method), and the next factorization is
    at U + dU + dV.  On the benchmark sweeps accepted trials take 3 to 7
    steps on 2 to 4 factorizations, and 20 bounds a slow contraction.
    A state is converged under the stopping rule of `coupled_newton`,
    `grid.converged` under NEWTON_TOL on the row terms of one
    `_row_terms`, checked after every step; a stall is no verdict here
    (`grid.accepts`), as the walk retries it with a shorter step.  The
    returned solve holds the Jacobian factors one or two steps before the
    state, for `_tangent`; it is None when the prediction was converged
    already.  Each factorization's solve is dropped before the next one
    is made, so one set of factors is alive at a time.
    """
    rows = _row_terms(grid, beta)

    def residual(V):
        F = residual_components(grid, beta, V)
        return F, converged(F, float(np.max(np.abs(F))), NEWTON_TOL, rows, V)

    F, done = residual(U)
    solve = None
    for _ in range(20):
        if done:
            return U, solve
        solve = None  # free the last factors before the next are made
        solve = _jacobian_solver(grid, beta, U)
        dU = solve(-F)
        U = U + dU
        F, done = residual(U)
        if not done:
            dV = solve(-F)
            if not np.max(np.abs(dV)) < 0.5 * np.max(np.abs(dU)):
                return None
            U = U + dV
            F, done = residual(U)
    return (U, solve) if done else None


def _predictor(pos: float, U: np.ndarray, tangent: np.ndarray, previous):
    """The walk's guess at log-coupling pos + s, as a function of s.

    With `previous` = (pos', U', tangent'), the accepted point before
    (pos, U), it is the cubic Hermite polynomial through both points and
    their tangents: U + s T + s^2 a + s^3 b with h = pos' - pos,
    r1 = U' - U - h T, b = (h (T' - T) - 2 r1) / h^3 and
    a = (r1 - b h^3) / h^2.  Its error is of order s^2 (s - h)^2, so
    O(s^4) for steps of the size of the last one, where the tangent line
    U + s T, the guess without a previous point, errs by O(s^2).
    """
    if previous is None:
        return lambda s: U + s * tangent
    h = previous[0] - pos
    r1 = previous[1] - U - h * tangent
    b = (h * (previous[2] - tangent) - 2.0 * r1) / h**3
    a = (r1 - b * h**3) / h**2
    return lambda s: U + s * (tangent + s * (a + s * b))


def _walk(grid: RadialGrid, U, b_from: float, targets):
    """Walk the branch from a converged state at b_from through targets.

    The targets are couplings in walking order, all on one side of
    b_from.  Each trial predicts with `_predictor` and corrects with
    `_correct`.  Trials from b_from predict along its tangent; once a
    trial is accepted, trials predict by the cubic Hermite polynomial
    through the last two accepted states and their tangents, which costs
    no solve.  A continuation over the 13-stage benchmark sweep, anchor
    included, takes 119 factorizations, where the tangent predictor took
    242 and one corrector step per factorization 149; the reference
    sweep's takes 14 on its grid and 91 on the half grid that its walk
    down runs on (see `continuation`).  The log-coupling step grows by
    1.7 after an accepted trial and shrinks by 0.35 after a rejected
    one, and every segment between targets starts at 0.25 decade or
    less.  The tangent at an accepted state is taken at once, on the
    factors the corrector returned with it, and then those factors are
    dropped: the walk holds none between trials or while it waits at a
    yield, as when `_walk_polished` polishes the stage on the grid.  Only
    the tangent at b_from costs a factorization of its own, and the one
    at a leg's last target is a solve that no trial uses.  Yields the
    converged state at each target reached, in order; when the step
    falls under 1e-4 decade or after 400 trials (corrector calls) the
    walk stops short and raises NewtonDivergence naming the coupling it
    reached.
    """
    pos = np.log10(b_from)
    tangent = None
    trials = 0
    for b_to in targets:
        lt = np.log10(b_to)
        step = float(np.clip(lt - pos, -0.25, 0.25))
        while pos != lt:
            if tangent is None:
                tangent = _tangent(grid, 10.0**pos, U)
                predict = _predictor(pos, U, tangent, None)
            trial = pos + step if abs(step) < abs(lt - pos) else lt
            beta = b_to if trial == lt else 10.0**trial
            corrected = _correct(grid, beta, predict(trial - pos))
            trials += 1
            if corrected is not None:
                previous = (pos, U, tangent)
                (U, factors), pos = corrected, trial
                tangent = _tangent(grid, 10.0**pos, U, factors)
                # free those factors before anything makes its own
                factors = corrected = None
                predict = _predictor(pos, U, tangent, previous)
                step *= 1.7
            else:
                step *= 0.35
                if abs(step) < 1e-4 or trials >= 400:
                    raise NewtonDivergence(
                        f"branch walk stalled near coupling {10.0**pos:.4g}")
        yield U


def _walk_polished(grid: RadialGrid, U, b_from: float, targets, coarse):
    """`_walk` on grid, walked on coarse = (level, the state at b_from
    there) unless it is None: each target `_walk` reaches on level is
    interpolated onto grid and polished by one `_correct` before the
    walk goes on; a target at b_from keeps U.  From the first target the
    level's walk stalls before or whose polish is rejected, grid is
    walked from its last state, and only a stall of that walk raises."""
    done = 0
    if coarse is not None:
        level, V = coarse
        try:
            for beta, W in zip(targets, _walk(level, V, b_from, targets)):
                if beta != b_from:
                    polished = _correct(grid, beta, _prolong(grid, level, W))
                    if polished is None:
                        break
                    # drop the polish's factors before the next one is made
                    U, b_from, polished = polished[0], beta, None
                yield U
                done += 1
        except NewtonDivergence:
            pass
    yield from _walk(grid, U, b_from, targets[done:])


def _prolong(grid: RadialGrid, level: RadialGrid, V: np.ndarray) -> np.ndarray:
    """The components of V on level, interpolated linearly onto grid."""
    return np.array([np.interp(grid.nodes, level.nodes, v) for v in V])


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

    The anchor is solved on levels, coarsest first: the grid, halved to
    (n - 1) // 2 + 1 nodes on the same r_max as long as the spacing stays
    at most anchor^(-1/4) / ANCHOR_LAYER_NODES, so that the coarsest
    level still has four nodes per width of the layers where pulses of
    different components meet.  Damped Newton from the guess K moves the
    tail fronts at those layers by about half a node per step, so its
    step count grows with n: on the reference sweep's (2, 4097, 40) it
    takes 64 steps, and levels of 2049 and 4097 nodes 39 + 5.  The coarsest
    level starts from K interpolated onto it, each finer level from the
    converged coarser state, interpolated linearly (exact on the nodes
    the two grids share), or from K again when the coarser level did not
    converge, which costs time but never the answer.  A level is judged by
    `grid.accepts` on its row terms (`_row_terms`), the rule of the
    profile polishes, which takes a stall under the normwise roundoff:
    on (2, 16385, 30) the finest level stops at 6.2e-10 against a bound
    of 5.0e-9.  Only the finest level's verdict decides.

    When the level that halves the grid converged, the walk down runs on
    it, and each stage it reaches is polished on the grid by one
    `_correct` (`_walk_polished`), whose factorization costs about two
    of the half grid's: the reference sweep takes 14 factorizations on
    its grid and 91 on the half grid, where walking the grid took 57 and
    39, and its stages agree within 2.6e-16 relative in energy.  From a
    stage the half walk misses, as beyond a fold of its branch, or whose
    polish is rejected, the grid is walked as before.  The walk up stays
    on the grid: its layers narrow below the half grid's four nodes.

    A failed stage is reported as a `StageFailure` warning naming its
    cause and is absent from the records; the other stages are
    unaffected.  Each leg's stages beyond a walk stall fail with the
    NewtonDivergence the stalled walk raised.  An anchor whose finest
    level does not converge raises NewtonDivergence.  It does so on the
    line with h >= 2, e.g. (N, n, r_max) = (1, 513, 30) with h = 3: there
    the anchor stalls for real, at a residual of about 2.5e-4.  Energy
    conservation on the line forbids a decaying sign-changing solution,
    so those bumps exist only through the Dirichlet condition at r_max,
    outside the paper's R^N.
    """
    grid = profile.grid
    guess = initial_guess(profile, assignment)
    schedule = config.beta_schedule
    anchor = max(ANCHOR_BETA, schedule[0])
    K = guess.components()
    spacing = anchor**-0.25 / ANCHOR_LAYER_NODES
    levels, m = [grid], (grid.n_points - 1) // 2 + 1
    while m >= 16 and grid.r_max / (m - 1) <= spacing:
        levels.insert(0, build_grid(grid.dimension, m, grid.r_max))
        m = (m - 1) // 2 + 1
    source, start = grid, K
    for level in levels:
        # after the loop: the converged half-grid level and state, or None
        half = (source, start) if source is not grid else None
        if level is not source:
            start = _prolong(level, source, start)
        U, res, _ = coupled_newton(level, anchor, start)
        ok = accepts(res, NEWTON_TOL, _row_terms(level, anchor), U)
        source, start = (level, U) if ok else (grid, K)
    if not ok:
        raise NewtonDivergence(f"anchor solve stalled at residual {res:.2e}")
    states, stalls = {}, {}
    for targets, coarse in (([b for b in reversed(schedule) if b <= anchor],
                             half),
                            ([b for b in schedule if b > anchor], None)):
        try:
            for beta, V in zip(targets,
                               _walk_polished(grid, U, anchor, targets, coarse)):
                states[beta] = V
        except NewtonDivergence as exc:
            stalls.update((b, exc) for b in targets if b not in states)
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
                                    centers, profile))
        except SolveError as exc:
            warnings.warn(
                f"stage beta={beta:g} failed: {exc}",
                StageFailure,
                stacklevel=2,
            )
    return records
