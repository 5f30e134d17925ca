"""Coupled solver: descent of the maximized scaling energy, banded Newton,
pulse re-extraction, and the staged continuation driver."""
import sys

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgbsv

import artifact as af
from artifact.grid import apply_tridiag, h1_norm_sq, solve_tridiag
from artifact.nehari import _poly, _tensors


def scaling_hessian_top(rec):
    """Top eigenvalue of the scaling Hessian at a record's lambda_bar."""
    H = _poly(*_tensors(rec.beta, rec.ensemble), rec.lambda_bar)[2]
    return np.linalg.eigvalsh(H).max()


@pytest.mark.parametrize("kw", [
    {"beta_schedule": ()},
    {"beta_schedule": (0.0, 1.0)},
    {"beta_schedule": (-1.0,)},
    {"beta_schedule": (1.0, 1.0)},
    {"beta_schedule": (10.0, 1.0)},
    {"beta_schedule": (np.nan,)},
    {"beta_schedule": (1.0, np.inf)},
    {"beta_schedule": (10.0, np.nan, 100.0)},
    # a boolean, as JSON true, used to run as beta = 1
    {"beta_schedule": (True,)},
    {"beta_schedule": (True, 10.0)},
    {"beta_schedule": (0.5, True)},
    # strings ran as their float values
    {"beta_schedule": ("10", "1e2")},
    {"beta_schedule": (np.True_,)},
])
def test_solver_config_rejects(kw):
    with pytest.raises(af.ConfigError):
        af.SolverConfig(**kw)


def test_solver_config_takes_numpy_numbers():
    cfg = af.SolverConfig(beta_schedule=(np.float64(1.0), 10, np.int64(100)))
    assert cfg.beta_schedule == (1.0, 10.0, 100.0)
    assert all(type(b) is float for b in cfg.beta_schedule)


def test_initial_guess_sits_on_reference(guess_h2, profile_h2):
    assert af.pulse_distance(guess_h2, profile_h2) == 0.0


def test_initial_guess_bump_count_mismatch(profile_h2):
    with pytest.raises(af.ConfigError):
        af.initial_guess(profile_h2, af.build_assignment((1, 2, 1)))


def test_initial_guess_component_fields():
    # synthetic five-bump reference: the pulse-to-component map follows
    # the assignment, bumps keep their radial order
    g = af.build_grid(2, 257, 30.0)
    r = g.nodes
    bumps = [np.exp(-((r - c) ** 2)) for c in (3.0, 8.0, 13.0, 18.0, 23.0)]
    prof = af.NodalProfile(
        grid=g, h=5, bumps=bumps, node_radii=(5.5, 10.5, 15.5, 20.5),
        energies=[1.0] * 5, c_value=5.0,
    )
    guess = af.initial_guess(prof, af.build_assignment((1, 2, 1, 3, 2)))
    U = guess.components()
    assert np.array_equal(U[0], bumps[0] + bumps[2])
    assert np.array_equal(U[1], bumps[1] + bumps[4])
    assert np.array_equal(U[2], bumps[3])


def test_split_components_partitions_positive_part(rng):
    g = af.build_grid(2, 513, 30.0)
    r = g.nodes
    asg = af.build_assignment((1, 2, 1))
    U = np.array([
        np.exp(-((r - 5.0) ** 2)) + np.exp(-((r - 15.0) ** 2)) - 1e-3,
        np.exp(-((r - 10.0) ** 2)) - 1e-4,
    ])
    centers = [int(np.argmin(np.abs(r - c))) for c in (5.0, 10.0, 15.0)]
    P = af.split_components(g, asg, U, centers)
    assert P.shape == (3, g.n_points)
    assert np.all(P >= 0)
    # same-component pulses reassemble the positive part exactly
    assert np.array_equal(P[0] + P[2], np.maximum(U[0], 0.0))
    assert np.array_equal(P[1], np.maximum(U[1], 0.0))
    # the cut separates the two bumps of component 1
    assert np.argmax(P[0]) < np.argmax(P[2])
    assert P[0][np.argmax(P[2])] == 0.0


def test_split_components_cuts_adjacent_centers_after_the_first():
    # two pulses of one component centred on neighbouring nodes leave no
    # interior node for a minimum: the cut falls right after the first
    g = af.build_grid(2, 65, 10.0)
    asg = af.build_assignment((1, 2, 1))
    U = np.array([np.linspace(1.0, 2.0, g.n_points),
                  np.linspace(3.0, 4.0, g.n_points)])
    P = af.split_components(g, asg, U, [20, 40, 21])
    assert np.array_equal(P[0][:21], U[0][:21]) and not P[0][21:].any()
    assert np.array_equal(P[2][21:], U[0][21:]) and not P[2][:21].any()
    assert np.array_equal(P[1], U[1])


def test_component_centers_keep_the_reference_of_a_nonpositive_component():
    # a component with no positive value shows no maxima to match, so its
    # pulses keep their reference centers while the others move
    g = af.build_grid(2, 257, 30.0)
    r = g.nodes
    asg = af.build_assignment((1, 2, 1))
    U = np.array([np.exp(-((r - 5.0) ** 2)) + np.exp(-((r - 15.0) ** 2)),
                  -np.exp(-((r - 10.0) ** 2))])
    centers = af.solver.component_centers(g, asg, U, [1, 2, 3])
    assert centers == [int(np.argmax(U[0][:100])), 2,
                       100 + int(np.argmax(U[0][100:]))]
    assert af.solver.component_centers(g, asg, np.zeros_like(U), [1, 2, 3]) == [1, 2, 3]


def _centers_loop(assignment, U, reference):
    # the node-by-node scan component_centers used before numpy
    centers = list(reference)
    for i in range(1, assignment.k + 1):
        qs = [q for q in range(assignment.h) if assignment.sigma[q] == i]
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


def test_component_centers_match_the_node_scan(guess_h2, rng):
    # plateaus, ties and maxima at the origin and next to r_max, on small
    # integer fields, and a state with smooth bumps
    a = af.build_assignment((1, 2, 1, 3, 2))
    g = af.build_grid(2, 64, 10.0)
    for _ in range(300):
        U = rng.integers(0, 4, size=(3, g.n_points)).astype(float)
        ref = [int(c) for c in rng.integers(0, g.n_points, size=5)]
        assert af.solver.component_centers(g, a, U, ref) == _centers_loop(a, U, ref)
    U = guess_h2.components()
    a2 = guess_h2.assignment
    assert (af.solver.component_centers(guess_h2.grid, a2, U, [0, 0])
            == _centers_loop(a2, U, [0, 0]))


def _newton_history(grid, beta, U0, monkeypatch):
    """coupled_newton from U0 and the max-norm residual of its start and
    of every accepted step: those at which it factors the Jacobian, then
    the one it returns."""
    real = af.solver._jacobian_solver
    hist = []

    def spy(grid, beta, U):
        hist.append(float(np.max(np.abs(af.residual_components(grid, beta, U)))))
        return real(grid, beta, U)

    monkeypatch.setattr(af.solver, "_jacobian_solver", spy)
    U, resid, iters = af.coupled_newton(grid, beta, U0)
    return U, resid, iters, hist + [resid]


def test_newton_from_perturbed_single_field(grid_n1, soliton_profile, monkeypatch):
    U0 = 1.05 * np.array([soliton_profile.bumps[0]], dtype=float)
    U, resid, iters, hist = _newton_history(grid_n1, 0.0, U0, monkeypatch)
    assert resid < 1e-10
    assert iters <= 8
    assert len(hist) == iters + 1
    assert hist[0] > 1e-2 > hist[-1]


def test_newton_quadratic_tail(grid_n1, soliton_profile, monkeypatch):
    U0 = 1.10 * np.array([soliton_profile.bumps[0]], dtype=float)
    *_, hist = _newton_history(grid_n1, 0.0, U0, monkeypatch)
    pairs = [
        (a, b) for a, b in zip(hist, hist[1:]) if 1e-8 < a < 1e-2
    ]
    assert pairs, "no residual pair landed in the quadratic window"
    for a, b in pairs:
        assert b <= 50.0 * a * a


def test_residual_localizes_at_interfaces(guess_h2, profile_h2):
    g = guess_h2.grid
    U = guess_h2.components()
    R = af.residual_components(g, 1000.0, U)
    rho = profile_h2.node_radii[0]
    far = np.abs(g.nodes - rho) > 2.0
    near = ~far
    assert np.max(np.abs(R[:, far])) < 1e-6
    assert np.max(np.abs(R[:, near])) > 1.0


def test_minimize_zero_step_at_huge_coupling(guess_h2, profile_h2):
    tr = []
    out = af.minimize_m_beta(1e10, guess_h2, trace=tr)
    assert np.array_equal(out.pulses, guess_h2.pulses)
    assert len(tr) == 1
    rep = af.maximize_phi(1e10, out)
    assert abs(rep.m_value - profile_h2.c_value) < 1e-8


def test_minimize_descends_at_moderate_coupling(guess_h2, profile_h2):
    tr = []
    out = af.minimize_m_beta(100.0, guess_h2, trace=tr)
    assert len(tr) >= 2
    assert np.all(np.diff(tr) < 0)
    rep = af.maximize_phi(100.0, out)
    assert rep.m_value <= profile_h2.c_value + 1e-6
    assert rep.m_value == pytest.approx(tr[-1], rel=1e-9)
    assert af.pulse_distance(out, profile_h2) > 0


def test_minimize_propagates_start_failure():
    g = af.build_grid(2, 257, 20.0)
    r = g.nodes
    p = np.exp(-((r - 6.0) ** 2))
    ens = af.PulseEnsemble(g, af.build_assignment((1, 2)), np.array([p, p]))
    with pytest.raises(af.MaximizerFailure):
        af.minimize_m_beta(50.0, ens)


def test_newton_refine_from_reference(guess_h2, profile_h2):
    rec = af.newton_refine(1000.0, guess_h2, target=profile_h2)
    assert rec.residual < 1e-8
    assert rec.in_nehari
    assert scaling_hessian_top(rec) < 0
    assert rec.accepted
    assert rec.energy <= profile_h2.c_value
    assert np.isfinite(rec.d_to_K)
    assert np.max(np.abs(rec.lambda_bar - 1.0)) < 1e-6
    d = rec.to_dict()
    assert set(d) == {
        "beta", "lambda_bar", "energy", "residual", "d_to_K",
        "overlaps", "in_nehari", "accepted",
    }


def _support_has_no_interior_zero(p):
    idx = np.flatnonzero(p > 1e-8 * p.max())
    return bool(np.all(p[idx[0] : idx[-1] + 1] > 0))


def test_newton_refine_restores_positivity_between_pulses():
    # at strong coupling the values between a component's two pulses lie
    # far below the Newton tolerance; a state whose gap was clipped to
    # zero must come back strictly positive on the component's span
    g = af.build_grid(2, 1025, 30.0)
    prof = af.find_nodal_solution(g, 3)
    asg = af.build_assignment((1, 2, 1))
    rec = af.newton_refine(1e4, af.initial_guess(prof, asg))
    P = rec.ensemble.pulses.copy()
    P[P < 1e-30] = 0.0
    clipped = af.PulseEnsemble(g, asg, P)
    u = clipped.components(rec.lambda_bar)[0]
    idx = np.flatnonzero(u > 1e-8 * u.max())
    assert np.count_nonzero(u[idx[0] : idx[-1] + 1] == 0.0) > 0
    rec = af.newton_refine(1e4, clipped)
    assert rec.accepted
    U = rec.ensemble.components(rec.lambda_bar)
    assert np.all(U >= 0.0)
    for u in U:
        assert _support_has_no_interior_zero(u)


def test_continuation_three_stages(profile_h2, assignment_h2):
    cfg = af.SolverConfig(beta_schedule=(1.0, 10.0, 100.0))
    recs = af.continuation(profile_h2, assignment_h2, cfg)
    assert [r.beta for r in recs] == [1.0, 10.0, 100.0]
    for r in recs:
        assert r.accepted and r.in_nehari
        assert scaling_hessian_top(r) < 0
        assert r.residual < 1e-8
        assert np.all(r.ensemble.pulses >= 0)
        for q in range(r.ensemble.assignment.h):
            assert _support_has_no_interior_zero(r.ensemble.pulses[q])
    energies = [r.energy for r in recs]
    assert np.all(np.diff(energies) > 0)
    assert energies[-1] <= profile_h2.c_value + 1e-6
    dists = [r.d_to_K for r in recs]
    assert np.all(np.isfinite(dists))
    assert np.all(np.diff(dists) < 0)

def test_continuation_records_stage_failure(profile_h2, assignment_h2,
                                            monkeypatch):
    # a failed stage must surface as a warning while the other stages
    # still run, each from its own walked state
    real = af.maximize_phi
    def flaky(beta, ensemble, **kwargs):
        if beta == 10.0:
            raise af.NonConvergence("forced stage failure")
        return real(beta, ensemble, **kwargs)
    monkeypatch.setattr("artifact.solver.maximize_phi", flaky)
    cfg = af.SolverConfig(beta_schedule=(1.0, 10.0, 100.0))
    with pytest.warns(af.StageFailure, match="beta=10"):
        recs = af.continuation(profile_h2, assignment_h2, cfg)
    assert [r.beta for r in recs] == [1.0, 100.0]
    assert all(r.accepted for r in recs)


def test_continuation_makes_one_newton_call_of_its_own(profile_h2, assignment_h2,
                                                       monkeypatch):
    # the anchor is the only damped Newton solve of the driver and the
    # walk runs on its own corrector; a stage is its walked state,
    # certified by one scaling maximization, without a descent
    real_newton, real_maximize = af.coupled_newton, af.maximize_phi
    callers, maximized = [], []
    def spy(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return real_newton(*args, **kwargs)
    def count_maximize(beta, ensemble, **kwargs):
        maximized.append(beta)
        return real_maximize(beta, ensemble, **kwargs)
    def no_descent(*args, **kwargs):
        raise AssertionError("a continuation stage ran the descent")
    monkeypatch.setattr("artifact.solver.coupled_newton", spy)
    monkeypatch.setattr("artifact.solver.maximize_phi", count_maximize)
    monkeypatch.setattr("artifact.solver.minimize_m_beta", no_descent)
    cfg = af.SolverConfig(beta_schedule=(1.0, 10.0, 100.0))
    recs = af.continuation(profile_h2, assignment_h2, cfg)
    assert len(recs) == 3
    assert callers == ["continuation"]
    assert sorted(maximized) == [1.0, 10.0, 100.0]


def test_walk_stall_fails_only_the_stages_beyond_it(profile_h2, assignment_h2,
                                                    monkeypatch):
    real = af.solver._correct
    def reject_weak(grid, beta, U):
        return None if beta < 50.0 else real(grid, beta, U)
    monkeypatch.setattr("artifact.solver._correct", reject_weak)
    cfg = af.SolverConfig(beta_schedule=(1.0, 10.0, 100.0))
    with pytest.warns(af.StageFailure) as caught:
        recs = af.continuation(profile_h2, assignment_h2, cfg)
    messages = [str(w.message) for w in caught
                if issubclass(w.category, af.StageFailure)]
    assert [m.split(" failed")[0] for m in messages] == [
        "stage beta=1", "stage beta=10"]
    for m in messages:
        assert "branch walk stalled near coupling" in m
        reached = float(m.rsplit(" ", 1)[1])
        assert 50.0 <= reached < 100.0
    assert [r.beta for r in recs] == [100.0]
    assert recs[0].accepted


def test_tangent_predictor_is_first_order(guess_h2):
    g = guess_h2.grid
    beta = 1000.0
    U, res, _ = af.coupled_newton(g, beta, guess_h2.components())
    assert res < 1e-10
    tangent = af.solver._tangent(g, beta, U)
    errors = []
    for step in (-0.2, -0.1):
        pred = U + step * tangent
        V, res, _ = af.coupled_newton(g, beta * 10.0**step, pred)
        assert res < 1e-10
        errors.append(np.max(np.abs(V - pred)))
    assert errors[1] > 1e-8
    assert errors[0] >= 3.0 * errors[1]


def test_hermite_predictor_is_third_order(guess_h2):
    # through converged states at 10^3.1 and 10^3 and their tangents, the
    # cubic Hermite guess errs by O(s^2 (s - h)^2) with h = 0.1: from
    # s = -0.1 to -0.2 its error grows by 9 in theory and 9.1 measured,
    # while the tangent line's O(s^2) error grows by 4.1; measured, the
    # Hermite error is 1.9 % and 0.8 % of the tangent line's
    g = guess_h2.grid
    beta, h = 1000.0, 0.1
    U, res, _ = af.coupled_newton(g, beta, guess_h2.components())
    assert res < 1e-10
    tangent = af.solver._tangent(g, beta, U)
    b_prev = beta * 10.0**h
    U_prev, res, _ = af.coupled_newton(g, b_prev, U + h * tangent)
    assert res < 1e-10
    previous = (np.log10(b_prev), U_prev, af.solver._tangent(g, b_prev, U_prev))
    hermite = af.solver._predictor(np.log10(beta), U, tangent, previous)
    errors = []
    for step in (-0.2, -0.1):
        pred = hermite(step)
        V, res, _ = af.coupled_newton(g, beta * 10.0**step, pred)
        assert res < 1e-10
        errors.append(np.max(np.abs(V - pred)))
        line = np.max(np.abs(V - (U + step * tangent)))
        assert errors[-1] < 0.05 * line
    assert errors[1] > 1e-8
    assert 7.0 <= errors[0] / errors[1] <= 11.0


def _jacobian_bands_loop(grid, beta, U):
    # the band assembly coupled_newton used before the numpy helper, in
    # solve_banded((k, k)) layout
    k, n = U.shape
    ab = np.zeros((2 * k + 1, k * n))
    T = [sum(U[j] ** 2 for j in range(k) if j != i) for i in range(k)]
    for i in range(k):
        rows = i + k * np.arange(n)
        dii = (grid.op_diag - 3 * U[i] ** 2 + beta * T[i]).copy()
        dii[-1] = 1.0
        ab[k, rows] = dii
        ab[0, rows[:-1] + k] = grid.op_upper
        ab[2 * k, rows[1:] - k] = grid.op_lower
        ab[2 * k, rows[-1] - k] = 0.0
        for j in range(k):
            if j == i:
                continue
            vals = (2 * beta * U[i] * U[j]).copy()
            vals[-1] = 0.0
            ab[k + i - j, j + k * np.arange(n)] = vals
    return ab


def _band_lu_solve(k, ab, b):
    """LAPACK gbsv on solve_banded((k, k))-layout bands: the elimination
    solve_banded performs for k >= 2.  For k = 1 it calls the tridiagonal
    gtsv instead, while the coupled Newton factors every k as a band."""
    a2 = np.zeros((3 * k + 1, ab.shape[1]))
    a2[k:] = ab
    *_, x, info = dgbsv(k, k, a2, b)
    assert info == 0
    return x


def _bump_states(grid, k, rng):
    """k noisy Gaussian bumps of random heights and centers."""
    r = grid.nodes
    U = np.array([(1.0 + rng.uniform(0.0, 2.0)) * np.exp(-((r - c) ** 2))
                  for c in rng.uniform(2.0, 12.0, size=k)])
    return U + 1e-3 * rng.standard_normal(U.shape)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_jacobian_solver_matches_solve_banded(k, rng):
    g = af.build_grid(2, 257, 20.0)
    for beta in (0.0, 3.0, 1e4):
        U = _bump_states(g, k, rng)
        ab = _jacobian_bands_loop(g, beta, U)
        solve = af.solver._jacobian_solver(g, beta, U)
        for _ in range(3):
            F = rng.standard_normal(U.shape)
            b = F.T.reshape(-1)
            ref = solve_banded((k, k), ab, b) if k > 1 else _band_lu_solve(k, ab, b)
            assert np.array_equal(solve(F), ref.reshape(g.n_points, k).T)


@pytest.mark.parametrize("dim, n", [(1, 513), (2, 2049), (3, 4097)])
def test_single_field_jacobian_solve_matches_the_tridiagonal_solve(dim, n, rng):
    # one field factors as a band with one sub- and super-diagonal; its
    # solve must agree with the tridiagonal solve of the same bands
    g = af.build_grid(dim, n, 16.0)
    U = 1.05 * af.find_nodal_solution(g, 1).bumps[0][None, :]
    lower = g.op_lower.copy()
    lower[-1] = 0.0
    diag = g.op_diag - 3 * U[0] ** 2
    diag[-1] = 1.0
    F = rng.standard_normal(U.shape)
    x = af.solver._jacobian_solver(g, 0.0, U)(F)[0]
    ref = solve_tridiag(lower, diag, g.op_upper, F[0])
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_jacobian_solver_rejects_an_overflowing_square(k):
    # U is finite but U^2 is not: the assembled band, not only U, must be
    # checked before LAPACK sees it
    g = af.build_grid(2, 65, 10.0)
    U = np.full((k, g.n_points), 1e-3)
    U[0, 5] = 1e160
    with np.errstate(over="ignore"), pytest.raises(ValueError):
        af.solver._jacobian_solver(g, 1.0, U)


def test_walk_tangent_from_the_correctors_factors(guess_h2):
    # the factors of the corrector's last factorization, up to two Newton
    # steps before the converged state, solve for the tangent there to
    # the order of those steps (4.8e-5 and 1.0e-4 relative); one step of
    # refinement with the Jacobian at the state leaves 1.3e-10 and 5.6e-10
    g = guess_h2.grid
    beta = 1000.0
    U, res, _ = af.coupled_newton(g, beta, guess_h2.components())
    tangent = af.solver._tangent(g, beta, U)
    for step in (-0.1, 0.1):
        b2 = beta * 10.0**step
        V, solve = af.solver._correct(g, b2, U + step * tangent)
        assert solve is not None
        reused = af.solver._tangent(g, b2, V, solve)
        fresh = af.solver._tangent(g, b2, V)
        assert np.max(np.abs(reused - fresh)) < 1e-6 * np.max(np.abs(fresh))


def test_accepted_correction_takes_more_steps_than_factorizations(
        guess_h2, monkeypatch):
    # each factorization serves the full Newton step and, when the
    # contraction is under 1/2, the simplified step it solves for that
    # test: measured 4 steps on 2 factorizations at both steps
    g = guess_h2.grid
    beta = 1000.0
    U, _, _ = af.coupled_newton(g, beta, guess_h2.components())
    tangent = af.solver._tangent(g, beta, U)
    real_residual = af.solver.residual_components
    real_factor = af.solver._jacobian_solver
    residuals, factors = [], []

    def residual(*args):
        residuals.append(1)
        return real_residual(*args)

    def factor(*args):
        factors.append(1)
        return real_factor(*args)

    monkeypatch.setattr("artifact.solver.residual_components", residual)
    monkeypatch.setattr("artifact.solver._jacobian_solver", factor)
    for step in (-0.1, 0.1):
        residuals.clear()
        factors.clear()
        assert af.solver._correct(g, beta * 10.0**step,
                                  U + step * tangent) is not None
        # one residual at the prediction, then one after every step
        assert len(residuals) - 1 > len(factors) >= 1


def _banded_product(k, ab, x):
    """The solve_banded((k, k))-layout matrix ab times x."""
    y = np.zeros_like(x)
    for d in range(-k, k + 1):
        # row k - d holds the entries (p, p + d) at column p + d
        if d >= 0:
            y[: len(x) - d] += ab[k - d, d:] * x[d:]
        else:
            y[-d:] += ab[k - d, : len(x) + d] * x[: len(x) + d]
    return y


@pytest.mark.parametrize("k", [1, 2, 3])
def test_jacobian_apply_matches_the_banded_product(k, rng):
    g = af.build_grid(2, 257, 20.0)
    for beta in (0.0, 3.0, 1e4):
        U = _bump_states(g, k, rng)
        ab = _jacobian_bands_loop(g, beta, U)
        X = rng.standard_normal(U.shape)
        ref = _banded_product(k, ab, X.T.reshape(-1)).reshape(g.n_points, k).T
        Y = af.solver._jacobian_apply(g, beta, U, X)
        assert np.max(np.abs(Y - ref)) <= 1e-14 * np.max(np.abs(ref))


def _residual_loop(grid, beta, U):
    # the per-component residual before whole-array evaluation: T_i
    # summed from zero in ascending j
    k = len(U)
    R = np.empty_like(U)
    for i in range(k):
        T = sum((U[j] ** 2 for j in range(k) if j != i), np.zeros_like(U[i]))
        R[i] = (apply_tridiag(grid.op_lower, grid.op_diag, grid.op_upper, U[i])
                - af.grid.normal_power(U[i], 3) + beta * U[i] * T)
        R[i, -1] = U[i, -1]
    return R


@pytest.mark.parametrize("k", [1, 2, 3])
def test_residual_components_equal_the_per_component_loop(k, rng):
    g = af.build_grid(2, 257, 20.0)
    for beta in (0.0, 3.0, 1e4):
        U = _bump_states(g, k, rng)
        assert np.array_equal(af.residual_components(g, beta, U),
                              _residual_loop(g, beta, U))


def test_walked_strong_coupling_residual_equals_the_per_component_loop(
        sweep_dense_profile):
    # the 13-stage sweep's state walked back to beta = 1e4 from 5e3, whose
    # tails fall under 1e-154, where their squares are subnormal
    profile, assignment = sweep_dense_profile
    g = profile.grid
    guess = af.initial_guess(profile, assignment)
    U, _, _ = af.coupled_newton(g, 1e4, guess.components())
    [U], _ = af.solver._walk_beta(g, U, 1e4, [5e3])
    [U], reached = af.solver._walk_beta(g, U, 5e3, [1e4])
    assert reached == 1e4
    assert ((np.abs(U) < 1e-154) & (U != 0.0)).any()
    assert np.array_equal(af.residual_components(g, 1e4, U),
                          _residual_loop(g, 1e4, U))


def test_walk_factors_only_its_first_tangent_outside_the_corrector(
        guess_h2, monkeypatch):
    # every accepted trial hands its last factors to the next tangent, so
    # the walk factors once at its start and otherwise only in `_correct`
    g = guess_h2.grid
    U, _, _ = af.coupled_newton(g, 1000.0, guess_h2.components())
    real_factor, real_correct = af.solver._jacobian_solver, af.solver._correct
    outside, inside = [], []
    in_correct = []

    def factor(*args):
        (inside if in_correct else outside).append(1)
        return real_factor(*args)

    def correct(*args):
        in_correct.append(1)
        try:
            return real_correct(*args)
        finally:
            in_correct.pop()

    monkeypatch.setattr("artifact.solver._jacobian_solver", factor)
    monkeypatch.setattr("artifact.solver._correct", correct)
    states, reached = af.solver._walk_beta(g, U, 1000.0, [100.0, 10.0, 1.0])
    assert len(states) == 3 and reached == 1.0
    assert len(outside) == 1 and len(inside) > 3


@pytest.fixture(scope="module")
def sweep_dense_profile():
    # the grid, profile and assignment of the 13-stage benchmark sweep
    g = af.build_grid(2, 2049, 30.0)
    return af.compute_c_infinity(g, 5), af.build_assignment((1, 2, 1, 3, 2))


def test_sweep_anchor_damping_is_predicted(sweep_dense_profile):
    # the beta = 1e4 anchor of the 13-stage benchmark sweep: 97 damped
    # steps when each step restarted at t = 1, 58 with the predicted t
    profile, assignment = sweep_dense_profile
    g = profile.grid
    guess = af.initial_guess(profile, assignment)
    U, res, steps = af.coupled_newton(g, 1e4, guess.components())
    assert af.solver._converged(g, 1e4, U, af.residual_components(g, 1e4, U))
    assert steps <= 65


def test_sweep_walk_factorizations(sweep_dense_profile, monkeypatch):
    # one continuation over the 13-stage benchmark sweep, anchor included:
    # 242 Jacobian factorizations with the tangent predictor, 149 with the
    # cubic Hermite one, 116 when each factorization serves two corrector
    # steps
    profile, assignment = sweep_dense_profile
    real_factor = af.solver._jacobian_solver
    count = []

    def factor(*args):
        count.append(1)
        return real_factor(*args)

    monkeypatch.setattr("artifact.solver._jacobian_solver", factor)
    cfg = af.SolverConfig(beta_schedule=(1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
                                         200.0, 500.0, 1e3, 2e3, 5e3, 1e4))
    with pytest.warns(af.StageFailure, match="beta=1 failed"):
        recs = af.continuation(profile, assignment, cfg)
    assert [r.beta for r in recs] == list(cfg.beta_schedule[1:])
    assert len(count) <= 125


def test_fine_grid_anchor_accepts_at_the_roundoff_of_its_rows():
    # on (3, 4097, 30) the anchor solve's residual stays at 1.5e-10, above
    # NEWTON_TOL = 1e-10, from roundoff in rows of size ~1/dr^2; judged
    # row by row against that roundoff, every stage is accepted
    g = af.build_grid(3, 4097, 30.0)
    profile = af.compute_c_infinity(g, 3)
    cfg = af.SolverConfig(beta_schedule=(1e3, 1e4, 1e5, 1e6, 1e7))
    recs = af.continuation(profile, af.build_assignment((1, 2, 1)), cfg)
    assert [r.beta for r in recs] == list(cfg.beta_schedule)
    assert all(r.accepted for r in recs)


def test_line_anchor_stall_stays_a_typed_failure():
    # on the line with h >= 2 the anchor stalls for real, far above any
    # row's roundoff; the row rule must not accept it
    g = af.build_grid(1, 513, 30.0)
    profile = af.compute_c_infinity(g, 3)
    cfg = af.SolverConfig(beta_schedule=(1e4,))
    with pytest.raises(af.NewtonDivergence, match="anchor solve stalled") as exc:
        af.continuation(profile, af.build_assignment((1, 2, 1)), cfg)
    assert float(str(exc.value).rsplit(" ", 1)[1]) > 1e-6


def test_strong_coupling_powers_match_pow():
    # the beta = 1e4 anchor state, whose tails fall to 1e-143: some of
    # its cubes and fourth powers are subnormal, which `normal_power`
    # flushes; every caller must still equal its formula with ** exactly
    g = af.build_grid(2, 1025, 30.0)
    guess = af.initial_guess(af.compute_c_infinity(g, 3),
                             af.build_assignment((1, 2, 1)))
    beta = 1e4
    U, _, _ = af.coupled_newton(g, beta, guess.components())
    tiny = np.finfo(float).tiny
    for p in (3, 4):
        assert ((np.abs(U) ** p < tiny) & (U ** p != 0.0)).any()
    T = af.solver._cross_sq(U)

    R = np.empty_like(U)
    V = np.empty_like(U)
    energy = 0.0
    for i in range(len(U)):
        R[i] = (apply_tridiag(g.op_lower, g.op_diag, g.op_upper, U[i])
                - U[i] ** 3 + beta * U[i] * T[i])
        R[i, -1] = U[i, -1]
        diag = g.op_diag + beta * T[i]
        diag[-1] = 1.0
        rhs = U[i] ** 3
        rhs[-1] = 0.0
        V[i] = solve_tridiag(g.op_lower, diag, g.op_upper, rhs)
        energy += (0.5 * h1_norm_sq(g, U[i])
                   - 0.25 * np.dot(g.quad_weights, U[i] ** 4))
    for x in af.nehari.overlap_matrix(g, U)[~np.eye(len(U), dtype=bool)]:
        energy += 0.25 * beta * x
    rows = np.abs(g.op_diag * U) + np.abs(U) ** 3 + beta * np.abs(U) * T

    assert np.array_equal(af.residual_components(g, beta, U), R)
    assert np.array_equal(af.solver._row_terms(g, beta)(U)[1](), rows)
    assert np.array_equal(af.solver._picard_step(g, beta, U), V)
    assert af.coupled_energy(g, beta, U) == energy


@pytest.fixture(scope="module")
def sweep_ref_profile():
    # the grid, profile and assignment of the reference sweep
    g = af.build_grid(2, 4097, 40.0)
    return af.compute_c_infinity(g, 5), af.build_assignment((1, 2, 1, 3, 2))


def _anchor_solves(profile, assignment, monkeypatch):
    """The anchor solves of a beta = 1e4 continuation, coarsest level
    first: (grid, state, max-norm residual) of each."""
    real = af.solver.coupled_newton
    solves = []

    def spy(grid, beta, U, **kwargs):
        out = real(grid, beta, U, **kwargs)
        solves.append((grid, out[0], out[1]))
        return out

    monkeypatch.setattr("artifact.solver.coupled_newton", spy)
    af.continuation(profile, assignment, af.SolverConfig(beta_schedule=(1e4,)))
    monkeypatch.undo()
    return solves


def test_anchor_levels_keep_four_nodes_per_layer_scale(
        sweep_dense_profile, sweep_ref_profile, monkeypatch):
    # the anchor halves the grid while the spacing stays at most
    # 1e4^(-1/4) / 4 = 0.025: sweep-dense's 1025-node level would have
    # 0.029, so it anchors on its own grid, and the reference sweep
    # anchors on 2049 nodes (0.0195) first
    solves = _anchor_solves(*sweep_dense_profile, monkeypatch)
    assert [g.n_points for g, _, _ in solves] == [2049]
    solves = _anchor_solves(*sweep_ref_profile, monkeypatch)
    assert [g.n_points for g, _, _ in solves] == [2049, 4097]
    # the nested state is the one-level state (1.0e-12 measured)
    profile, assignment = sweep_ref_profile
    K = af.initial_guess(profile, assignment).components()
    U, _, _ = af.coupled_newton(profile.grid, 1e4, K)
    assert np.max(np.abs(solves[-1][1] - U)) < 5e-12


def _anchor_residuals(profile, assignment, monkeypatch):
    """Residual evaluations of a beta = 1e4 continuation inside its
    coupled_newton solves and outside them, and the number of solves."""
    real_newton, real_residual = af.solver.coupled_newton, af.residual_components
    counts, depth = {"inside": 0, "outside": 0, "solves": 0}, [0]

    def newton_spy(*args, **kwargs):
        counts["solves"] += 1
        depth[0] += 1
        try:
            return real_newton(*args, **kwargs)
        finally:
            depth[0] -= 1

    def residual_spy(*args):
        counts["inside" if depth[0] else "outside"] += 1
        return real_residual(*args)

    monkeypatch.setattr("artifact.solver.coupled_newton", newton_spy)
    monkeypatch.setattr("artifact.solver.residual_components", residual_spy)
    af.continuation(profile, assignment, af.SolverConfig(beta_schedule=(1e4,)))
    monkeypatch.undo()
    return counts


def test_anchor_levels_are_judged_without_a_residual_of_their_own(
        sweep_dense_profile, sweep_ref_profile, monkeypatch):
    # coupled_newton returns the residual of each anchor level's state,
    # so grid.accepts judges the level without evaluating it again: the
    # one residual outside the solves is _certify's, on the stage state
    for fixture, levels in ((sweep_dense_profile, 1), (sweep_ref_profile, 2)):
        counts = _anchor_residuals(*fixture, monkeypatch)
        assert counts["solves"] == levels
        assert counts["outside"] == 1 and counts["inside"] > levels


def test_anchor_converges_where_damped_newton_from_the_guess_stalls():
    # on (3, 2049, 20) damped Newton from the segregated guess stalls at
    # residual 2.54; from the converged 1025-node state it converges
    g = af.build_grid(3, 2049, 20.0)
    profile = af.compute_c_infinity(g, 4)
    recs = af.continuation(profile, af.build_assignment((1, 2, 3, 1)),
                           af.SolverConfig(beta_schedule=(1e4,)))
    assert [r.beta for r in recs] == [1e4]
    assert recs[0].accepted


def test_anchor_level_accepts_a_stall_at_the_normwise_roundoff(monkeypatch):
    # on (2, 16385, 30) the finest anchor level stops at 6.2e-10, where
    # some row exceeds its own roundoff, but under the normwise roundoff
    # 4 eps (max|di| m + (1 + beta) m^3) = 5.0e-9 of the system
    g = af.build_grid(2, 16385, 30.0)
    profile = af.compute_c_infinity(g, 3)
    solves = _anchor_solves(profile, af.build_assignment((1, 2, 1)), monkeypatch)
    assert [level.n_points for level, _, _ in solves] == [2049, 4097, 8193, 16385]
    _, U, res = solves[-1]
    assert not af.solver._converged(g, 1e4, U, af.residual_components(g, 1e4, U))
    assert res < af.grid.ROUNDOFF * af.solver._row_terms(g, 1e4)(U)[0]
