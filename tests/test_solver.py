"""Coupled solver: descent of the maximized scaling energy, banded Newton,
pulse re-extraction, and the staged continuation driver."""
import sys

import numpy as np
import pytest
from scipy.linalg import solve_banded

import artifact as af


@pytest.mark.parametrize("kw", [
    {"beta_schedule": ()},
    {"beta_schedule": (0.0, 1.0)},
    {"beta_schedule": (-1.0,)},
    {"beta_schedule": (1.0, 1.0)},
    {"beta_schedule": (10.0, 1.0)},
    {"outer_tol": -1e-7},
    {"newton_tol": 0.0},
    {"max_iters": 0},
])
def test_solver_config_rejects(kw):
    with pytest.raises(af.ConfigError):
        af.SolverConfig(**kw)


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


def test_newton_from_perturbed_single_field(grid_n1, soliton_profile):
    U0 = 1.05 * np.array([soliton_profile.bumps[0]], dtype=float)
    hist = []
    U, resid, iters = af.coupled_newton(grid_n1, 0.0, U0, history=hist)
    assert resid < 1e-10
    assert iters <= 8
    assert hist[0] > 1e-2 > hist[-1]


def test_newton_quadratic_tail(grid_n1, soliton_profile):
    U0 = 1.10 * np.array([soliton_profile.bumps[0]], dtype=float)
    hist = []
    af.coupled_newton(grid_n1, 0.0, U0, history=hist)
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
    cfg = af.SolverConfig(beta_schedule=(100.0,))
    tr = []
    out = af.minimize_m_beta(1e10, guess_h2, cfg, trace=tr)
    assert np.array_equal(out.pulses, guess_h2.pulses)
    assert len(tr) == 1
    rep = af.maximize_phi(1e10, out)
    assert abs(rep.m_value - profile_h2.c_value) < 1e-8


def test_minimize_descends_at_moderate_coupling(guess_h2, profile_h2):
    cfg = af.SolverConfig(beta_schedule=(100.0,))
    tr = []
    out = af.minimize_m_beta(100.0, guess_h2, cfg, trace=tr)
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
    cfg = af.SolverConfig(beta_schedule=(50.0,))
    with pytest.raises(af.MaximizerFailure):
        af.minimize_m_beta(50.0, ens, cfg)


def test_newton_refine_from_reference(guess_h2, profile_h2):
    cfg = af.SolverConfig(beta_schedule=(1000.0,))
    rec = af.newton_refine(1000.0, guess_h2, config=cfg, target=profile_h2)
    assert rec.residual < 1e-8
    assert rec.in_nehari
    assert rec.hessian_negdef
    assert rec.accepted
    assert rec.energy <= profile_h2.c_value
    assert np.isfinite(rec.d_to_K)
    assert np.max(np.abs(rec.lambda_bar - 1.0)) < 1e-6
    d = rec.to_dict()
    assert set(d) == {
        "beta", "lambda_bar", "energy", "residual", "d_to_K",
        "overlaps", "in_nehari", "hessian_negdef", "accepted",
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
    cfg = af.SolverConfig(beta_schedule=(1e4,))
    rec = af.newton_refine(1e4, af.initial_guess(prof, asg), config=cfg)
    P = rec.ensemble.pulses.copy()
    P[P < 1e-30] = 0.0
    clipped = af.PulseEnsemble(g, asg, P)
    u = clipped.components(rec.lambda_bar)[0]
    idx = np.flatnonzero(u > 1e-8 * u.max())
    assert np.count_nonzero(u[idx[0] : idx[-1] + 1] == 0.0) > 0
    rec = af.newton_refine(1e4, clipped, config=cfg)
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
        assert r.accepted and r.in_nehari and r.hessian_negdef
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
    def reject_weak(grid, beta, U, tol):
        return None if beta < 50.0 else real(grid, beta, U, tol)
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
    U, res, _ = af.coupled_newton(g, beta, guess_h2.components(), maxit=120)
    assert res < 1e-10
    tangent = af.solver._tangent(g, beta, U)
    errors = []
    for step in (-0.2, -0.1):
        pred = U + step * tangent
        V, res, _ = af.coupled_newton(g, beta * 10.0**step, pred, maxit=120)
        assert res < 1e-10
        errors.append(np.max(np.abs(V - pred)))
    assert errors[1] > 1e-8
    assert errors[0] >= 3.0 * errors[1]


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


@pytest.mark.parametrize("k", [1, 2, 3])
def test_jacobian_solver_matches_solve_banded(k, rng):
    g = af.build_grid(2, 257, 20.0)
    r = g.nodes
    for beta in (0.0, 3.0, 1e4):
        U = np.array([(1.0 + rng.uniform(0.0, 2.0)) * np.exp(-((r - c) ** 2))
                      for c in rng.uniform(2.0, 12.0, size=k)])
        U += 1e-3 * rng.standard_normal(U.shape)
        ab = _jacobian_bands_loop(g, beta, U)
        solve = af.solver._jacobian_solver(g, beta, U)
        for _ in range(3):
            F = rng.standard_normal(U.shape)
            ref = solve_banded((k, k), ab, F.T.reshape(-1)).reshape(g.n_points, k).T
            assert np.array_equal(solve(F), ref)
