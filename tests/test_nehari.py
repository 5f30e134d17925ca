"""Scaling energy over pulse ensembles: closed forms, a brute-force grid
oracle and derivative checks."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import artifact as af
from artifact.nehari import _poly, _rays, _tensors


def gaussian_pulses(grid, centers, widths, amps):
    r = grid.nodes
    rows = [a * np.exp(-((r - c) / w) ** 2) for c, w, a in zip(centers, widths, amps)]
    return np.array(rows)


def ensemble_on(grid, sigma, pulses):
    return af.PulseEnsemble(grid, af.build_assignment(sigma), pulses)


def poly(beta, ens, lam):
    """Value, gradient and Hessian of the scaling energy polynomial."""
    return _poly(*_tensors(beta, ens), np.asarray(lam, float))


@pytest.fixture(scope="module")
def small_grid():
    return af.build_grid(2, 257, 20.0)


def test_ensemble_shape_rejected(small_grid):
    with pytest.raises(af.ConfigError):
        ensemble_on(small_grid, (1, 2), np.ones((3, small_grid.n_points)))


def test_ensemble_negative_rejected(small_grid):
    P = gaussian_pulses(small_grid, [4.0, 9.0], [1.0, 1.0], [1.0, 1.0])
    P[0, 5] = -1e-3
    with pytest.raises(af.ConfigError):
        ensemble_on(small_grid, (1, 2), P)


def test_components_mapping(small_grid):
    P = gaussian_pulses(small_grid, [3.0, 8.0, 13.0], [1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    ens = ensemble_on(small_grid, (1, 2, 1), P)
    U = ens.components([2.0, 3.0, 5.0])
    assert U.shape == (2, small_grid.n_points)
    assert np.array_equal(U[0], 2.0 * P[0] + 5.0 * P[2])
    assert np.array_equal(U[1], 3.0 * P[1])
    # an array gives the fields of the list, and no scaling is all ones
    assert np.array_equal(ens.components(np.array([2.0, 3.0, 5.0])), U)
    assert np.array_equal(ens.components(), ens.components(np.ones(3)))


def test_single_pulse_closed_form(small_grid):
    P = gaussian_pulses(small_grid, [6.0], [1.5], [2.0])
    ens = ensemble_on(small_grid, (1,), P)
    a = af.h1_norm_sq(small_grid, P[0])
    b = af.lp_integral(small_grid, P[0], 4)
    rep = af.maximize_phi(7.0, ens)
    lam_star = np.sqrt(a / b)
    assert rep.lambda_bar[0] == pytest.approx(lam_star, rel=1e-12)
    assert rep.m_value == pytest.approx(a * a / (4.0 * b), rel=1e-12)
    _, G, H = poly(7.0, ens, rep.lambda_bar)
    assert np.linalg.norm(G) < 1e-10
    # phi'' = a - 3 b lam^2 = -2a at the maximizer
    assert H[0, 0] == pytest.approx(-2.0 * a, rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(t=st.floats(min_value=0.1, max_value=3.0))
def test_single_pulse_scaling_profile(t):
    g = af.build_grid(2, 129, 12.0)
    P = gaussian_pulses(g, [4.0], [1.0], [1.0])
    ens = ensemble_on(g, (1,), P)
    a = af.h1_norm_sq(g, P[0])
    b = af.lp_integral(g, P[0], 4)
    assert af.phi(0.0, ens, [t]) == pytest.approx(
        0.5 * t**2 * a - 0.25 * t**4 * b, rel=1e-12, abs=1e-12
    )


def test_disjoint_pulses_closed_form(guess_h2):
    # bump supports are disjoint, so the cross term vanishes identically
    # and the maximizer factors into per-pulse closed forms
    g = guess_h2.grid
    expect_lam = []
    expect_m = 0.0
    for l in range(guess_h2.assignment.h):
        a = af.h1_norm_sq(g, guess_h2.pulses[l])
        b = af.lp_integral(g, guess_h2.pulses[l], 4)
        expect_lam.append(np.sqrt(a / b))
        expect_m += a * a / (4.0 * b)
    rep = af.maximize_phi(123.0, guess_h2)
    assert rep.lambda_bar == pytest.approx(expect_lam, rel=1e-10)
    assert rep.m_value == pytest.approx(expect_m, rel=1e-10)
    assert np.linalg.eigvalsh(poly(123.0, guess_h2, rep.lambda_bar)[2]).max() < 0


def test_j_beta_is_phi_at_ones(small_grid):
    # J_beta, the coupled energy of the pulses, is phi at lambda = 1 exactly
    P = gaussian_pulses(small_grid, [4.0, 8.0, 12.0], [1.2, 0.9, 1.4], [1.0, 1.5, 0.7])
    ens = ensemble_on(small_grid, (1, 2, 1), P)
    for beta in (0.0, 1.0, 50.0):
        assert af.phi(beta, ens, np.ones(3)) == af.coupled_energy(
            small_grid, beta, ens.components())


def _phi_tensors(ens, beta):
    """Independent polynomial form of the scaling energy.

    phi(lam) = sum Q[l,s] lam_l lam_s + sum D[l,s,p,q] lam_l lam_s lam_p lam_q
    with Q the component-masked H1 Gram matrix and D built from raw
    quartic integrals of pulse products.
    """
    g = ens.grid
    P = ens.pulses
    sig = ens.assignment.sigma
    h = ens.assignment.h
    w = g.quad_weights
    Q = np.zeros((h, h))
    for l in range(h):
        for s in range(h):
            if sig[l] == sig[s]:
                Q[l, s] = 0.5 * af.h1_inner(g, P[l], P[s])
    T4 = np.zeros((h, h, h, h))
    for l in range(h):
        for s in range(h):
            for p in range(h):
                for q in range(h):
                    T4[l, s, p, q] = np.dot(w, P[l] * P[s] * P[p] * P[q])
    D = np.zeros_like(T4)
    for l in range(h):
        for s in range(h):
            for p in range(h):
                for q in range(h):
                    if sig[l] == sig[s] and sig[p] == sig[q]:
                        if sig[l] == sig[p]:
                            D[l, s, p, q] = -0.25 * T4[l, s, p, q]
                        else:
                            D[l, s, p, q] = 0.25 * beta * T4[l, s, p, q]
    return Q, D


def _poly_eval(Q, D, L):
    quad = np.einsum("ls,lx,sx->x", Q, L, L)
    quart = np.einsum("lspq,lx,sx,px,qx->x", D, L, L, L, L)
    return quad + quart


def test_maximizer_matches_grid_scan(small_grid):
    beta = 5.0
    P = gaussian_pulses(small_grid, [3.0, 7.5, 12.0], [1.3, 1.0, 1.5], [1.2, 1.0, 0.8])
    ens = ensemble_on(small_grid, (1, 2, 1), P)
    Q, D = _phi_tensors(ens, beta)

    # the polynomial must agree with the package energy before it can
    # serve as an oracle
    probe = np.array([[0.7, 1.1, 1.4]]).T
    assert _poly_eval(Q, D, probe)[0] == pytest.approx(
        af.phi(beta, ens, probe[:, 0]), rel=1e-12
    )

    def scan(center, half, step):
        axes = [np.arange(c - half, c + half + step / 2, step) for c in center]
        M = np.meshgrid(*axes, indexing="ij")
        L = np.stack([m.ravel() for m in M])
        vals = _poly_eval(Q, D, L)
        i = int(np.argmax(vals))
        return L[:, i], float(vals[i])

    best, val = scan(np.array([1.2, 1.2, 1.2]), 1.0, 0.05)
    best, val = scan(best, 0.1, 0.005)
    best, val = scan(best, 0.01, 0.0005)

    rep = af.maximize_phi(beta, ens)
    assert rep.m_value == pytest.approx(val, abs=1e-5)
    assert rep.m_value >= val - 1e-9
    assert np.max(np.abs(rep.lambda_bar - best)) < 1.5e-3


def test_grad_hess_match_finite_differences(rng):
    g = af.build_grid(2, 257, 20.0)
    cases = [((1, 2), 2), ((1, 2, 1), 3), ((1, 2, 3), 3)]
    for sigma, h in cases:
        centers = np.sort(rng.uniform(2.0, 15.0, size=h))
        P = gaussian_pulses(g, centers, rng.uniform(0.8, 1.6, size=h),
                            rng.uniform(0.5, 1.5, size=h))
        ens = ensemble_on(g, sigma, P)
        beta = float(rng.uniform(0.5, 20.0))
        lam = rng.uniform(0.5, 1.5, size=h)
        _, G, H = poly(beta, ens, lam)
        d = 1e-5
        for l in range(h):
            e = np.zeros(h)
            e[l] = d
            fd_g = (af.phi(beta, ens, lam + e) - af.phi(beta, ens, lam - e)) / (2 * d)
            assert fd_g == pytest.approx(G[l], rel=1e-6, abs=1e-6)
            fd_h = (poly(beta, ens, lam + e)[1] - poly(beta, ens, lam - e)[1]) / (2 * d)
            assert fd_h == pytest.approx(H[:, l], rel=1e-6, abs=1e-6)
        assert np.allclose(H, H.T)


def test_unbounded_on_strong_overlap(small_grid):
    # two copies of the same pulse in different components: along the
    # diagonal ray the quartic term has sign beta - 1 and the energy
    # escapes upward
    P = gaussian_pulses(small_grid, [6.0, 6.0], [1.5, 1.5], [1.0, 1.0])
    ens = ensemble_on(small_grid, (1, 2), P)
    with pytest.raises(af.UnboundedEnergy):
        af.maximize_phi(50.0, ens)


@pytest.mark.parametrize("h", [1, 3, 5])
def test_rays_are_fixed_unit_rays_in_the_positive_orthant(h):
    rays = _rays(h)
    assert rays.shape == (64, h)
    assert np.all(rays > 0)
    assert np.allclose(np.linalg.norm(rays, axis=1), 1.0, rtol=0, atol=1e-15)
    assert not rays.flags.writeable
    assert _rays(h) is rays


def test_degenerate_pulse(small_grid):
    P = gaussian_pulses(small_grid, [4.0, 9.0], [1.0, 1.0], [1.0, 1.0])
    P[1] = 0.0
    ens = ensemble_on(small_grid, (1, 2), P)
    with pytest.raises(af.DegeneratePulse):
        af.maximize_phi(1.0, ens)


def test_saddle_typed_independently_of_roundoff():
    # a saddle of the scaling energy, with the pulses rescaled so that it
    # sits at the ones vector and then perturbed at the 1e-11 level: the
    # gradient there (4.4e-8) is above the absolute tolerance but is
    # roundoff next to |Q 1| = 497, so the stage is still a saddle
    g = af.build_grid(2, 1025, 30.0)
    P = gaussian_pulses(g, [5.0, 6.0, 7.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    ens = ensemble_on(g, (1, 2, 1), P)
    lam = np.array([0.221, 1.887, 1.834])
    for _ in range(8):
        _, G, H = poly(0.5, ens, lam)
        lam -= np.linalg.solve(H, G)
    _, G, H = poly(0.5, ens, lam)
    assert np.linalg.norm(G) < 1e-12
    assert np.linalg.eigvalsh(H).max() > 0
    scale = lam * (1.0 + 3e-11 * np.array([1.0, -1.0, 1.0]))
    shifted = ensemble_on(g, (1, 2, 1), P * scale[:, None])
    ones = np.ones(3)
    assert 1e-8 < np.linalg.norm(poly(0.5, shifted, ones)[1]) < 1e-7
    with pytest.raises(af.SaddleScaling) as info:
        af.maximize_phi(0.5, shifted)
    assert sum(x > 0 for x in info.value.eigenvalues) == 1


def test_nonpositive_start_rejected(small_grid):
    P = gaussian_pulses(small_grid, [4.0, 9.0], [1.0, 1.0], [1.0, 1.0])
    ens = ensemble_on(small_grid, (1, 2), P)
    with pytest.raises(af.ConfigError):
        af.maximize_phi(1.0, ens, x0=[1.0, -0.5])


def test_maximize_at_reference_pulses(guess_h2, profile_h2):
    # profile bumps already sit on the scalar constraint set, so the
    # maximizer is the ones vector and the value reproduces the energy sum
    rep = af.maximize_phi(2.0, guess_h2)
    assert np.max(np.abs(rep.lambda_bar - 1.0)) < 1e-6
    assert rep.m_value == pytest.approx(profile_h2.c_value, rel=1e-6)
    # a maximum, not a saddle: the Hessian at lambda_bar is negative
    # definite
    assert np.linalg.eigvalsh(poly(2.0, guess_h2, rep.lambda_bar)[2]).max() < 0

