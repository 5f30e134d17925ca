"""Shots, nodal profiles, and the two routes to the segregated energy."""
import functools
import gc
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import ode, solve_ivp
from scipy.special import ellipk

import artifact as af
from artifact.grid import (
    apply_tridiag,
    factor_tridiag,
    solve_tridiag,
)


def _tail(w):
    return np.abs(w[-len(w) // 10 :])


def test_shoot_soliton_amplitude_decays(grid_n1):
    flips, w = af.scalar.shoot(grid_n1, np.sqrt(2.0))
    assert flips == 0
    # decayed: under the shot's decay floor at r_max
    assert abs(w[-1]) < 1e-5


def test_shoot_subcritical_amplitude_oscillates(grid_n1):
    # the zero state is unstable: tiny data grows to O(1), then the
    # double-well potential confines it above zero
    flips, w = af.scalar.shoot(grid_n1, 1e-6)
    assert flips == 0
    assert np.max(w) > 0.5
    assert np.min(_tail(w)) > 0.5


def test_shoot_inside_well_oscillates(grid_n1):
    # w = 1 solves the equation: the shot stays there and never decays
    flips, w = af.scalar.shoot(grid_n1, 1.0)
    assert flips == 0
    assert np.min(_tail(w)) > 0.5


def test_shoot_rejects_nonpositive_amplitude(grid_n1):
    with pytest.raises(af.ConfigError):
        af.scalar.shoot(grid_n1, 0.0)


def test_shoot_bracket_flips_sign_count():
    g = af.build_grid(3, 1025, 20.0)
    profile = af.find_nodal_solution(g, 1)
    below, _ = af.scalar.shoot(g, profile.amplitude * 0.98)
    above, _ = af.scalar.shoot(g, profile.amplitude * 1.02)
    assert below == 0
    assert above >= 1


def _line_zeros(r_max, a):
    # the exact count on the line from w(0)=a, where the energy is
    # conserved: w = a cn(sqrt(a^2-1) r, k^2) with k^2 = a^2/(2a^2-2), whose
    # zeros are q, 3q, 5q, ... for the quarter period
    # q = sqrt(2) K(k^2)/sqrt(2a^2-2); under sqrt(2), E(0) < 0 and w has none
    if a * a <= 2.0:
        return 0
    q = np.sqrt(2.0) * ellipk(a * a / (2 * a * a - 2)) / np.sqrt(2 * a * a - 2)
    return int((r_max - q) // (2 * q)) + 1


@pytest.mark.parametrize("a", [338.0, 540.0, 865.0])
def test_shoot_counts_zeros_closer_than_the_spacing(a):
    # a large amplitude on the line oscillates with zeros far closer than
    # dr; node samples alias the count (239, 75 and 188 here), signs read
    # at the accepted steps do not (273, 437 and 700 exactly)
    g = af.build_grid(1, 257, 3.0)
    zeros = _line_zeros(g.r_max, a)
    assert zeros > 256
    assert af.scalar.shoot(g, a)[0] == zeros
    assert af.scalar._stopped_shot(g, a, 10**9, rtol=1e-12)[0] == zeros


@pytest.mark.parametrize("dim, a", [(d, a) for d in (1, 2, 3)
                                    for a in (1e-6, 1.0, 3.0, 40.0)]
                         + [(2, 2e3), (3, 2e3)])
def test_shot_stays_under_its_energy_bound(dim, a):
    # E = w'^2/2 - w^2/2 + w^4/4 never rises along r, so |w| stays under
    # max(a, sqrt(2)) and no shot can blow up
    g = af.build_grid(dim, 257, 3.0)
    _, w = af.scalar.shoot(g, a)
    assert np.max(np.abs(w)) <= max(a, np.sqrt(2.0)) * (1 + 1e-9)


def _count_sign_changes(values, deadband=af.scalar.SIGN_DEADBAND):
    # the reference count of node samples: signs of the values at or
    # above the deadband (the shots count at their accepted steps)
    s = np.sign(values[np.abs(values) >= deadband])
    return int(np.sum(s[1:] != s[:-1]))


def test_count_sign_changes_deadband():
    vals = np.array([1.0, 1e-14, -1e-14, -1.0, 1e-13, 1.0])
    assert _count_sign_changes(vals, deadband=1e-12) == 2
    assert _count_sign_changes(-vals, deadband=1e-12) == 2


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(min_value=1e-3, max_value=1e3),
       seed=st.integers(min_value=0, max_value=2**31))
def test_count_sign_changes_scale_invariant(scale, seed):
    vals = np.random.default_rng(seed).standard_normal(64)
    base = _count_sign_changes(vals, deadband=0.0)
    assert _count_sign_changes(scale * vals, deadband=0.0) == base


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_shot_rhs_is_the_numpy_scalar_formula(dim):
    # the right-hand side unpacks y into Python floats; the same formula
    # on numpy float64 scalars must give the same bits, on the axis
    # branch (r < 1e-12) too
    def reference(rr, y):
        wv, p = y
        if rr < 1e-12:
            return (p, (wv - wv**3) / dim)
        return (p, wv - wv**3 - (dim - 1) / rr * p)

    f = af.scalar._ode_rhs(dim)
    rng = np.random.default_rng(15)
    radii = [0.0, *rng.uniform(0.0, 1e-12, 100), *rng.uniform(1e-12, 40.0, 200)]
    for rr in radii:
        mags = 10.0 ** rng.uniform(-20.0, 2.0, 2)
        y = mags * rng.choice([-1.0, 1.0], 2)
        got = np.array(f(float(rr), y), dtype=float)
        want = np.array(reference(float(rr), y), dtype=float)
        assert got.tobytes() == want.tobytes(), (rr, y)


def _sampled_count(grid, amplitude, rtol):
    # the reference count: the whole shot to r_max, sampled on every node
    sol = solve_ivp(af.scalar._ode_rhs(grid.dimension), (0.0, grid.r_max),
                    [amplitude, 0.0], method="DOP853", t_eval=grid.nodes,
                    rtol=rtol, atol=1e-14)
    assert sol.status == 0
    return _count_sign_changes(sol.y[0])


@pytest.mark.parametrize("dim, n, r_max", [(1, 257, 2.0), (2, 257, 10.0),
                                           (3, 257, 10.0)])
def test_stopped_count_decides_like_the_sampled_count(dim, n, r_max):
    # a shot stopped where its count becomes final decides every bisection
    # question "at least h sign changes?" as the node-sampled shot does;
    # on the line the reference is the exact count
    g = af.build_grid(dim, n, r_max)
    hs = (1, 2, 3, 5)
    for a in np.geomspace(1.2, 1e3, 12):
        want = _line_zeros(r_max, a) if dim == 1 else _sampled_count(g, a, 1e-9)
        for h in hs:
            got = af.scalar._stopped_shot(g, a, h, rtol=1e-9)[0]
            assert min(got, h) == min(want, h), (a, h, got, want)


@pytest.mark.parametrize("a", [1.0, 1.4])
def test_stopped_count_needs_no_shot_below_sqrt2(monkeypatch, grid_n1, a):
    # E(0) = a^4/4 - a^2/2 < 0 and E never rises, so no zero can follow
    def no_shot(*args, **kwargs):
        raise AssertionError("integrated a shot that E(0) < 0 decides")

    with monkeypatch.context() as m:
        m.setattr(af.scalar, "ode", no_shot)
        assert af.scalar._stopped_shot(grid_n1, a, 1, rtol=1e-9)[0] == 0
    assert _count_sign_changes(af.scalar.shoot(grid_n1, a)[1]) == 0


def test_stopped_count_raises_on_integrator_failure(monkeypatch, grid_n1):
    # a shot cut short by the step budget has only a partial count
    class ShortBudget(ode):
        def set_integrator(self, name, **params):
            return super().set_integrator(name, **{**params, "nsteps": 5})

    monkeypatch.setattr(af.scalar, "ode", ShortBudget)
    with pytest.warns(UserWarning), pytest.raises(af.StepFailure):
        af.scalar._stopped_shot(grid_n1, 3.0, 5, rtol=1e-9)


def test_nodal_solution_samples_only_its_final_shot(monkeypatch):
    # the bisection's shots are decided by stopped counts; only the shot
    # at the final amplitude is sampled on the nodes (sampling every
    # bisection shot made 45 here)
    g = af.build_grid(2, 4097, 40.0)
    rtols, sampled = [], []
    shot, shoot = af.scalar._shot, af.scalar.shoot

    def shot_spy(grid, amplitude, rtol, stop):
        rtols.append(rtol)
        return shot(grid, amplitude, rtol, stop)

    def shoot_spy(grid, amplitude):
        sampled.append(len(rtols))
        return shoot(grid, amplitude)

    monkeypatch.setattr(af.scalar, "_shot", shot_spy)
    monkeypatch.setattr(af.scalar, "shoot", shoot_spy)
    profile = af.find_nodal_solution(g, 2)
    # one sampled shot, the last, and it alone at rtol 1e-12
    assert sampled == [len(rtols) - 1]
    assert rtols[-1] == 1e-12
    assert set(rtols[:-1]) <= {1e-9, 1e-11} and len(rtols) > 1
    assert len(profile.node_radii) == 1


def _bisected_amplitude(grid, h):
    # the reference: the count-only bisection the amplitude search
    # replaced, on the same scan and stop, every probe the bracket's
    # midpoint, counted at rtol 1e-9 until the bracket is under 1e-6 hi
    lo = hi = None
    a = 1.2
    while hi is None:
        if af.scalar._stopped_shot(grid, a, h, rtol=1e-9)[0] >= h:
            hi = a
        else:
            lo = a
        a *= 1.25
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        rtol = 1e-9 if hi - lo > 1e-6 * hi else 1e-11
        if af.scalar._stopped_shot(grid, mid, h, rtol=rtol)[0] >= h:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("dim, h", [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3),
                                    (3, 1), (3, 2)])
def test_critical_amplitude_matches_the_bisection(dim, h):
    # the secant on the shots' decay law finds the bisection's amplitude:
    # measured within 3.7e-13 relative, in 8-29 shots where the bisection
    # takes 15-50; the line's h >= 2 cases reach a* where the h-th zero
    # meets r_max, not a decaying solution
    g = af.build_grid(dim, 1025, {1: 16.0, 2: 30.0, 3: 20.0}[dim])
    want = _bisected_amplitude(g, h)
    assert abs(af.scalar._critical_amplitude(g, h) - want) <= 2e-12 * want


@pytest.mark.parametrize("dim, h, n, budget", [(2, 5, 1025, 26),
                                               (3, 3, 4097, 34)])
def test_nodal_solution_shot_budget(monkeypatch, dim, h, n, budget):
    # the profile-routes cases' shots, which depend on no grid spacing:
    # 22 and 30 stopped shots plus the sampled one, where the bisection
    # made 45 and 53 plus the sampled one (the N=3 polish needs more than
    # 1025 nodes)
    g = af.build_grid(dim, n, 40.0)
    shot, calls = af.scalar._shot, []

    def shot_spy(*args):
        calls.append(args[1])
        return shot(*args)

    monkeypatch.setattr(af.scalar, "_shot", shot_spy)
    af.find_nodal_solution(g, h)
    assert len(calls) <= budget


def test_shots_release_their_steps():
    # scipy's ode never frees its integrator, which held the step
    # callback: 20 shots here kept 1.4 MiB when the callback kept its
    # steps, and about 40 KiB of scipy's own objects when it did not;
    # on one integrator per (dimension, rtol) they keep about 7 KiB
    g = af.build_grid(2, 1025, 40.0)
    af.scalar.shoot(g, 3.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(20):
            af.scalar.shoot(g, 3.0)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 400 * 1024


def test_nodal_solution_keeps_little_of_its_shots():
    # scipy's ode keeps every integrator it makes alive, about 2 KiB each:
    # one profile on (2, 5, 4097, 40) kept 45 KiB after its 23 shots (the
    # bisection's 46 kept 91 KiB) when each shot made one; on one per
    # (dimension, rtol) it keeps about 4 KiB
    g = af.build_grid(2, 4097, 40.0)
    af.find_nodal_solution(g, 5)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        af.find_nodal_solution(g, 5)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 16 * 1024


def _reference_shot(grid, amplitude):
    # node samples of a scipy.integrate.solve_ivp DOP853 shot, the pure
    # Python port of the same method, stopped at the decay floor by an
    # event between steps: (values on the nodes it reached, stopped)
    floor = min(1e-5, 1e-2 * amplitude)

    def decay(t, y):
        return y[0] ** 2 + y[1] ** 2 - floor**2

    decay.terminal = True
    decay.direction = -1
    sol = solve_ivp(af.scalar._ode_rhs(grid.dimension), (0.0, grid.r_max),
                    [amplitude, 0.0], method="DOP853", t_eval=grid.nodes,
                    rtol=1e-12, atol=1e-14, events=decay)
    assert sol.status in (0, 1)
    return sol.y[0], sol.status == 1


@pytest.mark.parametrize("dim, n, r_max", [(1, 513, 16.0), (2, 1025, 30.0),
                                           (3, 1025, 20.0)])
def test_shot_samples_match_a_solve_ivp_reference(dim, n, r_max):
    # the Hermite samples of the compiled shot agree with the reference's
    # dense output up to where the reference stops; measured at most
    # 2.6e-6 of the amplitude (N=1, a=3), 7.3e-7 for a decayed shot.  Both
    # stop at the decay floor on the critical shot only: it alone ends
    # under 1e-5, and a = 3 ends 0.78 or more from zero
    g = af.build_grid(dim, n, r_max)
    critical = af.find_nodal_solution(g, 1).amplitude
    for a, decays in ((critical, True), (3.0, False)):
        want, stopped = _reference_shot(g, a)
        _, w = af.scalar.shoot(g, a)
        assert stopped == decays
        assert (abs(w[-1]) < 1e-5) == decays
        got = w[: len(want)]
        assert np.max(np.abs(got - want)) <= 5e-6 * a


def test_soliton_energy(soliton_profile):
    assert soliton_profile.c_value == pytest.approx(4.0 / 3.0, abs=1e-3)
    assert soliton_profile.h == 1
    assert soliton_profile.node_radii == ()
    assert soliton_profile.residual < 1e-8


def test_soliton_energy_second_order():
    errs = []
    for n in (513, 1025):
        g = af.build_grid(1, n, 16.0)
        errs.append(abs(af.find_nodal_solution(g, 1).c_value - 4.0 / 3.0))
    assert 2.5 < errs[0] / errs[1] < 6.0


def test_two_bumps_on_the_line(grid_n1):
    # translation invariance makes the level 4/3 + 8/3; the truncated
    # domain pins it slightly above
    profile = af.find_nodal_solution(grid_n1, 2)
    assert len(profile.node_radii) == 1
    assert _count_sign_changes(profile.solution, deadband=1e-12) == 1
    assert 4.0 < profile.c_value < 4.01


def test_nodal_profile_invariants(profile_h2, grid_h2):
    assert len(profile_h2.bumps) == 2
    assert len(profile_h2.energies) == 2
    for bump, energy in zip(profile_h2.bumps, profile_h2.energies):
        b = np.asarray(bump)
        assert np.all(b >= 0)
        # on the constraint set the energy is a quarter of the norm
        assert af.h1_norm_sq(grid_h2, b) == pytest.approx(4 * energy, rel=1e-7)
        assert af.lp_integral(grid_h2, b, 4) == pytest.approx(4 * energy, rel=1e-7)
    assert profile_h2.c_value == pytest.approx(sum(profile_h2.energies), rel=1e-12)


def test_routes_agree_on_plane(grid_h2, profile_h2):
    shot = af.find_nodal_solution(grid_h2, 2)
    rel = abs(shot.c_value - profile_h2.c_value) / shot.c_value
    assert rel < 1e-8
    assert abs(shot.node_radii[0] - profile_h2.node_radii[0]) < 2 * grid_h2.dr


@pytest.mark.parametrize("h", [2, 3])
def test_partition_route_on_the_line_matches_shooting(grid_n1, h):
    # on the line no r^{N-1} weight favours a cell's inner edge: each
    # cell's ground state sits at its centre, and the route must find it
    shot = af.find_nodal_solution(grid_n1, h)
    part = af.compute_c_infinity(grid_n1, h)
    assert abs(shot.c_value - part.c_value) / shot.c_value < 1e-4
    assert len(part.node_radii) == h - 1
    for zs, zp in zip(shot.node_radii, part.node_radii):
        assert abs(zs - zp) < 2 * grid_n1.dr


def test_bump_constants(profile_h2, grid_h2):
    c1, c2 = af.bump_constants(profile_h2)
    assert 0 < c1 <= c2
    norms = [np.sqrt(af.h1_norm_sq(grid_h2, b)) for b in profile_h2.bumps]
    assert c1 == pytest.approx(min(norms), rel=1e-12)
    assert c2 == pytest.approx(max(norms), rel=1e-12)


def test_annulus_matches_ground_state(grid_n1, soliton_profile):
    field, energy, _ = af.scalar._annulus_cont(grid_n1, 0.0, grid_n1.r_max)
    assert energy == pytest.approx(soliton_profile.c_value, abs=1e-10)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("jlo, jhi", [(0, 300), (200, 600)])
def test_annulus_at_node_radii_solves_grid_problem(dim, jlo, jhi):
    # radii on grid nodes make the cell the grid problem on the nodes
    # strictly inside (plus the axis node for the center ball)
    g = af.build_grid(dim, 1025, 20.0)
    r = g.nodes
    u, energy, _ = af.scalar._annulus_cont(g, r[jlo], r[jhi])
    inner = slice(0 if jlo == 0 else jlo + 1, jhi)
    assert np.all(u >= 0)
    assert np.all(u[: inner.start] == 0) and np.all(u[jhi:] == 0)
    resid = apply_tridiag(g.op_lower, g.op_diag, g.op_upper, u) - u**3
    assert np.max(np.abs(resid[inner])) <= 1e-10
    norm = af.h1_norm_sq(g, u)
    assert abs(norm - af.lp_integral(g, u, 4)) <= 1e-8 * norm
    assert energy == pytest.approx(af.free_energy(g, u), rel=1e-10)


def _loop_cell_bands(grid, a, b, origin):
    # per-node reference for the annulus cell: edge conductances and node
    # masses from the quadratic form, rows from its self-adjoint operator
    r, dr, dim, sN = grid.nodes, grid.dr, grid.dimension, grid.sphere_measure
    jfirst = 0 if origin else int(np.floor(a / dr)) + 1
    if not origin and r[jfirst] <= a + 1e-14 * dr:
        jfirst += 1
    jlast = int(np.ceil(b / dr)) - 1
    if r[jlast] >= b - 1e-14 * dr:
        jlast -= 1
    x = r[jfirst : jlast + 1]
    m = len(x)

    def gmean(ra, rb):
        return {1: 1.0, 2: 2.0 * ra * rb / (ra + rb) if ra + rb else 0.0,
                3: ra * rb}[dim]

    ends = [0.0 if origin else a] + list(x) + [b]
    elen = [dr if (q == 0 and origin) else ends[q + 1] - ends[q]
            for q in range(m + 1)]
    ge = [0.0 if (q == 0 and origin) else gmean(ends[q], ends[q + 1])
          for q in range(m + 1)]
    lo, di, up = np.zeros(m - 1), np.zeros(m), np.zeros(m - 1)
    for q in range(m):
        left = 0.0 if (q == 0 and origin) else elen[q]
        wq = 0.5 * sN * x[q] ** (dim - 1) * (left + elen[q + 1])
        gl, gr = ge[q] / elen[q], ge[q + 1] / elen[q + 1]
        if q == 0 and origin:
            di[0] = 2.0 * dim / dr**2 + 1.0
            up[0] = -2.0 * dim / dr**2
            continue
        di[q] = sN * (gl + gr) / wq + 1.0
        if q > 0:
            lo[q - 1] = -sN * gl / wq
        if q < m - 1:
            up[q] = -sN * gr / wq
    return lo, di, up


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("a, b, origin", [(0.0, 7.3, True), (0.0, 5.9, True),
                                          (2.61, 9.47, False),
                                          (4.0, 12.0, False)])
def test_annulus_bands_match_loop_reference(monkeypatch, dim, a, b, origin):
    # the vectorized cell bands keep the per-node float order exactly;
    # the interface search is sensitive to their last bits
    g = af.build_grid(dim, 1025, 20.0)
    seen = []

    def spy(lo, di, up, u):
        seen.append((lo.copy(), di.copy(), up.copy()))
        return apply_tridiag(lo, di, up, u)

    monkeypatch.setattr(af.scalar, "apply_tridiag", spy)
    af.scalar._annulus_cont(g, a, b)
    for got, want in zip(seen[0], _loop_cell_bands(g, a, b, origin)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("jlo, jhi", [(0, 300), (200, 600)])
def test_cell_rows_on_whole_edges_are_the_grid_rows(monkeypatch, dim, jlo, jhi):
    # one stencil: a cell at node radii has the grid's row, bit for bit,
    # at each node whose two edges are whole grid edges (every node but
    # its last, and its first off the axis; the axis row is the grid's too)
    g = af.build_grid(dim, 1025, 20.0)
    seen = []

    def spy(lo, di, up):
        seen.append((lo.copy(), di.copy(), up.copy()))
        return factor_tridiag(lo, di, up)

    monkeypatch.setattr(af.scalar, "factor_tridiag", spy)
    af.scalar._annulus_cont(g, g.nodes[jlo], g.nodes[jhi])
    lo, di, up = seen[0]
    first = 0 if jlo == 0 else jlo + 1  # grid index of the cell's node 0
    q = np.arange(0 if jlo == 0 else 1, len(di) - 1)  # rows on whole edges
    assert len(q) >= 300 - 2
    assert np.array_equal(di[q], g.op_diag[first + q])
    assert np.array_equal(up[q], g.op_upper[first + q])
    q = q[q > 0]
    assert np.array_equal(lo[q - 1], g.op_lower[first + q - 1])


def test_annulus_factors_its_preconditioner_once(monkeypatch):
    # the descent reuses one factorization of the cell's -Lap+1; the
    # Newton polish, whose matrix changes every step, solves from scratch,
    # and the radius Hessian takes one more solve, with two right-hand sides
    g = af.build_grid(2, 1025, 20.0)
    newton = af.scalar._newton
    factors, in_newton, outside, depth = [], [], [], [0]

    def factor_spy(lo, di, up):
        factors.append(len(di))
        return factor_tridiag(lo, di, up)

    def solve_spy(lo, di, up, b):
        if depth[0] > 0:
            in_newton.append(b.shape)
        else:
            outside.append(b.shape)
        return solve_tridiag(lo, di, up, b)

    def newton_spy(*args):
        depth[0] += 1
        try:
            return newton(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(af.scalar, "factor_tridiag", factor_spy)
    monkeypatch.setattr(af.scalar, "solve_tridiag", solve_spy)
    monkeypatch.setattr(af.scalar, "_newton", newton_spy)
    af.scalar._annulus_cont(g, 2.61, 9.47)
    assert len(factors) == 1
    assert in_newton and all(len(shape) == 1 for shape in in_newton)
    assert outside == [(factors[0], 2)]


def test_warm_cell_starts_at_its_polish(monkeypatch):
    # a cell given u_init polishes before any descent step: warm from the
    # solution of a cell 0.3 dr narrower, it takes no step and one polish
    g = af.build_grid(3, 4097, 40.0)
    cell, newton = af.scalar._annulus_cont, af.scalar._newton
    steps, polishes = [], []

    def factor_spy(lo, di, up):
        solve = factor_tridiag(lo, di, up)

        def counted(b):
            steps.append(1)
            return solve(b)

        return counted

    def newton_spy(*args):
        polishes.append(1)
        return newton(*args)

    u, energy, _ = cell(g, 2.61, 9.47)
    monkeypatch.setattr(af.scalar, "factor_tridiag", factor_spy)
    monkeypatch.setattr(af.scalar, "_newton", newton_spy)
    _, energy2, _ = cell(g, 2.61, 9.47 + 0.3 * g.dr, u_init=u)
    assert steps == [] and polishes == [1]
    assert energy2 < energy


def test_fine_cells_accept_their_first_polish(monkeypatch):
    # on a fine N=3 grid (di ~ 1/dr^2 = 1.7e5) roundoff keeps a converged
    # polish's max-norm residual at 1.5e-10 to 3e-9; accepted at the
    # roundoff of its row terms, each cell polishes once (under a fixed
    # 1e-10 every cell here made 15 failed attempts)
    g = af.build_grid(3, 8193, 20.0)
    newton = af.scalar._newton
    calls = []

    def spy(*args):
        calls.append(1)
        return newton(*args)

    monkeypatch.setattr(af.scalar, "_newton", spy)
    rho = [0.0, 0.1397, 0.7404, 2.2421, 20.0]
    for l in range(4):
        calls.clear()
        af.scalar._annulus_cont(g, rho[l], rho[l + 1])
        assert len(calls) == 1, (l, len(calls))


def test_fine_profiles_accept_polishes_at_the_roundoff_of_their_rows():
    # on (3, 16385, 20) roundoff in rows of size ~1/dr^2 keeps converged
    # polishes above a fixed max-norm 1e-8 (the global polish at 4.2e-8,
    # the partition's bump 1 at 6.0e-8); judged row by row, both routes
    # finish and agree
    g = af.build_grid(3, 16385, 20.0)
    part = af.compute_c_infinity(g, 5)
    shoot = af.find_nodal_solution(g, 5)
    assert shoot.residual > 1e-8
    assert abs(part.c_value - shoot.c_value) <= 1e-12 * shoot.c_value
    gap = np.max(np.abs(np.subtract(part.node_radii, shoot.node_radii)))
    assert gap < 0.01 * g.dr


def test_resolved_line_profile_accepts_a_polish_stalled_at_its_roundoff():
    # on (1, 2, 4097, 16) bump 1's polish stalls at 4.1e-11 (partition)
    # and 3.6e-11 (shooting), with tail rows above 4 eps (|di u| + |u|^3)
    # but the max norm under the normwise roundoff
    # 4 eps (max|di| max|u| + max|u|^3); both routes finish and agree
    g = af.build_grid(1, 4097, 16.0)
    part = af.compute_c_infinity(g, 2)
    shoot = af.find_nodal_solution(g, 2)
    assert abs(part.c_value - shoot.c_value) <= 1e-12 * shoot.c_value
    assert abs(part.c_value - 4.001114055363661) <= 1e-12 * part.c_value
    # a polish stopped far above that roundoff stays unconverged
    j = 400
    _, resid, _, ok = af.scalar._newton(
        g.op_lower[: j - 1], g.op_diag[:j], g.op_upper[: j - 1],
        np.exp(-g.nodes[:j] ** 2), 1e-12, 1)
    assert resid > 1e-6 and not ok


def test_unconverged_polish_raises(monkeypatch):
    newton = af.scalar._newton

    def stalled(*args):
        u, resid, steps, _ = newton(*args)
        return u, resid, steps, False

    monkeypatch.setattr(af.scalar, "_newton", stalled)
    g = af.build_grid(2, 1025, 30.0)
    with pytest.raises(af.NewtonDivergence, match="global polish stalled"):
        af.find_nodal_solution(g, 2)
    with pytest.raises(af.NewtonDivergence, match="bump 1 resolve stalled"):
        af.scalar._split_profile(g, 1, [], [np.exp(-g.nodes**2)], 1e-8)


@pytest.mark.parametrize("dim, n, r_max, h", [(1, 1025, 16.0, 3),
                                               (2, 2049, 30.0, 5),
                                               (3, 4097, 40.0, 3)])
def test_cold_seed_cells_land_on_their_first_polish(monkeypatch, dim, n, r_max, h):
    # every cold cell of the interface seed reaches the basin of its
    # ground state within one 10-step descent chunk: its first polish is
    # accepted (with 40-step chunks, cells here ran up to 40 steps first)
    g = af.build_grid(dim, n, r_max)
    cell, newton = af.scalar._annulus_cont, af.scalar._newton
    steps, polishes, seen = [0], [0], []

    def factor_spy(lo, di, up):
        solve = factor_tridiag(lo, di, up)

        def counted(b):
            steps[0] += 1
            return solve(b)

        return counted

    def newton_spy(*args):
        polishes[0] += 1
        return newton(*args)

    def cell_spy(*args, **kwargs):
        steps[0] = polishes[0] = 0
        out = cell(*args, **kwargs)
        if kwargs.get("u_init") is None and out[0] is not None:
            seen.append((args[1:3], steps[0], polishes[0]))
        return out

    monkeypatch.setattr(af.scalar, "factor_tridiag", factor_spy)
    monkeypatch.setattr(af.scalar, "_newton", newton_spy)
    monkeypatch.setattr(af.scalar, "_annulus_cont", cell_spy)
    af.scalar._partition_seed(g, h)
    assert seen
    for radii, k, m in seen:
        assert k <= 10 and m == 1, (radii, k, m)


def _reference_seed(grid, h):
    # the exhaustive search the branch and bound replaces: every cell of
    # every chain on the candidate cuts, and the first chain of least
    # total in lexicographic order
    if grid.n_points > af.scalar.SEED_NODES:
        grid = af.build_grid(grid.dimension, af.scalar.SEED_NODES, grid.r_max)
    last = grid.n_points - 1
    cand = {int(x) for x in np.linspace(8, last - 8, 6)}
    off = 8
    while off < last - 8:
        cand.add(off)
        off = 2 * off + 1

    @functools.cache
    def cell(jlo, jhi):
        return af.scalar._annulus_cont(grid, grid.nodes[jlo], grid.nodes[jhi])[1]

    def total(cuts):
        edges = (0, *cuts, last)
        return sum(cell(i, j) for i, j in zip(edges, edges[1:]))

    best = min(itertools.combinations(sorted(cand), h - 1), key=total)
    return grid.nodes[[0, *best, last]], cell.cache_info().currsize


@pytest.mark.parametrize("dim, h, n, r_max", [(2, 5, 8193, 40.0),
                                               (3, 3, 4097, 40.0),
                                               (1, 3, 1025, 16.0),
                                               (2, 7, 8193, 40.0),
                                               (3, 5, 4097, 20.0)])
def test_partition_seed_is_the_exhaustive_search(monkeypatch, dim, h, n, r_max):
    # the branch and bound returns the exhaustive search's radii bit for
    # bit, in 27-34 cell solves where the exhaustive one makes 70-88.  Its
    # premise holds on every cell it solves: an interior cell costs at
    # least both outer cells that contain it, within SEED_SLACK (over the
    # 10,302 inclusion pairs of seed-grid cells in N = 1..3, the worst
    # measured undercut was 6.5e-14)
    g = af.build_grid(dim, n, r_max)
    want, exhaustive = _reference_seed(g, h)
    cell = af.scalar._annulus_cont
    energies = {}

    def spy(grid, a, b, **kwargs):
        out = cell(grid, a, b, **kwargs)
        energies[round(a / grid.dr), round(b / grid.dr)] = out[1]
        return out

    monkeypatch.setattr(af.scalar, "_annulus_cont", spy)
    got = af.scalar._partition_seed(g, h)
    assert got.tobytes() == want.tobytes()
    assert len(energies) <= 36 and 2 * len(energies) < exhaustive
    last = min(n, af.scalar.SEED_NODES) - 1
    interior = [(i, j) for i, j in energies if 0 < i and j < last]
    assert interior
    for i, j in interior:
        bound = max(energies[0, j], energies[i, last])
        assert energies[i, j] >= bound * (1.0 - af.scalar.SEED_SLACK), (i, j)


def test_partition_seed_is_one_seed_past_the_seed_grid():
    # past SEED_NODES nodes the chain is searched on the 1025-node grid, so
    # every finer grid starts the radius Newton from the same radii (node
    # seeds on each grid put the first radius at 0.684, 0.693 and 0.698);
    # up to it the seed is the grid's own node seed
    seeds = [af.scalar._partition_seed(af.build_grid(2, n, 40.0), 5)
             for n in (2049, 4097, 8193)]
    for seed in seeds[1:]:
        assert seed.tobytes() == seeds[0].tobytes()
    g = af.build_grid(2, 1025, 30.0)
    seed = af.scalar._partition_seed(g, 3)
    assert seed.tobytes() == g.nodes[[0, 35, 143, 1024]].tobytes()


def test_annulus_rejects_bad_interval(grid_h2):
    # a cell with fewer than 8 interior nodes has no solve and costs inf,
    # and a grid where every chain of h cells does raises
    assert af.scalar._annulus_cont(grid_h2, 5.0, 5.0) == (None, np.inf, None)
    with pytest.raises(af.EmptyAnnulus):
        af.compute_c_infinity(af.build_grid(2, 33, 10.0), 5)


def test_free_energy_of_soliton(grid_n1):
    u = np.sqrt(2.0) / np.cosh(grid_n1.nodes)
    u = u - u[-1]
    assert af.free_energy(grid_n1, u) == pytest.approx(4.0 / 3.0, abs=1e-3)


def test_partition_rejects_bad_h(grid_h2):
    with pytest.raises(af.ConfigError):
        af.compute_c_infinity(grid_h2, 0)


@pytest.mark.parametrize("route", ["compute_c_infinity", "find_nodal_solution"])
@pytest.mark.parametrize("h", [2.5, 2.0, True, "2", None])
def test_profile_routes_reject_an_h_that_is_no_integer(grid_h2, route, h):
    # 2.5 raised TypeError in the seed search, and True ran as h = 1
    with pytest.raises(af.ConfigError, match="h must be an integer"):
        getattr(af, route)(grid_h2, h)


def test_shot_amplitude_recorded(soliton_profile):
    # the sech soliton has height sqrt(2)
    assert soliton_profile.amplitude == pytest.approx(np.sqrt(2.0), abs=1e-3)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("a, b, origin", [(0.0, 3.31, True),
                                          (2.613, 9.4717, False)])
def test_cell_radius_derivative_matches_finite_differences(dim, a, b, origin):
    # the envelope-theorem derivative each cell solve returns, against
    # central differences of the cell energy at off-node radii (step
    # 0.01 dr); measured worst relative gap 5.1e-7, from the energy's
    # roundoff over the step
    g = af.build_grid(dim, 1025, 20.0)
    u, _, slopes = af.scalar._annulus_cont(g, a, b)
    eps = 0.01 * g.dr
    for k in ((1,) if origin else (0, 1)):
        hi, lo = [a, b], [a, b]
        hi[k] += eps
        lo[k] -= eps
        fd = (af.scalar._annulus_cont(g, *hi, u_init=u)[1]
              - af.scalar._annulus_cont(g, *lo, u_init=u)[1])
        fd /= 2 * eps
        assert abs(fd - slopes[k]) <= 1e-5 * abs(slopes[k]), (k, fd, slopes[k])
    if origin:
        assert slopes[0] == 0.0


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("a, b, origin", [(0.0, 3.31, True),
                                          (2.613, 9.4717, False)])
def test_cell_radius_hessian_matches_finite_differences(dim, a, b, origin):
    # the exact second derivatives each cell solve returns, E'' = J'' -
    # g H^-1 g, against central differences of its radius derivatives
    # (step 0.01 dr); measured worst relative gap 3.7e-7.  The center ball
    # has no inner radius, so no a-derivatives (and zero axis mass)
    g = af.build_grid(dim, 1025, 20.0)
    u, _, d = af.scalar._annulus_cont(g, a, b)
    hess = {(0, 0): d[2], (0, 1): d[3], (1, 0): d[3], (1, 1): d[4]}
    eps = 0.01 * g.dr
    radii = (1,) if origin else (0, 1)
    for k in radii:
        hi, lo = [a, b], [a, b]
        hi[k] += eps
        lo[k] -= eps
        fd = (np.array(af.scalar._annulus_cont(g, *hi, u_init=u)[2][:2])
              - np.array(af.scalar._annulus_cont(g, *lo, u_init=u)[2][:2]))
        fd /= 2 * eps
        for j in radii:
            assert abs(fd[j] - hess[k, j]) <= 2e-6 * abs(hess[k, j]), (k, j, fd[j])
    if origin:
        assert d[2] == d[3] == 0.0


@pytest.mark.parametrize("dim, h, n, r_max", [(2, 3, 2049, 30.0),
                                               (2, 5, 8193, 40.0),
                                               (3, 3, 4097, 40.0),
                                               (3, 5, 8193, 20.0)])
def test_partition_radii_are_stationary_within_a_solve_budget(
        monkeypatch, dim, h, n, r_max):
    # at the returned radii the energy's derivative in every interface
    # radius vanishes: the discrete equal-flux condition.  Measured
    # |dE/drho| dr <= 4.2e-10, under the radius Newton's stop at
    # STATIONARY_TOL = 1e-9; moving one radius by 1e-3 dr gives 3e-6 or
    # more
    g = af.build_grid(dim, n, r_max)
    solve = af.scalar._annulus_cont
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(af.scalar, "_annulus_cont", spy)
    profile = af.compute_c_infinity(g, h)
    # 45, 66, 48 and 71 cell solves measured (121, 166, 131 and 197 with
    # the exhaustive seed and a difference Hessian); the golden-section
    # search made 744 on the first case
    assert len(calls) <= 80
    rho = [0.0, *profile.node_radii, g.r_max]
    slopes = np.array([solve(g, rho[l], rho[l + 1])[2]
                       for l in range(h)])
    grad = slopes[:-1, 1] + slopes[1:, 0]
    assert np.max(np.abs(grad)) * g.dr < 1e-8, grad


def test_partition_route_raises_on_radii_left_non_stationary():
    # on the under-resolved (3, 4, 2049, 40), whose first cell holds about
    # 7 nodes, the radius Newton stops at |dE/drho| dr = 8.4; converged
    # profiles end at 6.5e-10 or less
    g = af.build_grid(3, 2049, 40.0)
    with pytest.raises(af.NewtonDivergence, match="not stationary"):
        af.compute_c_infinity(g, 4)


def test_partition_route_makes_no_cell_solve_after_the_radius_newton(monkeypatch):
    # the final bumps are polished from the fields of the radius Newton's
    # last cell solves; re-solving every final cell cold made 3 more here
    g = af.build_grid(2, 2049, 30.0)
    radii, cell = af.scalar._stationary_radii, af.scalar._annulus_cont
    events = []

    def radii_spy(*args):
        out = radii(*args)
        events.append("radii")
        return out

    def cell_spy(*args, **kwargs):
        events.append("cell")
        return cell(*args, **kwargs)

    monkeypatch.setattr(af.scalar, "_stationary_radii", radii_spy)
    monkeypatch.setattr(af.scalar, "_annulus_cont", cell_spy)
    profile = af.compute_c_infinity(g, 3)
    assert events.count("radii") == 1 and "cell" in events
    assert events[-1] == "radii", events[events.index("radii"):]
    assert len(profile.node_radii) == 2


def test_radius_newton_is_one_grid_newton_call(monkeypatch):
    # the interface radii are found by grid.newton, whose one call on the
    # h - 1 interior radii starts at the seed; every other call polishes a
    # window of at least 8 nodes
    g = af.build_grid(2, 2049, 30.0)
    newton = af.scalar.newton
    starts = []

    def spy(residual, factor, u, *args):
        if len(u) < 8:
            starts.append(u.copy())
        return newton(residual, factor, u, *args)

    monkeypatch.setattr(af.scalar, "newton", spy)
    af.compute_c_infinity(g, 3)
    seed = af.scalar._partition_seed(g, 3)
    assert len(starts) == 1
    assert starts[0].tobytes() == seed[1:-1].tobytes()


def test_radius_newton_exit_on_a_rejected_trial_keeps_its_start(monkeypatch):
    # once a pass leaves 1e-9 < |dE/drho| dr < 1e-6, every later trial is
    # reported worse, so grid.newton ends on a step it cannot take: the
    # radii are that step's start, and the fields those of the last cell
    # solves at them.  The first such trial solves its cells, so the last
    # pass lies off the returned radii; the others solve none
    g = af.build_grid(2, 2049, 30.0)
    newton, cell = af.scalar.newton, af.scalar._annulus_cont
    solves, exits = {}, []

    def cell_spy(grid, a, b, **kwargs):
        out = cell(grid, a, b, **kwargs)
        solves[a, b] = out[0]
        return out

    def newton_spy(residual, factor, u, tol, *args):
        if len(u) >= 8:
            return newton(residual, factor, u, tol, *args)
        stuck = []

        def spoiled(y):
            if stuck:
                if len(stuck) == 1:
                    stuck.append(y.copy())
                    residual(y)
                return np.full(len(y), 2.0 * stuck[0])
            F = residual(y)
            if 1e-9 < np.max(np.abs(F)) * g.dr < 1e-6:
                stuck.append(np.max(np.abs(F)))
            return F

        out = newton(spoiled, factor, u, tol, *args)
        exits.append((out, stuck))
        return out

    monkeypatch.setattr(af.scalar, "_annulus_cont", cell_spy)
    monkeypatch.setattr(af.scalar, "newton", newton_spy)
    rho, fields = af.scalar._stationary_radii(g, af.scalar._partition_seed(g, 3))
    [((y, nf, _, ok), stuck)] = exits
    assert len(stuck) == 2 and not ok and nf == stuck[0]
    assert rho[1:-1].tobytes() == y.tobytes() != stuck[1].tobytes()
    for l in range(3):
        assert fields[l] is solves[rho[l], rho[l + 1]]


def test_cell_whose_polish_never_converges_raises(monkeypatch):
    # an unpolished field is no critical point, so its radius derivatives
    # would be wrong: after 60 descent chunks the cell raises, naming its
    # radii
    newton = af.scalar._newton

    def stalled(*args):
        u, resid, steps, _ = newton(*args)
        return u, resid, steps, False

    monkeypatch.setattr(af.scalar, "_newton", stalled)
    g = af.build_grid(2, 513, 30.0)
    with pytest.raises(af.NewtonDivergence, match=r"cell \(2\.5, 9\.5\)"):
        af.scalar._annulus_cont(g, 2.5, 9.5)
