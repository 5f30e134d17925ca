"""End-to-end quality gate.

Ten checks, one per line of `pytest -v`: closed-form oracles for the
scalar problem and the scaling maximum, cross-method agreement on the
reference energies, finite-difference derivative validation, and the
structural guarantees of the five-stage coupling sweep on the
three-component example (h=5, sigma=(1,2,1,3,2), N=2).  Regression
checks on the same sweep follow them.
"""
import os
import time
import warnings

import numpy as np
import pytest

import artifact as af
from artifact import cli


# ---------------------------------------------------------------------
# shared setups
# ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def example_sweep():
    """The reference sweep: N=2, five bumps over three components,
    coupling schedule 1 to 1e4.  Stage failures are recorded as
    warnings and surface in the returned list."""
    t0 = time.monotonic()
    grid = af.build_grid(2, 4097, 40.0)
    profile = af.compute_c_infinity(grid, 5)
    assignment = af.build_assignment((1, 2, 1, 3, 2))
    config = af.SolverConfig(beta_schedule=(1.0, 10.0, 100.0, 1000.0, 10000.0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", af.StageFailure)
        records = af.continuation(profile, assignment, config)
    return {
        "grid": grid,
        "profile": profile,
        "assignment": assignment,
        "schedule": config.beta_schedule,
        "records": records,
        "failures": [str(w.message) for w in caught
                     if issubclass(w.category, af.StageFailure)],
        "elapsed": time.monotonic() - t0,
    }


@pytest.fixture(scope="module")
def planar_cases():
    """Small planar grid with one-, two- and three-bump profiles and
    their segregated pulse ensembles."""
    grid = af.build_grid(2, 1025, 30.0)
    cases = {}
    for sigma in ((1,), (1, 2), (1, 2, 1)):
        profile = af.compute_c_infinity(grid, len(sigma))
        assignment = af.build_assignment(sigma)
        cases[sigma] = af.initial_guess(profile, assignment)
    return grid, cases


def _phi_tensors(ens, beta):
    # polynomial form of the scaling energy: component-masked H1 Gram
    # plus signed raw quartic integrals of pulse products
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
    D = np.zeros((h, h, h, h))
    for l in range(h):
        for s in range(h):
            for p in range(h):
                for q in range(h):
                    if sig[l] != sig[s] or sig[p] != sig[q]:
                        continue
                    t4 = np.dot(w, P[l] * P[s] * P[p] * P[q])
                    if sig[l] == sig[p]:
                        D[l, s, p, q] = -0.25 * t4
                    else:
                        D[l, s, p, q] = 0.25 * beta * t4
    return Q, D


def _poly_eval(Q, D, L):
    quad = np.einsum("ls,lx,sx->x", Q, L, L)
    quart = np.einsum("lspq,lx,sx,px,qx->x", D, L, L, L, L)
    return quad + quart


def _local_max_radii(grid, u, floor):
    out = []
    for j in range(len(u) - 1):
        left = u[j - 1] if j > 0 else -np.inf
        if u[j] > left and u[j] >= u[j + 1] and u[j] > floor:
            out.append(float(grid.nodes[j]))
    return out


# ---------------------------------------------------------------------
# the ten checks
# ---------------------------------------------------------------------

def test_01_line_soliton_energy_closed_form():
    t0 = time.monotonic()
    coarse = af.find_nodal_solution(af.build_grid(1, 4097, 40.0), 1)
    err = abs(coarse.c_value - 4.0 / 3.0)
    assert err < 1e-3
    fine = af.find_nodal_solution(af.build_grid(1, 8193, 40.0), 1)
    err_half = abs(fine.c_value - 4.0 / 3.0)
    # second-order quadrature: halving dr cuts the error ~4x
    assert err_half < err / 3.0
    assert time.monotonic() - t0 < 5.0


def test_02_shooting_and_partition_routes_agree():
    # grids sized per case: the dim-3 profiles with 4+ sign changes
    # carry an inner spike that needs the finer mesh
    cases = [
        (2, 1, 4097, 40.0, 5.85030530),
        (2, 2, 4097, 40.0, 38.58527946),
        (2, 3, 4097, 40.0, 97.92074484),
        (2, 4, 8193, 40.0, 183.67979899),
        (2, 5, 8193, 40.0, 295.81005682),
        (3, 1, 4097, 40.0, 18.89515427),
        (3, 2, 4097, 40.0, 118.90039768),
        (3, 3, 4097, 40.0, 360.05073457),
        (3, 4, 8193, 20.0, 803.6774),
        (3, 5, 8193, 20.0, 1506.84140),
    ]
    t0 = time.monotonic()
    for dim, h, n, rmax, frozen in cases:
        grid = af.build_grid(dim, n, rmax)
        part = af.compute_c_infinity(grid, h)
        shoot = af.find_nodal_solution(grid, h)
        rel = abs(part.c_value - shoot.c_value) / abs(shoot.c_value)
        assert rel < 1e-4, (dim, h, rel)
        assert abs(part.c_value - frozen) / frozen < 5e-6, (dim, h)
        za = np.asarray(part.node_radii)
        zb = np.asarray(shoot.node_radii)
        assert za.shape == zb.shape
        if za.size:
            assert np.max(np.abs(za - zb)) < 2.0 * grid.dr, (dim, h)
    assert time.monotonic() - t0 < 300.0


def test_03_scaling_maximum_closed_form_and_grid_search(planar_cases):
    grid, cases = planar_cases
    single = cases[(1,)]
    a = af.h1_norm_sq(grid, single.pulses[0])
    b = float(np.dot(grid.quad_weights, single.pulses[0] ** 4))
    rep = af.maximize_phi(7.0, single)
    assert rep.lambda_bar.values[0] == pytest.approx(np.sqrt(a / b), rel=1e-12)
    assert rep.m_value == pytest.approx(a * a / (4.0 * b), rel=1e-12)

    for sigma in ((1, 2), (1, 2, 1)):
        ens = cases[sigma]
        h = len(sigma)
        rep = af.maximize_phi(10.0, ens)
        Q, D = _phi_tensors(ens, 10.0)
        axis = np.arange(0.3, 2.0 + 1e-12, 1e-2)
        mesh = np.meshgrid(*([axis] * h), indexing="ij")
        L = np.stack([m.ravel() for m in mesh])
        coarse_argmax = L[:, int(np.argmax(_poly_eval(Q, D, L)))]
        fine = [np.arange(x - 0.015, x + 0.015 + 1e-12, 1e-3)
                for x in coarse_argmax]
        mesh = np.meshgrid(*fine, indexing="ij")
        L = np.stack([m.ravel() for m in mesh])
        scan_max = float(np.max(_poly_eval(Q, D, L)))
        assert scan_max <= rep.m_value + 1e-9, sigma
        assert rep.m_value - scan_max < 1e-5, sigma


def test_04_derivatives_match_finite_differences(planar_cases):
    _, cases = planar_cases
    pair = [cases[(1, 2)], cases[(1, 2, 1)]]
    rng = np.random.default_rng(20240819)
    worst_g = worst_h = 0.0
    for trial in range(100):
        ens = pair[trial % 2]
        h = ens.assignment.h
        beta = float(rng.uniform(0.5, 50.0))
        lam = rng.uniform(0.4, 1.8, size=h)
        G = af.grad_phi(beta, ens, lam)
        H = af.hess_phi(beta, ens, lam)
        f0 = af.phi(beta, ens, lam)
        steps = 1e-4 * np.maximum(1.0, np.abs(lam))
        Gfd = np.empty(h)
        Hfd = np.empty((h, h))
        for l in range(h):
            e = np.zeros(h)
            e[l] = steps[l]
            fp = af.phi(beta, ens, lam + e)
            fm = af.phi(beta, ens, lam - e)
            Gfd[l] = (fp - fm) / (2 * steps[l])
            Hfd[l, l] = (fp + fm - 2 * f0) / steps[l] ** 2
        for l in range(h):
            for s in range(l + 1, h):
                el = np.zeros(h)
                es = np.zeros(h)
                el[l] = steps[l]
                es[s] = steps[s]
                Hfd[l, s] = Hfd[s, l] = (
                    af.phi(beta, ens, lam + el + es)
                    - af.phi(beta, ens, lam + el - es)
                    - af.phi(beta, ens, lam - el + es)
                    + af.phi(beta, ens, lam - el - es)
                ) / (4 * steps[l] * steps[s])
        worst_g = max(worst_g,
                      np.linalg.norm(Gfd - G) / max(1.0, np.linalg.norm(G)))
        worst_h = max(worst_h,
                      np.linalg.norm(Hfd - H) / max(1.0, np.linalg.norm(H)))
    assert worst_g < 1e-6
    assert worst_h < 1e-5


def test_05_scaling_maximizer_unique_and_structured(example_sweep):
    records = example_sweep["records"]
    profile = example_sweep["profile"]
    assert records
    c1, _ = af.bump_constants(profile)
    radius_cap = 4.0 * (profile.c_value + 1.0) / c1**2
    rng = np.random.default_rng(77)
    for rec in records:
        lams = []
        for _ in range(32):
            x0 = rng.uniform(0.5, 2.0, size=example_sweep["assignment"].h)
            rep = af.maximize_phi(rec.beta, rec.ensemble, x0=x0)
            assert rep.hessian_negdef
            lams.append(rep.lambda_bar.values)
        lams = np.array(lams)
        assert np.max(lams.max(axis=0) - lams.min(axis=0)) < 1e-8
        assert np.max(np.abs(lams - np.asarray(rec.lambda_bar))) < 1e-8
        assert rec.maximizer.min_lambda > 0.5
        assert rec.maximizer.radius_sq < radius_cap
        assert rec.maximizer.hessian_negdef


def test_06_sweep_energies_monotone_and_bounded(example_sweep):
    records = example_sweep["records"]
    assert records
    betas = [rec.beta for rec in records]
    assert betas == sorted(betas)
    energies = np.array([rec.energy for rec in records])
    assert np.all(np.diff(energies) >= 0)
    cap = example_sweep["profile"].c_value + 1e-4
    assert np.all(energies <= cap)
    assert example_sweep["elapsed"] < 900.0


def test_07_segregation_trends(example_sweep):
    records = {rec.beta: rec for rec in example_sweep["records"]}
    assert {10.0, 100.0, 1000.0, 10000.0} <= set(records)
    ovl = {b: float(np.max(r.overlaps)) for b, r in records.items()}
    assert ovl[10.0] / ovl[10000.0] >= 10.0
    tail = sorted(records)[-3:]
    scaled = [b * ovl[b] for b in tail]
    assert max(scaled) / min(scaled) <= 10.0
    dists = [records[b].d_to_K for b in tail]
    assert all(d2 <= d1 + 1e-9 for d1, d2 in zip(dists, dists[1:]))


def test_08_accepted_solutions_quality(example_sweep):
    records = example_sweep["records"]
    accepted = [rec for rec in records if rec.accepted]
    assert accepted == records
    for rec in accepted:
        assert rec.residual < 1e-8
        lam = np.asarray(rec.lambda_bar)
        assert np.max(np.abs(lam - 1.0)) < 1e-6
        U = rec.ensemble.components(rec.lambda_bar)
        assert np.all(U >= 0.0)
        for u in U:
            idx = np.flatnonzero(u > 1e-8 * u.max())
            assert np.all(u[idx[0]:idx[-1] + 1] > 0.0)


def test_09_bump_component_interleaving(example_sweep):
    grid = example_sweep["grid"]
    sigma = example_sweep["assignment"].sigma
    rec = next(r for r in example_sweep["records"] if r.beta == 10000.0)
    U = rec.ensemble.components(rec.lambda_bar)
    tagged = []
    for i, u in enumerate(U, start=1):
        radii = _local_max_radii(grid, u, 0.1 * float(u.max()))
        assert len(radii) == sigma.count(i), i
        tagged.extend((r, i) for r in radii)
    tagged.sort()
    assert tuple(comp for _, comp in tagged) == sigma


def test_10_sweep_determinism(tmp_path):
    payloads = []
    for label in ("rep1", "rep2"):
        argv = [
            "sweep", "--dim", "2", "--n-points", "513", "--r-max", "30",
            "--h", "2", "--sigma", "1,2", "--beta-schedule", "1,10,100",
            "--out", str(tmp_path), "--label", label,
        ]
        assert cli.main(argv) == 0
        with open(os.path.join(str(tmp_path), label, "sweep.csv"), "rb") as f:
            payloads.append(f.read())
    assert payloads[0] == payloads[1]


# ---------------------------------------------------------------------
# regressions
# ---------------------------------------------------------------------

def test_weak_coupling_stage_fails_on_a_named_scaling_saddle(example_sweep):
    # at beta=1 the walked-down state is stationary in the scalings, but
    # the scaling Hessian there has one positive eigenvalue: no maximum
    # exists, and the stage failure must say so rather than time out
    failure = next(f for f in example_sweep["failures"]
                   if f.startswith("stage beta=1 failed"))
    assert "scaling saddle" in failure
    eigs = [float(x) for x in failure.split("eigenvalues")[1].split(",")]
    assert len(eigs) == example_sweep["assignment"].h
    assert sum(x > 0 for x in eigs) == 1
