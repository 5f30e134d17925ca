"""Distance, overlap, membership, and sweep-summary reporting."""
import json

import numpy as np
import pytest

import artifact as af
from artifact.diagnostics import SWEEP_COLUMNS, sweep_row, write_sweep_csv


def test_distance_zero_at_reference(guess_h2, profile_h2, assignment_h2):
    assert af.d_sigma_distance(guess_h2, profile_h2, assignment_h2) == 0.0


def test_distance_of_doubled_pulse(guess_h2, profile_h2, assignment_h2):
    g = guess_h2.grid
    P = guess_h2.pulses.copy()
    P[0] = 2.0 * P[0]
    moved = af.PulseEnsemble(g, assignment_h2, P)
    expect = np.sqrt(af.h1_norm_sq(g, guess_h2.pulses[0]))
    assert af.d_sigma_distance(moved, profile_h2, assignment_h2) == pytest.approx(
        expect, rel=1e-12
    )


def test_distance_assignment_mismatch(guess_h2, profile_h2):
    with pytest.raises(af.ConfigError):
        af.d_sigma_distance(guess_h2, profile_h2, af.build_assignment((2, 1)))


def test_distance_is_a_metric(guess_h2, profile_h2, assignment_h2, rng):
    # symmetry and triangle inequality on random pulse triples, phrased
    # through the profile-distance entry point by swapping roles
    g = guess_h2.grid
    h = assignment_h2.h

    def rand_ens():
        P = guess_h2.pulses * rng.uniform(0.2, 2.0, size=(h, 1))
        return af.PulseEnsemble(g, assignment_h2, P)

    def dist(e1, e2):
        total = 0.0
        for l in range(h):
            total += af.h1_norm_sq(g, e1.pulses[l] - e2.pulses[l])
        return np.sqrt(total)

    for _ in range(5):
        a, b, c = rand_ens(), rand_ens(), rand_ens()
        assert dist(a, b) == pytest.approx(dist(b, a), rel=1e-12)
        assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-10


def test_overlap_disjoint_is_zero(guess_h2):
    g = guess_h2.grid
    U = guess_h2.components()
    ovl, bovl = af.overlap_report(7.0, g, U)
    assert ovl.shape == (2, 2)
    assert np.all(np.diag(ovl) == 0)
    assert np.max(ovl) == 0.0
    assert np.max(bovl) == 0.0


def test_overlap_coincident_fields(grid_n1, soliton_profile):
    u = np.asarray(soliton_profile.bumps[0], float)
    ovl, bovl = af.overlap_report(3.0, grid_n1, np.array([u, u]))
    # both off-diagonal entries equal the quartic integral of the field
    quartic = af.lp_integral(grid_n1, u, 4)
    assert ovl[0, 1] == pytest.approx(quartic, rel=1e-12)
    assert ovl[1, 0] == pytest.approx(quartic, rel=1e-12)
    assert bovl[0, 1] == pytest.approx(3.0 * quartic, rel=1e-12)
    assert quartic == pytest.approx(16.0 / 3.0, rel=1e-3)


def test_membership_at_reference(guess_h2, profile_h2):
    rep = af.maximize_phi(2.0, guess_h2)
    flags = af.membership(2.0, profile_h2, rep)
    assert flags == {"in_tilde_X": True, "in_N_beta": True}


def test_membership_detects_scaling_offset(guess_h2, profile_h2, assignment_h2):
    g = guess_h2.grid
    tripled = af.PulseEnsemble(g, assignment_h2, 3.0 * guess_h2.pulses)
    rep = af.maximize_phi(2.0, tripled)
    flags = af.membership(2.0, profile_h2, rep)
    assert not flags["in_N_beta"]
    # the maximized value is scale invariant, the margin keeps holding
    assert flags["in_tilde_X"]


def test_residual_max_zero_field(grid_n1):
    assert af.residual_max(grid_n1, 5.0, np.zeros((2, grid_n1.n_points))) == 0.0


def test_residual_max_second_order():
    # the discrete defect of the continuum solution halves twice per
    # refinement
    errs = []
    for n in (513, 1025):
        g = af.build_grid(1, n, 16.0)
        u = np.sqrt(2.0) / np.cosh(g.nodes)
        errs.append(af.residual_max(g, 0.0, u[None, :]))
    ratio = errs[0] / errs[1]
    assert 2.5 < ratio < 6.0


def test_build_report_round_trip(tmp_path, guess_h2, profile_h2):
    rep = af.maximize_phi(2.0, guess_h2)
    diag = af.build_report(2.0, guess_h2, profile_h2, rep)
    assert diag.d_sigma == 0.0
    assert diag.c_infinity_ref == profile_h2.c_value
    assert diag.energy == pytest.approx(rep.m_value, rel=1e-9)
    assert len(diag.per_pulse_norms) == 2
    d = diag.to_dict()
    assert set(d) == {
        "d_sigma", "energy", "c_infinity_ref", "per_pulse_norms",
        "overlap_matrix", "beta_overlap_matrix", "lambda_bar",
        "membership", "residual_max",
    }
    out = tmp_path / "report.json"
    diag.to_json(out)
    blob = json.loads(out.read_text())
    assert blob["membership"]["in_N_beta"] is True
    assert blob["lambda_bar"] == pytest.approx(list(diag.lambda_bar))


def test_sweep_rows_and_csv(tmp_path, profile_h2, assignment_h2):
    cfg = af.SolverConfig(beta_schedule=(1.0, 10.0))
    recs = af.continuation(profile_h2, assignment_h2, cfg)
    rows = [sweep_row(r) for r in recs]
    for row, rec in zip(rows, recs):
        assert tuple(row) == SWEEP_COLUMNS
        assert row["beta"] == rec.beta
        assert row["beta_times_max_overlap"] == pytest.approx(
            rec.beta * row["max_overlap"], rel=1e-15
        )
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, recs)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 1 + len(recs)
    back = [float(x) for x in lines[1].split(",")]
    assert back[0] == 1.0
    assert back[1] == recs[0].energy
