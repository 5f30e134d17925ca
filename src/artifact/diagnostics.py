"""Health checks for candidate states: distances to the segregated
profile, overlap strengths, scaling state, and set membership flags,
gathered by `build_report` into one JSON-ready dict per state, and the
one-row-per-stage sweep summary."""
from __future__ import annotations

import numpy as np

from .grid import h1_norm_sq
from .nehari import (
    MaximizerReport,
    PulseEnsemble,
    coupled_energy,
    overlap_matrix,
)
from .scalar import NodalProfile
from .solver import (
    LAMBDA_UNIT_TOL,
    SolutionRecord,
    pulse_distance,
    residual_components,
)

SWEEP_COLUMNS = (
    "beta",
    "energy",
    "residual",
    "d_to_K",
    "max_overlap",
    "beta_times_max_overlap",
    "min_lambda_bar",
)


def membership(beta: float, profile: NodalProfile,
               maximizer_report: MaximizerReport) -> dict:
    """Set membership flags of a state's diagnostics (`build_report`);
    no stage acceptance reads them.

    in_tilde_X: maximized energy under the segregated value plus the
        coupling-dependent margin min(1, 1/beta).
    in_N_beta: every scaling factor is 1 within tolerance.
    """
    m_val = maximizer_report.m_value
    lam = maximizer_report.lambda_bar
    return {
        "in_tilde_X": bool(
            m_val < profile.c_value + (min(1.0, 1.0 / beta) if beta > 0 else 1.0)
        ),
        "in_N_beta": bool(np.max(np.abs(lam - 1.0)) < LAMBDA_UNIT_TOL),
    }


def build_report(beta: float, ensemble: PulseEnsemble,
                 profile: NodalProfile,
                 maximizer_report: MaximizerReport) -> dict:
    """The diagnostics of a state, as the JSON object that run
    directories and `report` hold."""
    grid = ensemble.grid
    lam = maximizer_report.lambda_bar
    U = ensemble.components(lam)
    ovl = overlap_matrix(grid, U)
    return {
        "d_sigma": pulse_distance(ensemble, profile),
        "energy": coupled_energy(grid, beta, U),
        "c_infinity_ref": profile.c_value,
        "per_pulse_norms": [float(np.sqrt(h1_norm_sq(grid, p)))
                            for p in ensemble.pulses],
        "overlap_matrix": ovl.tolist(),
        "beta_overlap_matrix": (beta * ovl).tolist(),
        "lambda_bar": lam.tolist(),
        "membership": membership(beta, profile, maximizer_report),
        "residual_max": float(np.max(np.abs(
            residual_components(grid, beta, U)))),
    }


def sweep_row(record: SolutionRecord) -> dict:
    """One summary row per continuation stage."""
    mx = float(np.max(record.overlaps))
    return {
        "beta": record.beta,
        "energy": record.energy,
        "residual": record.residual,
        "d_to_K": record.d_to_K,
        "max_overlap": mx,
        "beta_times_max_overlap": record.beta * mx,
        "min_lambda_bar": float(np.min(record.lambda_bar)),
    }


def write_sweep_csv(path, records) -> None:
    with open(path, "w") as f:
        f.write(",".join(SWEEP_COLUMNS) + "\n")
        for rec in records:
            row = sweep_row(rec)
            f.write(",".join("%.17g" % row[c] for c in SWEEP_COLUMNS) + "\n")
