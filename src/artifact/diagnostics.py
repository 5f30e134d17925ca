"""Health checks for candidate states: distances to the segregated
profile, overlap strengths, scaling state, and set membership flags."""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .assignment import Assignment
from .errors import ConfigError
from .grid import RadialGrid, h1_norm_sq
from .nehari import MaximizerReport, PulseEnsemble, coupled_energy
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


@dataclass
class DiagnosticsReport:
    d_sigma: float
    energy: float
    c_infinity_ref: float
    per_pulse_norms: np.ndarray
    overlap_matrix: np.ndarray
    beta_overlap_matrix: np.ndarray
    lambda_bar: np.ndarray
    membership: dict
    residual_max: float

    def to_dict(self) -> dict:
        return {
            "d_sigma": self.d_sigma,
            "energy": self.energy,
            "c_infinity_ref": self.c_infinity_ref,
            "per_pulse_norms": [float(x) for x in self.per_pulse_norms],
            "overlap_matrix": [[float(x) for x in r] for r in self.overlap_matrix],
            "beta_overlap_matrix": [
                [float(x) for x in r] for r in self.beta_overlap_matrix
            ],
            "lambda_bar": [float(x) for x in self.lambda_bar],
            "membership": dict(self.membership),
            "residual_max": self.residual_max,
        }

    def to_json(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2)
            f.write("\n")


def d_sigma_distance(ensemble: PulseEnsemble, profile: NodalProfile,
                     assignment: Assignment) -> float:
    """Root sum of squared H1 pulse-to-bump distances."""
    if assignment is not ensemble.assignment and assignment.sigma != ensemble.assignment.sigma:
        raise ConfigError("assignment does not match the ensemble")
    return pulse_distance(ensemble, profile)


def overlap_report(beta: float, grid: RadialGrid, components: np.ndarray):
    """Pairwise squared-density overlaps and their beta-weighted copy."""
    U = np.asarray(components, float)
    k = U.shape[0]
    w = grid.quad_weights
    ovl = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            if i != j:
                ovl[i, j] = np.dot(w, U[i] ** 2 * U[j] ** 2)
    return ovl, beta * ovl


def residual_max(grid: RadialGrid, beta: float, components: np.ndarray) -> float:
    """Max-norm of the discrete residual over all components."""
    R = residual_components(grid, beta, np.asarray(components, float))
    return float(np.max(np.abs(R)))


def membership(beta: float, profile: NodalProfile,
               maximizer_report: MaximizerReport) -> dict:
    """Set membership flags of a state's diagnostics (`build_report`);
    no stage acceptance reads them.

    in_tilde_X: maximized energy under the segregated value plus the
        coupling-dependent margin min(1, 1/beta).
    in_N_beta: every scaling factor is 1 within tolerance.
    """
    m_val = maximizer_report.m_value
    lam = maximizer_report.lambda_bar.values
    return {
        "in_tilde_X": bool(
            m_val < profile.c_value + (min(1.0, 1.0 / beta) if beta > 0 else 1.0)
        ),
        "in_N_beta": bool(np.max(np.abs(lam - 1.0)) < LAMBDA_UNIT_TOL),
    }


def build_report(beta: float, ensemble: PulseEnsemble,
                 profile: NodalProfile,
                 maximizer_report: MaximizerReport) -> DiagnosticsReport:
    grid = ensemble.grid
    lam = maximizer_report.lambda_bar.values
    U = ensemble.components(lam)
    ovl, bovl = overlap_report(beta, grid, U)
    norms = np.array(
        [np.sqrt(h1_norm_sq(grid, p)) for p in ensemble.pulses]
    )
    return DiagnosticsReport(
        d_sigma=pulse_distance(ensemble, profile),
        energy=coupled_energy(grid, beta, U),
        c_infinity_ref=profile.c_value,
        per_pulse_norms=norms,
        overlap_matrix=ovl,
        beta_overlap_matrix=bovl,
        lambda_bar=lam.copy(),
        membership=membership(beta, profile, maximizer_report),
        residual_max=residual_max(grid, beta, U),
    )


def sweep_row(record: SolutionRecord) -> dict:
    """One summary row per continuation stage."""
    ovl = record.overlaps
    mx = float(np.max(ovl)) if ovl.size else 0.0
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
