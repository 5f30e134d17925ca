"""Pulse ensembles and the finite-dimensional scaling energy.

An ensemble is h nonnegative pulses tied to an assignment; scaling pulse l
by lambda_l and summing per component gives the coupled energy as a
function of the scaling vector.  The maximizer lambda_bar over the
positive orthant is the gateway to the constrained minimization: its
value is the quantity the outer solver descends, and lambda_bar = 1
signals a constrained critical point.

Scaling vectors are indexed by bump order l = 1..h; the double index
(i, m) of the assignment maps to l through sigma_tilde.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .assignment import Assignment
from .errors import ConfigError, DegeneratePulse, NonConvergence, UnboundedEnergy
from .grid import RadialGrid, h1_inner, h1_norm_sq, lp_integral


@dataclass
class PulseEnsemble:
    """h nonnegative pulses on one grid, tied to an assignment."""

    grid: RadialGrid
    assignment: Assignment
    pulses: np.ndarray  # shape (h, n), bump order

    def __post_init__(self) -> None:
        self.pulses = np.asarray(self.pulses, dtype=float)
        h = self.assignment.h
        if self.pulses.shape != (h, self.grid.n_points):
            raise ConfigError(
                f"pulses shape {self.pulses.shape} != ({h}, {self.grid.n_points})"
            )
        if np.any(self.pulses < 0):
            raise ConfigError("pulses must be nonnegative")

    def components(self, lam=None) -> np.ndarray:
        """U_i = sum of (scaled) pulses assigned to component i; shape (k, n)."""
        if isinstance(lam, LambdaVector):
            lam = lam.values
        k = self.assignment.k
        U = np.zeros((k, self.grid.n_points))
        for l, i in enumerate(self.assignment.sigma):
            c = 1.0 if lam is None else lam[l]
            U[i - 1] += c * self.pulses[l]
        return U


@dataclass
class LambdaVector:
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if np.any(self.values <= 0) or not np.all(np.isfinite(self.values)):
            raise ConfigError("scaling coefficients must be positive and finite")


@dataclass
class MaximizerReport:
    lambda_bar: LambdaVector
    m_value: float
    gradient_norm: float
    hessian_negdef: bool
    min_lambda: float
    radius_sq: float
    miranda_box: Optional[tuple] = None

    def to_dict(self) -> dict:
        return {
            "lambda_bar": [float(x) for x in self.lambda_bar.values],
            "m_value": self.m_value,
            "gradient_norm": self.gradient_norm,
            "hessian_negdef": self.hessian_negdef,
            "min_lambda": self.min_lambda,
            "radius_sq": self.radius_sq,
            "miranda_box": list(self.miranda_box) if self.miranda_box else None,
        }


def coupled_energy(grid: RadialGrid, beta: float, U: np.ndarray) -> float:
    """Energy of component fields: sum of the single-field free energies
    plus the quartic cross term weighted by beta/4."""
    k = U.shape[0]
    w = grid.quad_weights
    val = 0.0
    for i in range(k):
        val += 0.5 * h1_norm_sq(grid, U[i]) - 0.25 * np.dot(w, U[i] ** 4)
    for i in range(k):
        for j in range(k):
            if i != j:
                val += 0.25 * beta * np.dot(w, U[i] ** 2 * U[j] ** 2)
    return float(val)


def j_beta(beta: float, ensemble: PulseEnsemble, lam=None) -> float:
    return coupled_energy(ensemble.grid, beta, ensemble.components(lam))


def phi(beta: float, ensemble: PulseEnsemble, lam) -> float:
    """The scaling energy: coupled energy of the lambda-scaled ensemble."""
    lam = np.asarray(lam, dtype=float)
    return j_beta(beta, ensemble, lam)


def grad_phi(beta: float, ensemble: PulseEnsemble, lam) -> np.ndarray:
    G, _ = _grad_hess(beta, ensemble, np.asarray(lam, float), need_hess=False)
    return G


def hess_phi(beta: float, ensemble: PulseEnsemble, lam) -> np.ndarray:
    _, H = _grad_hess(beta, ensemble, np.asarray(lam, float), need_hess=True)
    return H


def _grad_hess(beta, ensemble, lam, need_hess=True):
    grid = ensemble.grid
    P = ensemble.pulses
    comp = ensemble.assignment.sigma  # 1-based component per bump
    k = ensemble.assignment.k
    h = ensemble.assignment.h
    w = grid.quad_weights
    U = ensemble.components(lam)
    T = [sum(U[j] ** 2 for j in range(k) if j != i) for i in range(k)]
    G = np.empty(h)
    for l in range(h):
        i = comp[l] - 1
        G[l] = (
            h1_inner(grid, U[i], P[l])
            - np.dot(w, U[i] ** 3 * P[l])
            + beta * np.dot(w, U[i] * P[l] * T[i])
        )
    if not need_hess:
        return G, None
    H = np.empty((h, h))
    for l in range(h):
        il = comp[l] - 1
        for s in range(l, h):
            js = comp[s] - 1
            if il == js:
                H[l, s] = (
                    h1_inner(grid, P[l], P[s])
                    - 3.0 * np.dot(w, U[il] ** 2 * P[l] * P[s])
                    + beta * np.dot(w, P[l] * P[s] * T[il])
                )
            else:
                H[l, s] = 2.0 * beta * np.dot(w, U[il] * U[js] * P[l] * P[s])
            H[s, l] = H[l, s]
    return G, H


def _quartic_along(beta, ensemble, direction) -> float:
    """Leading quartic coefficient of phi along the ray t*direction;
    nonnegative values mean the energy grows without bound on the ray."""
    D = ensemble.components(direction)
    k = ensemble.assignment.k
    w = ensemble.grid.quad_weights
    val = 0.0
    for i in range(k):
        val -= np.dot(w, D[i] ** 4)
        for j in range(k):
            if j != i:
                val += beta * np.dot(w, D[i] ** 2 * D[j] ** 2)
    return float(val)


def maximize_phi(beta: float, ensemble: PulseEnsemble, x0=None, tol: float = 1e-10,
                 rng=None, compute_miranda: bool = False) -> MaximizerReport:
    """Maximize the scaling energy over positive scalings.

    Safeguarded Newton from the ones vector (or x0) with positivity
    backtracking; a log-parametrized ascent reopens progress when the
    Newton direction stalls.  Raises UnboundedEnergy when a sampled ray
    has nonnegative quartic growth, DegeneratePulse on a vanishing pulse,
    NonConvergence when the gradient tolerance is not reached.
    """
    h = ensemble.assignment.h
    grid = ensemble.grid
    for l in range(h):
        if np.sqrt(h1_norm_sq(grid, ensemble.pulses[l])) < 1e-10:
            raise DegeneratePulse(f"pulse {l + 1} has numerically zero norm")
    if rng is None:
        rng = np.random.default_rng(1905)
    dirs = np.abs(rng.standard_normal((64, h)))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for d in dirs:
        if _quartic_along(beta, ensemble, d) >= 0:
            raise UnboundedEnergy(
                "scaling energy grows without bound along a sampled ray"
            )

    lam = np.ones(h) if x0 is None else np.asarray(x0, dtype=float).copy()
    if np.any(lam <= 0):
        raise ConfigError("starting scaling must be positive")

    def ascend_log(lam, rounds=200):
        # gradient ascent in theta = log(lambda); keeps positivity for free
        th = np.log(lam)
        G, _ = _grad_hess(beta, ensemble, np.exp(th), need_hess=False)
        val = phi(beta, ensemble, np.exp(th))
        step = 1.0
        for _ in range(rounds):
            gth = G * np.exp(th)
            gn = np.linalg.norm(gth)
            if gn < 0.1 * tol:
                break
            ok = False
            for _ in range(40):
                thn = th + step * gth / max(gn, 1e-30)
                valn = phi(beta, ensemble, np.exp(thn))
                if valn > val + 1e-16:
                    th, val = thn, valn
                    step *= 1.3
                    ok = True
                    break
                step *= 0.5
            if not ok:
                break
            G, _ = _grad_hess(beta, ensemble, np.exp(th), need_hess=False)
        return np.exp(th)

    for attempt in range(4):
        for _ in range(120):
            G, H = _grad_hess(beta, ensemble, lam, need_hess=True)
            gn = np.linalg.norm(G)
            if gn < tol * 1e-2 or np.max(lam) > 1e8:
                break
            # modified Newton: cap eigenvalues below zero so the step is
            # always an ascent direction, pure Newton inside the basin
            ev, V = np.linalg.eigh(H)
            if ev.max() < 0:
                d = np.linalg.solve(H, -G)
            else:
                cap = -max(1e-8, 1e-2 * float(np.abs(ev).max()))
                d = -(V * (1.0 / np.minimum(ev, cap))) @ (V.T @ G)
            slope = float(np.dot(d, G))
            if slope <= 0:
                d = G / max(gn, 1e-30)
                slope = gn
            val = phi(beta, ensemble, lam)
            t = 1.0
            moved = False
            for _ in range(50):
                ln = lam + t * d
                if np.all(ln > 1e-12):
                    vn = phi(beta, ensemble, ln)
                    if vn >= val + 1e-4 * t * slope:
                        lam = ln
                        moved = True
                        break
                    # once value gains sink under roundoff, polish by
                    # gradient decrease, but never trade value away
                    Gn, _ = _grad_hess(beta, ensemble, ln, need_hess=False)
                    if (np.linalg.norm(Gn) < (1 - 0.25 * t) * gn
                            and vn >= val - 1e-12 * max(1.0, abs(val))):
                        lam = ln
                        moved = True
                        break
                t *= 0.5
            if not moved:
                break
        if np.max(lam) > 1e8:
            raise UnboundedEnergy("scaling iterates diverged")
        G, H = _grad_hess(beta, ensemble, lam, need_hess=True)
        if np.linalg.norm(G) < tol:
            ev, V = np.linalg.eigh(H)
            if ev.max() < 0:
                break
            # stationary but not a maximum: both signs along the top
            # eigenvector go uphill, pick one that keeps positivity
            val = phi(beta, ensemble, lam)
            nudged = False
            v = V[:, int(np.argmax(ev))]
            for s in (1e-2, -1e-2, 1e-1, -1e-1):
                ln = np.maximum(lam + s * v, 1e-12)
                if phi(beta, ensemble, ln) > val:
                    lam = ln
                    nudged = True
                    break
            if nudged:
                continue
            break
        lam = ascend_log(lam)
    G, H = _grad_hess(beta, ensemble, lam, need_hess=True)
    gn = float(np.linalg.norm(G))
    if gn >= tol:
        raise NonConvergence(f"gradient norm {gn:.2e} above tolerance {tol:.1e}")
    box = miranda_box(beta, ensemble) if compute_miranda else None
    return MaximizerReport(
        lambda_bar=LambdaVector(lam),
        m_value=float(phi(beta, ensemble, lam)),
        gradient_norm=gn,
        hessian_negdef=bool(np.linalg.eigvalsh(H).max() < 0),
        min_lambda=float(np.min(lam)),
        radius_sq=float(np.dot(lam, lam)),
        miranda_box=box,
    )


def miranda_box(beta: float, ensemble: PulseEnsemble) -> Optional[tuple]:
    """Dyadic box [t, T] whose faces carry the sign pattern that pins a
    maximizer inside.

    Requires componentwise disjoint supports; on overlap returns None
    (absence is reported, never fatal).  The face function of pulse l is
    F_l(s) = s^2 ||u_l||^2 - s^4 int u_l^4 restricted to the pulse's own
    support, which decouples from the other coordinates, so each face
    check is one sign evaluation per pulse.
    """
    grid = ensemble.grid
    U = ensemble.components()
    k = ensemble.assignment.k
    w = grid.quad_weights
    scale = max(np.dot(w, U[i] ** 4) for i in range(k))
    for i in range(k):
        for j in range(i + 1, k):
            if np.dot(w, U[i] ** 2 * U[j] ** 2) > 1e-12 * max(scale, 1e-30):
                return None
    a = np.array([h1_norm_sq(grid, p) for p in ensemble.pulses])
    b = np.array([lp_integral(grid, p, 4) for p in ensemble.pulses])
    if np.any(a <= 0) or np.any(b <= 0):
        return None
    lam_hat = np.sqrt(a / b)
    for q in range(1, 21):
        t, T = 2.0**-q, 2.0**q
        if t < lam_hat.min() and T > lam_hat.max():
            # low face must be uphill, high face downhill
            if np.all(t**2 * a - t**4 * b > 0) and np.all(T**2 * a - T**4 * b < 0):
                return (float(t), float(T))
    return None
