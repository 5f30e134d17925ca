"""Pulse ensembles and the finite-dimensional scaling energy.

An ensemble is h nonnegative pulses tied to an assignment; scaling pulse l
by lambda_l and summing per component gives the coupled energy as a
function of the scaling vector.  The maximizer lambda_bar over the
positive orthant and its value certify each continuation stage;
lambda_bar = 1 signals a constrained critical point.

The scaling energy is a quartic polynomial in the scalings whose
coefficients are pulse integrals; the maximizer iterates on that form,
while `phi` and the reported maximum are evaluated on the grid.

Scaling vectors are indexed by bump order l = 1..h.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache

import numpy as np

from .assignment import Assignment
from .errors import (
    ConfigError,
    DegeneratePulse,
    NonConvergence,
    SaddleScaling,
    UnboundedEnergy,
)
from .grid import RadialGrid, h1_inner, h1_norm_sq, normal_power

# gradient norm of the scaling energy under which its maximizer stops
GRADIENT_TOL = 1e-10


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
        k = self.assignment.k
        U = np.zeros((k, self.grid.n_points))
        for l, i in enumerate(self.assignment.sigma):
            c = 1.0 if lam is None else lam[l]
            U[i - 1] += c * self.pulses[l]
        return U


@dataclass
class MaximizerReport:
    """The scaling maximizer lambda_bar and the maximum phi(lambda_bar).
    `maximize_phi` returns one only at a maximum: a stationary point whose
    Hessian is not negative definite raises SaddleScaling instead."""

    lambda_bar: np.ndarray
    m_value: float


def overlap_matrix(grid: RadialGrid, U: np.ndarray) -> np.ndarray:
    """The symmetric k x k matrix of int U_i^2 U_j^2, zero on the
    diagonal."""
    k = U.shape[0]
    w = grid.quad_weights
    ovl = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            ovl[i, j] = ovl[j, i] = np.dot(w, U[i] ** 2 * U[j] ** 2)
    return ovl


def coupled_energy(grid: RadialGrid, beta: float, U: np.ndarray) -> float:
    """Energy of component fields: sum of the single-field free energies
    plus the quartic cross term weighted by beta/4."""
    k = U.shape[0]
    w = grid.quad_weights
    val = 0.0
    for i in range(k):
        val += (0.5 * h1_norm_sq(grid, U[i])
                - 0.25 * np.dot(w, normal_power(U[i], 4)))
    for x in overlap_matrix(grid, U)[~np.eye(k, dtype=bool)]:
        val += 0.25 * beta * x
    return float(val)


def phi(beta: float, ensemble: PulseEnsemble, lam) -> float:
    """The scaling energy: coupled energy of the lambda-scaled ensemble."""
    lam = np.asarray(lam, dtype=float)
    return coupled_energy(ensemble.grid, beta, ensemble.components(lam))


def _tensors(beta, ensemble):
    """Q and D of phi(lam) = 1/2 lam.Q.lam + 1/4 D[lam, lam, lam, lam].

    Q is the H1 Gram matrix of the pulses, masked to pairs in one
    component.  D is the Gram matrix of the pulse products P_l P_s: a
    quartic term pairs two same-component products, with weight -1 when
    both lie in one component and +beta when they lie in two; products
    that mix components never occur, so they are not formed and their
    entries are 0.  D is symmetrized over the three pairings, so its
    contractions give the gradient and Hessian.
    """
    grid = ensemble.grid
    P = ensemble.pulses
    h = ensemble.assignment.h
    comp = np.asarray(ensemble.assignment.sigma)
    same = comp[:, None] == comp[None, :]
    Q = np.zeros((h, h))
    for l in range(h):
        for s in range(l, h):
            if same[l, s]:
                Q[l, s] = Q[s, l] = h1_inner(grid, P[l], P[s])
    l, s = np.nonzero(same)  # the same-component products P_l P_s
    W = P[l] * P[s]
    pair = comp[l]
    weight = np.where(pair[:, None] == pair[None, :], -1.0, beta)
    D = np.zeros((h * h, h * h))
    D[np.ix_(l * h + s, l * h + s)] = weight * ((W * grid.quad_weights) @ W.T)
    D = D.reshape(h, h, h, h)
    D = (D + D.transpose(0, 2, 1, 3) + D.transpose(0, 3, 2, 1)) / 3.0
    return Q, D


def _poly(Q, D, lam):
    """Value, gradient and Hessian of the scaling energy polynomial."""
    D2 = D @ lam @ lam
    D3 = D2 @ lam
    return (0.5 * lam @ Q @ lam + 0.25 * lam @ D3, Q @ lam + D3, Q + 3.0 * D2)


def _stationary(Q, lam, gn):
    """Saddle stationarity: gn within GRADIENT_TOL of zero relative to the
    gradient's scale |Q lam|.

    At a converged branch state the gradient at the ones vector is
    roundoff of terms of size |Q lam|, and its size depends on the path
    that reached the state: 6.6e-12 to 6.8e-9 on the reference problem at
    beta = 1 to 3, where |Q lam| is 280 to 370.  An absolute threshold
    would type a saddle by chance.
    """
    return gn <= GRADIENT_TOL * max(1.0, float(np.linalg.norm(Q @ lam)))


@cache
def _rays(h: int) -> np.ndarray:
    """64 fixed unit rays in the positive orthant of R^h, read-only:
    |gauss(0, 1)| from the standard library's generator seeded 1905,
    since numpy.random would load OpenSSL (about 5 MB) to draw them."""
    draw = random.Random(1905)
    rays = np.abs([[draw.gauss(0.0, 1.0) for _ in range(h)] for _ in range(64)])
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    rays.flags.writeable = False
    return rays


def maximize_phi(beta: float, ensemble: PulseEnsemble, x0=None) -> MaximizerReport:
    """Maximize the scaling energy over positive scalings.

    Modified Newton from the ones vector (or x0) on the polynomial form
    of phi, built once per call, so an iterate costs O(h^4) and no grid
    pass; backtracking keeps positivity.  Raises DegeneratePulse on a
    vanishing pulse, UnboundedEnergy when one of 64 fixed rays (`_rays`,
    the standard library's, seed 1905) has nonnegative quartic growth or
    the iterates diverge, SaddleScaling at a stationary point whose
    Hessian is not negative definite (see `_stationary`), and
    NonConvergence when the gradient norm does not fall under GRADIENT_TOL.
    """
    h = ensemble.assignment.h
    Q, D = _tensors(beta, ensemble)
    for l in range(h):
        if np.sqrt(Q[l, l]) < 1e-10:
            raise DegeneratePulse(f"pulse {l + 1} has numerically zero norm")
    rays = _rays(h)
    if np.any(np.einsum("lspq,xl,xs,xp,xq->x", D, rays, rays, rays, rays) >= 0):
        raise UnboundedEnergy(
            "scaling energy grows without bound along a sampled ray"
        )

    lam = np.ones(h) if x0 is None else np.asarray(x0, dtype=float).copy()
    if np.any(lam <= 0):
        raise ConfigError("starting scaling must be positive")
    val, G, H = _poly(Q, D, lam)
    for _ in range(120):
        gn = np.linalg.norm(G)
        ev, V = np.linalg.eigh(H)
        # stop at a maximum, on divergence, or at a stationary saddle
        if (gn < GRADIENT_TOL * 1e-2 or np.max(lam) > 1e8
                or (ev.max() >= 0 and _stationary(Q, lam, gn))):
            break
        # modified Newton: cap eigenvalues below zero so the step is
        # always an ascent direction, pure Newton inside the basin
        if ev.max() < 0:
            d = np.linalg.solve(H, -G)
        else:
            cap = -max(1e-8, 1e-2 * float(np.abs(ev).max()))
            d = -(V * (1.0 / np.minimum(ev, cap))) @ (V.T @ G)
        slope = float(np.dot(d, G))
        t = 1.0
        for _ in range(50):
            ln = lam + t * d
            if np.all(ln > 1e-12):
                vn, Gn, Hn = _poly(Q, D, ln)
                # once value gains sink under roundoff, polish by
                # gradient decrease, but never trade value away
                if vn >= val + 1e-4 * t * slope or (
                        np.linalg.norm(Gn) < (1 - 0.25 * t) * gn
                        and vn >= val - 1e-12 * max(1.0, abs(val))):
                    lam, val, G, H = ln, vn, Gn, Hn
                    break
            t *= 0.5
        else:
            break
    if np.max(lam) > 1e8:
        raise UnboundedEnergy("scaling iterates diverged")
    gn = float(np.linalg.norm(G))
    ev = np.linalg.eigvalsh(H)
    if ev.max() >= 0 and _stationary(Q, lam, gn):
        raise SaddleScaling(ev)
    if gn >= GRADIENT_TOL:
        raise NonConvergence(
            f"gradient norm {gn:.2e} above tolerance {GRADIENT_TOL:.1e}"
        )
    return MaximizerReport(lambda_bar=lam,
                           m_value=float(phi(beta, ensemble, lam)))

