"""Radial discretization of [0, r_max] for dimensions 1, 2, 3.

Uniform mesh, trapezoid quadrature against the surface measure
s_N r^(N-1) dr, and a conservative tridiagonal stencil for -Lap+1 that is
exactly self-adjoint under the quadrature weights.  Functions are radial
representatives: in dimension 1 they are even on the whole line, so the
measure carries a factor 2 for the two half-lines.

One function, ``flux_form``, builds masses and rows from per-edge lengths
and conductances: the grid's and those of every partition cell.
"""
from __future__ import annotations

import numbers
import os
import sys
from dataclasses import dataclass, field
from functools import cache
from importlib import import_module
from importlib.machinery import ModuleSpec, PathFinder
from importlib.util import module_from_spec

import numpy as np
import scipy
from numpy.linalg import LinAlgError

from .errors import ConfigError


def _load_scipy(subpackage: str, name: str):
    """``scipy.<subpackage>.<name>``, loaded from its file without the
    subpackage's ``__init__``: ``scipy.linalg``'s costs about 0.2 s (its
    ``from numpy import *`` loads numpy's lazy ``f2py`` and ``testing``),
    and ``scipy.integrate``'s imports ``linalg``, ``sparse``, ``optimize``
    and ``special``, more than half of a shooting run's peak memory.  An
    empty package on the subpackage's directory stands in while the module
    and its relative imports load; every ``sys.modules`` entry under the
    subpackage goes afterwards, so a later import of the package runs as
    usual (CPython caches extensions: ``lapack.dgtsv`` and so on are the
    objects loaded here).  Without the file (a meson editable install),
    once the package is imported, or on an ImportError under the stand-in,
    the package provides the module.
    """
    package, full = f"scipy.{subpackage}", f"scipy.{subpackage}.{name}"
    if package not in sys.modules:
        path = [os.path.join(scipy.__path__[0], subpackage)]
        spec = PathFinder.find_spec(full, path)
        if spec is not None:
            stand_in = ModuleSpec(package, None, is_package=True)
            stand_in.submodule_search_locations = path
            sys.modules[package] = module_from_spec(stand_in)
            try:
                sys.modules[full] = module = module_from_spec(spec)
                spec.loader.exec_module(module)
                return module
            except ImportError:
                pass
            finally:
                for key in [k for k in sys.modules if f"{k}.".startswith(f"{package}.")]:
                    del sys.modules[key]
    return import_module(full)


_flapack = _load_scipy("linalg", "_flapack")
dgtsv, dgttrf, dgttrs = _flapack.dgtsv, _flapack.dgttrf, _flapack.dgttrs
dgbtrf, dgbtrs = _flapack.dgbtrf, _flapack.dgbtrs

SPHERE_MEASURE = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}
# a converged residual row keeps roundoff under this multiple of its terms
ROUNDOFF = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class RadialGrid:
    """Immutable radial mesh with quadrature weights and operator bands.

    nodes[0] = 0 and nodes[-1] = r_max carry halved trapezoid weights;
    for dimension >= 2 the axis weight is exactly zero.  edge_weights[j]
    is the conductance of the interval (nodes[j], nodes[j+1]) in the flux
    form of the radial Laplacian; with the edge length dr it gives
    ``flux_form`` the grid's quadrature weights and operator bands.
    """

    dimension: int
    n_points: int
    r_max: float
    nodes: np.ndarray
    dr: float
    quad_weights: np.ndarray
    edge_weights: np.ndarray
    op_lower: np.ndarray = field(repr=False)
    op_diag: np.ndarray = field(repr=False)
    op_upper: np.ndarray = field(repr=False)

    @property
    def sphere_measure(self) -> float:
        return SPHERE_MEASURE[self.dimension]


def build_grid(dimension: int, n_points: int = 4096, r_max: float = 40.0) -> RadialGrid:
    """Construct the uniform radial grid with n_points nodes on [0, r_max]:
    ``flux_form`` on the nodes below r_max, as a ball cell, then the half
    mass and the identity row (Dirichlet) of the node at r_max."""
    # True is an Integral equal to 1; numpy integers are Integrals too
    if (not isinstance(dimension, numbers.Integral) or dimension is True
            or dimension not in (1, 2, 3)):
        raise ConfigError(f"dimension must be 1, 2 or 3, got {dimension}")
    if not isinstance(n_points, numbers.Integral):
        raise ConfigError(f"n_points must be an integer, got {n_points}")
    if n_points < 16:
        raise ConfigError(f"n_points must be at least 16, got {n_points}")
    if (not isinstance(r_max, numbers.Real) or isinstance(r_max, bool)
            or not 0 < r_max < np.inf):
        raise ConfigError(f"r_max must be positive and finite, got {r_max!r}")
    n = int(n_points)
    r = np.linspace(0.0, float(r_max), n)
    dr = r[1] - r[0]
    g = conductance(dimension, r[:-1], r[1:])
    w, lo, di, up = flux_form(dimension, r[:-1], np.full(n, dr),
                              np.append(0.0, g), axis=True)
    return RadialGrid(
        dimension=int(dimension),
        n_points=n,
        r_max=float(r_max),
        nodes=r,
        dr=float(dr),
        quad_weights=np.append(w, 0.5 * SPHERE_MEASURE[dimension]
                               * r[-1] ** (dimension - 1) * dr),
        edge_weights=g,
        op_lower=np.append(lo[1:], 0.0),
        op_diag=np.append(di, 1.0),
        op_upper=up,
    )


def conductance(dimension: int, ra, rb):
    """Conductance of the edge (ra, rb) in the flux form of the radial
    Laplacian: 1 on the line, the harmonic mean of r in the plane (zero
    on the axis edge), the product in space."""
    if dimension == 1:
        return np.ones(np.shape(ra))
    if dimension == 2:
        return 2.0 * ra * rb / (ra + rb)
    return ra * rb


def conductance_slopes(dimension: int, ra, rb):
    """First and second derivatives of ``conductance`` in rb."""
    if dimension == 2:
        return 2.0 * ra * ra / (ra + rb) ** 2, -4.0 * ra * ra / (ra + rb) ** 3
    return (0.0 if dimension == 1 else ra), 0.0


def flux_form(dimension: int, r, elen, ge, axis: bool):
    """Masses and rows (wq, lo, di, up) of -Lap+1 on the m unknowns r.

    Edge q, of length elen[q] and conductance ge[q], joins unknowns q-1
    and q; edges 0 and m reach a zero boundary and may be cut.  wq is the
    trapezoid share of the two edges, and the rows, each array of length
    m, are self-adjoint under wq: lo[q] and up[q] weigh the values across
    edges q and q+1.  With ``axis``, r[0] = 0, edge 0 is a stand-in that
    adds no mass (give it ge[0] = 0 on a positive length), and row 0 comes
    from symmetry, -Lap u(0) = -N u''(0), with lo[0] = 0.
    """
    sN = SPHERE_MEASURE[dimension]
    k = 1 if axis else 0
    left = elen[:-1].copy()
    left[:k] = 0.0
    wq = 0.5 * sN * r ** (dimension - 1) * (left + elen[1:])
    g = ge / elen
    lo, di, up = np.zeros((3, len(r)))
    di[k:] = sN * (g[k:-1] + g[k + 1 :]) / wq[k:] + 1.0
    lo[k:] = -sN * g[k:-1] / wq[k:]
    up[k:] = -sN * g[k + 1 :] / wq[k:]
    if axis:
        di[0] = 2.0 * dimension / elen[1] ** 2 + 1.0
        up[0] = -2.0 * dimension / elen[1] ** 2
    return wq, lo, di, up


def apply_tridiag(lo, di, up, u):
    """The tridiagonal matrix (lo, di, up) times u along u's last axis."""
    out = di * u
    out[..., :-1] += up * u[..., 1:]
    out[..., 1:] += lo * u[..., :-1]
    return out


def _check_finite(*arrays) -> None:
    for x in arrays:
        if not np.isfinite(x).all():
            raise ValueError("array must not contain infs or NaNs")


def _check_info(info: int) -> None:
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in LAPACK argument {-info}")


def solve_tridiag(lo, di, up, b):
    """Solve the tridiagonal system with bands (lo, di, up) for b, one
    right-hand side or the columns of an (n, k) array.

    Calls LAPACK ``gtsv`` directly, through ``scipy.linalg.lapack``'s
    wrapper (see `_load_scipy`).  ``scipy.linalg.solve_banded((1, 1),
    ...)`` ends in the same call, so the result is identical bit for bit;
    skipped are its (3, n) band copy and argument handling, which cost
    more than the solve itself at the sizes of the partition route's
    cells.  Like ``solve_banded`` it raises ValueError on a non-finite
    input and LinAlgError on a singular matrix, and it leaves the
    callers' arrays unmodified (f2py copies them).
    """
    _check_finite(lo, di, up, b)
    *_, x, info = dgtsv(lo, di, up, b)
    _check_info(info)
    return x


def factor_tridiag(lo, di, up):
    """LU-factor the tridiagonal matrix (lo, di, up) once; return solve(b).

    For a matrix that serves many right-hand sides: ``gttrf`` runs once
    and each solve is one ``gttrs`` on the stored factors.  They perform
    ``gtsv``'s eliminations in the same order, so ``solve(b)`` equals
    ``solve_tridiag(lo, di, up, b)`` bit for bit.  The bands are checked
    for finiteness once, each right-hand side on every call.
    """
    _check_finite(lo, di, up)
    dl, d, du, du2, ipiv, info = dgttrf(lo, di, up)
    _check_info(info)

    def solve(b):
        _check_finite(b)
        x, info = dgttrs(dl, d, du, du2, ipiv, b)
        _check_info(info)
        return x

    return solve


def converged(F, nf, tol, rows, u) -> bool:
    """The stopping rule of every Newton iteration: each row of the
    residual F at u, whose max norm is nf, satisfies
    |F_j| < max(tol, 4 eps rows_j(u)).

    rows_j(u) are the magnitudes of the terms that row j sums, such as
    |di u_j| + |u_j|^3: a converged row keeps roundoff of their size,
    which on fine grids (di ~ 1/dr^2) exceeds any fixed tol.  ``rows(u)``
    returns (bound, terms): a cheap upper bound of the largest row term,
    and a function that evaluates every row's terms.  The terms are
    evaluated only when the max-norm residual lies under 4 eps bound.
    """
    if nf < tol:
        return True
    bound, terms = rows(u)
    if nf >= ROUNDOFF * bound:
        return False
    return bool(np.all(np.abs(F) < np.maximum(tol, ROUNDOFF * terms())))


def accepts(nf, tol, rows, u) -> bool:
    """The verdict on a Newton iteration that stops short of
    ``converged``: its max-norm residual nf lies under tol or under the
    normwise roundoff 4 eps bound, the bound of ``rows(u)``.  On fine
    grids a row's error follows its neighbours' terms (~1/dr^2), not its
    own, and damped Newton cannot lower it further."""
    return nf < tol or nf < ROUNDOFF * rows(u)[0]


def newton(residual, factor, u, tol, maxit, rows):
    """Damped Newton for residual(u) = 0; returns (u, max-norm residual,
    steps, accepted).

    The iteration stops once u meets the rule of ``converged`` under tol
    and the caller's row terms ``rows``; when it stops short of that, its
    verdict is the rule of ``accepts``.  factor(u) returns solve(F), the
    Jacobian at u applied inversely.  A step u - t solve(F) halves t, up
    to 50 times, until the max-norm residual drops by the Armijo factor
    1 - t/4 or falls under tol (P. Deuflhard, Newton Methods for
    Nonlinear Problems, 2004); a step that finds neither ends the
    iteration.  The first t of a step is predicted from the last accepted
    one as min(1, 4 t), with t = 1 for the first step, a plain form of
    Deuflhard's predictor, which estimates t from the last step's
    contraction: far from the solution a damped step tends to follow a
    damped step, and the trial grows fourfold per step back to a full
    one.  On the beta = 1e4 anchor of a 13-stage sweep ((2, 2049, 30),
    sigma (1,2,1,3,2)) this takes 58 steps and 158 residuals, where
    restarting every step at t = 1 took 97 and 423.
    """
    F = residual(u)
    nf = float(np.max(np.abs(F)))
    t = 1.0
    for it in range(maxit):
        if converged(F, nf, tol, rows, u):
            return u, nf, it, True
        d = factor(u)(F)
        t = min(1.0, 4.0 * t)
        for _ in range(50):
            un = u - t * d
            Fn = residual(un)
            nn = float(np.max(np.abs(Fn)))
            if nn < (1.0 - 0.25 * t) * nf or nn < tol:
                break
            t *= 0.5
        else:
            return u, nf, it, accepts(nf, tol, rows, u)
        u, F, nf = un, Fn, nn
    return u, nf, maxit, accepts(nf, tol, rows, u)


def h1_inner(grid: RadialGrid, u, v) -> float:
    """H1 inner product from the gradient quadrature.

    Gradients are one-sided per interval (exact summation by parts against
    the operator bands for fields vanishing at r_max).
    """
    uu = np.asarray(u, dtype=float)
    vv = np.asarray(v, dtype=float)
    if uu.shape != (grid.n_points,) or vv.shape != (grid.n_points,):
        raise ConfigError("field does not match grid")
    du = (uu[1:] - uu[:-1]) / grid.dr
    dv = (vv[1:] - vv[:-1]) / grid.dr
    return float(
        grid.sphere_measure * grid.dr * np.dot(grid.edge_weights, du * dv)
        + np.dot(grid.quad_weights, uu * vv)
    )


def h1_norm_sq(grid: RadialGrid, u) -> float:
    return h1_inner(grid, u, u)


def lp_integral(grid: RadialGrid, u, p) -> float:
    """Integral of |u|^p over R^N via the trapezoid weights."""
    v = np.asarray(u, dtype=float)
    if v.shape != (grid.n_points,):
        raise ConfigError("field does not match grid")
    return float(np.dot(grid.quad_weights, np.abs(v) ** p))


@cache
def _normal_floor(p: int) -> float:
    """Smallest double x with x**p at least the smallest normal double.

    tiny**(1/p) itself is no such bound: 1/3 rounds below a third, which
    puts tiny**(1/3) 74 ulps above the cube root of tiny.  Start there and
    step down to the exact boundary of np.power."""
    tiny = np.finfo(float).tiny
    x = np.float64(tiny ** (1.0 / p))
    while np.power(np.nextafter(x, 0.0), p) >= tiny:
        x = np.nextafter(x, 0.0)
    while np.power(x, p) < tiny:
        x = np.nextafter(x, np.inf)
    return float(x)


def normal_power(u: np.ndarray, p: int) -> np.ndarray:
    """u**p where that is a normal double, 0 where it is subnormal.

    pow takes a slow path on every result that underflows, and at strong
    coupling about half of a state's values have cubes below tiny: on the
    reference sweep's beta = 1e4 state this takes 0.06 ms where u**3
    takes 1.0 ms (2-core Xeon, numpy 2.4).  Every other value is the same
    pow, bit for bit (u*u*u is not), and a dropped result, under 2.3e-308,
    vanishes beside the other terms of its row or integral, which are
    orders of magnitude larger.
    """
    return np.power(u, p, out=np.zeros_like(u),
                    where=np.abs(u) >= _normal_floor(p))
