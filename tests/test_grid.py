"""Grid construction, quadrature, and the discrete operator identity."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, solve_banded

import artifact as af
from artifact.grid import (
    apply_tridiag,
    factor_tridiag,
    normal_power,
    solve_tridiag,
)


def test_node_spacing():
    g = af.build_grid(1, 17, 16.0)
    assert g.dr == 1.0
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == 16.0


@pytest.mark.parametrize("dim,n,rmax", [
    (4, 100, 10.0),
    (0, 100, 10.0),
    (2, 8, 10.0),
    (2, 100, 0.0),
    (2, 100, -1.0),
    (2, 100, np.inf),
    (2, 100.7, 30.0),
    (True, 100, 30.0),
    (2.0, 100, 30.0),
    (2, 100, True),
    (2, 513, "30"),
    (2, 513, None),
])
def test_build_grid_rejects(dim, n, rmax):
    with pytest.raises(af.ConfigError):
        af.build_grid(dim, n, rmax)


def test_build_grid_names_the_value_it_rejects():
    # a float node count was truncated, a bool or float dimension kept,
    # and r_max True ran as 1.0; a string reads as one
    for args, value in [((2, 100.7, 30.0), "100.7"), ((True, 100, 30.0), "True"),
                        ((2.0, 100, 30.0), "2.0"), ((2, 100, True), "True"),
                        ((2, "257", 30.0), "'257'"), (("2", 100, 30.0), "'2'")]:
        with pytest.raises(af.ConfigError, match=f"got {value}$"):
            af.build_grid(*args)
    g = af.build_grid(np.int64(2), np.int32(100), 30.0)
    assert g.dimension == 2 and type(g.dimension) is int and g.n_points == 100
    assert np.array_equal(g.op_diag, af.build_grid(2, 100, 30.0).op_diag)


def test_volume_weights_line():
    # both half-lines of the even extension
    g = af.build_grid(1, 513, 12.0)
    assert np.sum(g.quad_weights) == pytest.approx(2 * 12.0, rel=1e-12)


def test_volume_weights_disc():
    g = af.build_grid(2, 513, 10.0)
    assert np.sum(g.quad_weights) == pytest.approx(np.pi * 100.0, rel=1e-12)


def test_volume_weights_ball():
    g = af.build_grid(3, 1025, 10.0)
    exact = 4.0 / 3.0 * np.pi * 1000.0
    assert np.sum(g.quad_weights) == pytest.approx(exact, rel=1e-5)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_operator_matches_quadratic_form(dim, rng):
    """<(-lap+1)u, u>_w must equal the gradient-quadrature H1 norm for
    fields vanishing at r_max; the solver relies on this identity."""
    g = af.build_grid(dim, 257, 8.0)
    u = rng.standard_normal(g.n_points)
    u[-1] = 0.0
    au = apply_tridiag(g.op_lower, g.op_diag, g.op_upper, u)
    quad = float(np.dot(g.quad_weights, u * au))
    assert quad == pytest.approx(af.h1_norm_sq(g, u), rel=1e-11, abs=1e-11)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_solve_inverts_apply(dim, rng):
    g = af.build_grid(dim, 257, 8.0)
    u = rng.standard_normal(g.n_points)
    u[-1] = 0.0
    b = apply_tridiag(g.op_lower, g.op_diag, g.op_upper, u)
    v = solve_tridiag(g.op_lower, g.op_diag, g.op_upper, b)
    assert np.max(np.abs(u - v)) < 1e-10


def _banded_reference(lo, di, up, b):
    ab = np.zeros((3, len(di)))
    ab[0, 1:] = up
    ab[1] = di
    ab[2, :-1] = lo
    return solve_banded((1, 1), ab, b)


def _random_bands(rng, n, dominant):
    # a weak diagonal makes gtsv/gttrf exchange rows on most steps
    lo = rng.standard_normal(n - 1)
    up = rng.standard_normal(n - 1)
    di = rng.standard_normal(n) + (4.0 if dominant else 0.0)
    return lo, di, up


@pytest.mark.parametrize("dominant", [True, False])
@pytest.mark.parametrize("n", [10, 257, 2049])
def test_tridiag_helpers_match_solve_banded_bit_for_bit(rng, n, dominant):
    lo, di, up = _random_bands(rng, n, dominant)
    solve = factor_tridiag(lo, di, up)
    for _ in range(4):
        b = rng.standard_normal(n)
        want = _banded_reference(lo, di, up, b)
        assert np.array_equal(solve_tridiag(lo, di, up, b), want)
        assert np.array_equal(solve(b), want)


def test_tridiag_helpers_match_solve_banded_on_grid_bands():
    g = af.build_grid(2, 1025, 20.0)
    bands = (g.op_lower, g.op_diag, g.op_upper)
    b = np.sin(g.nodes)
    want = _banded_reference(*bands, b)
    assert np.array_equal(solve_tridiag(*bands, b), want)
    assert np.array_equal(factor_tridiag(*bands)(b), want)


@pytest.mark.parametrize("dominant", [True, False])
def test_tridiag_solve_takes_columns_of_right_hand_sides(rng, dominant):
    # one gtsv call on an (n, 2) array solves each column as on its own;
    # a cell solve's radius Hessian takes its two end-node columns this way
    lo, di, up = _random_bands(rng, 257, dominant)
    B = rng.standard_normal((257, 2))
    X = solve_tridiag(lo, di, up, B)
    assert X.shape == (257, 2)
    for k in range(2):
        assert np.allclose(X[:, k], solve_tridiag(lo, di, up, B[:, k]),
                           rtol=1e-13, atol=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["lo", "di", "up", "b"])
def test_tridiag_helpers_reject_nonfinite(rng, bad, where):
    arrays = dict(zip(("lo", "di", "up"), _random_bands(rng, 50, True)))
    arrays["b"] = rng.standard_normal(50)
    arrays[where][7] = bad
    with pytest.raises(ValueError):
        solve_tridiag(**arrays)
    with pytest.raises(ValueError):
        factor_tridiag(arrays["lo"], arrays["di"], arrays["up"])(arrays["b"])


def test_tridiag_helpers_reject_singular():
    # the Neumann Laplacian: constants span its kernel and elimination
    # reaches an exact zero pivot
    n = 20
    lo = up = -np.ones(n - 1)
    di = np.full(n, 2.0)
    di[0] = di[-1] = 1.0
    with pytest.raises(LinAlgError):
        solve_tridiag(lo, di, up, np.ones(n))
    with pytest.raises(LinAlgError):
        factor_tridiag(lo, di, up)


def test_tridiag_helpers_leave_inputs_unmodified(rng):
    arrays = _random_bands(rng, 300, False) + (rng.standard_normal(300),)
    before = [x.copy() for x in arrays]
    solve_tridiag(*arrays)
    factor_tridiag(*arrays[:3])(arrays[3])
    for got, want in zip(arrays, before):
        assert np.array_equal(got, want)


def test_h1_inner_symmetric(grid_h2, rng):
    u = rng.standard_normal(grid_h2.n_points)
    v = rng.standard_normal(grid_h2.n_points)
    assert af.h1_inner(grid_h2, u, v) == pytest.approx(
        af.h1_inner(grid_h2, v, u), rel=1e-12, abs=1e-12
    )


def test_h1_dominates_l2(grid_h2, rng):
    u = rng.standard_normal(grid_h2.n_points)
    assert af.h1_norm_sq(grid_h2, u) >= af.lp_integral(grid_h2, u, 2) - 1e-12


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(min_value=0.01, max_value=100.0),
       seed=st.integers(min_value=0, max_value=2**31))
def test_h1_scales_quadratically(scale, seed):
    g = af.build_grid(2, 129, 6.0)
    u = np.random.default_rng(seed).standard_normal(g.n_points)
    assert af.h1_norm_sq(g, scale * u) == pytest.approx(
        scale**2 * af.h1_norm_sq(g, u), rel=1e-10
    )


def test_lp_integral_soliton(grid_n1):
    # closed form: integral of (sqrt(2) sech r)^4 over the line is 16/3
    u = np.sqrt(2.0) / np.cosh(grid_n1.nodes)
    assert af.lp_integral(grid_n1, u, 4) == pytest.approx(16.0 / 3.0, rel=1e-6)


@pytest.mark.parametrize("p", [3, 4])
def test_normal_power_is_pow_or_a_flushed_underflow(p):
    # 400 consecutive doubles around tiny**(1/p), which for p = 3 lies
    # 74 ulps above the true boundary, plus a spread from 1e-320 to 100,
    # both signs
    tiny = np.finfo(float).tiny
    mid = np.array([tiny ** (1.0 / p)]).view(np.int64)
    near = (mid + np.arange(-200, 200)).view(float)
    spread = np.geomspace(1e-320, 1e2, 2001)
    u = np.concatenate([near, -near, spread, -spread, [0.0]])
    got = normal_power(u, p)
    normal = np.abs(u) ** p >= tiny
    assert np.array_equal(got[normal], u[normal] ** p)
    assert np.all(got[~normal] == 0.0)
    assert normal[:400].any() and not normal[:400].all()
    assert (u[~normal] ** p != 0.0).any()  # subnormal results it drops


@pytest.mark.parametrize("scale", [1.01, 1.1, 0.9])
def test_newton_stops_at_the_roundoff_of_its_rows(scale):
    # a fine N=3 ball cell (di ~ 1/dr^2 = 1e6 on the axis row): roundoff
    # keeps the max-norm residual near 1e-9, far above tol = 1e-12, so a
    # test on tol alone ends every polish in a line search that halves 50
    # times; the row rule stops it one residual evaluation after its
    # last step
    g = af.build_grid(3, 8193, 20.0)
    j1 = int(round(2.81 / g.dr))
    u0, _, _ = af.scalar._annulus_cont(g, 0.0, g.nodes[j1])
    lo, di, up = g.op_lower[: j1 - 1], g.op_diag[:j1], g.op_upper[: j1 - 1]
    calls = []

    def residual(v):
        calls.append(1)
        return apply_tridiag(lo, di, up, v) - v**3

    def rows(v):
        m = np.max(np.abs(v))
        return np.max(di) * m + m**3, lambda: np.abs(di * v) + np.abs(v) ** 3

    u, nf, steps, ok = af.grid.newton(
        residual, lambda v: lambda F: solve_tridiag(lo, di - 3.0 * v**2, up, F),
        scale * u0[:j1], 1e-12, 40, rows)
    assert ok and 1 <= steps
    assert len(calls) <= steps + 3, (len(calls), steps)
    F = apply_tridiag(lo, di, up, u) - u**3
    assert nf == np.max(np.abs(F)) > 1e-12
    assert np.all(np.abs(F) < af.grid.ROUNDOFF * (np.abs(di * u) + np.abs(u) ** 3))
