"""Pushforward density apparatus: bases, slices, quadrature, probes."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import kickstab.density as ds
from kickstab.cli import main
from kickstab.density import (
    DEFAULT_QUAD,
    QuadratureSpec,
    boundary_exponent_probe,
    build_pi_decomposition,
    density_batch,
    density_mass,
    density_P,
    first_variation,
    lagrange_boundary_step,
    mc_density_oracle,
    projected_law,
    slice_geometry,
    support_grid,
    tv_lipschitz_ratio,
)
from kickstab.errors import NotInterior, ProbeOffBoundary
from tests.conftest import support_ellipsoid_membership


def gamma_integrand(dec, K_hat, w, x) -> float:
    """Slice integrand Gamma(w, x), one point: scalar reference of ``density._slice_gauss``.

    Jacobian times the Gaussian at R^T(w,x).  K_hat is the precision matrix
    of the projected Gaussian in standard coordinates; w is given in fiber
    (theta) coordinates, x in standard offset coordinates.  The Jacobian
    factor J = det R^T makes the slice integrals reproduce the pushforward
    measure exactly (the corresponding prefactor in the source construction
    is stated inverted; mass conservation fixes the sign of the exponent).
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    K_hat = np.asarray(K_hat, dtype=float)
    z = np.concatenate([w, dec.B2.T @ x])
    y_b = dec.R.T @ z
    y = dec.b_basis @ y_b      # standard coordinates
    sign, logdet_prec = np.linalg.slogdet(K_hat)
    if sign <= 0:
        raise ValueError("precision matrix must be positive definite")
    logg = 0.5 * logdet_prec - 0.5 * dec.n * np.log(2 * np.pi) - 0.5 * y @ K_hat @ y
    return float(dec.J * np.exp(logg))


@pytest.fixture(scope="module")
def dec12():
    """m = 1, nm = 2 decomposition used by most density checks."""
    return build_pi_decomposition(np.array([[0.8], [-0.5]]))


@pytest.fixture(scope="module")
def law12():
    return projected_law(0.35 * np.eye(3), 1.0)


# -- decomposition ----------------------------------------------------------

def test_decomposition_zero_alpha():
    dec = build_pi_decomposition(np.zeros((2, 2)))
    assert dec.s == 0
    assert_allclose(dec.mu, [1.0, 1.0])
    assert_allclose(dec.R, np.eye(4))
    assert dec.J == 1.0


def test_decomposition_m0():
    dec = build_pi_decomposition(np.zeros((2, 0)))
    assert dec.m == 0 and dec.nm == 2
    assert dec.s == 0
    assert dec.J == 1.0
    assert_allclose(dec.R, np.eye(2))


def test_decomposition_scalar():
    dec = build_pi_decomposition(np.array([[2.0]]))
    assert_allclose(dec.mu, [5.0])
    assert abs(dec.J - 5 ** -0.5) < 1e-15
    assert abs(dec.J - 0.44721) < 1e-4


@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_decomposition_invariants_random(m, nm, seed):
    rng = np.random.default_rng(seed)
    alpha = rng.standard_normal((nm, m))
    dec = build_pi_decomposition(alpha)
    # slice basis orthonormal (Gram = identity)
    th = dec.theta_basis[:, :dec.m]
    assert np.linalg.norm(th.T @ th - np.eye(dec.m)) < 1e-12
    # theta_j in ker pi
    for j in range(dec.m):
        resid = alpha @ dec.theta_basis[:dec.m, j] + dec.theta_basis[dec.m:, j]
        assert np.linalg.norm(resid) < 1e-12
    # det R^T equals the Jacobian product
    assert abs(np.linalg.det(dec.R.T) - dec.J) < 1e-12
    # alpha b_j mutually orthogonal for j <= s, kernel beyond
    ab = alpha @ dec.b_basis[:dec.m, :dec.m]
    for i in range(dec.s):
        for j in range(i + 1, dec.s):
            assert abs(ab[:, i] @ ab[:, j]) < 1e-10
    for j in range(dec.s, dec.m):
        assert np.linalg.norm(ab[:, j]) < 1e-7
    # full b basis orthonormal
    assert np.linalg.norm(dec.b_basis.T @ dec.b_basis - np.eye(dec.n)) < 1e-12


def test_coordinate_map_through_R(dec12):
    rng = np.random.default_rng(1)
    for _ in range(1000):
        v = rng.standard_normal(dec12.n)
        coords_b = dec12.b_basis.T @ v
        coords_theta = np.linalg.solve(dec12.theta_basis, v)
        assert np.linalg.norm(coords_b - dec12.R.T @ coords_theta) < 1e-12


# -- slice geometry ----------------------------------------------------------

def test_slice_zero_alpha():
    dec = build_pi_decomposition(np.zeros((2, 1)))
    geo = slice_geometry(dec, 1.0, [0.3, 0.4])
    assert geo.classification == "interior"
    assert_allclose(geo.center, [0.0, 0.3, 0.4], atol=1e-15)
    assert abs(geo.radius - np.sqrt(1 - 0.25)) < 1e-12


def test_slice_scalar_hand_example():
    dec = build_pi_decomposition(np.array([[2.0]]))
    geo = slice_geometry(dec, 1.0, [0.5])
    assert_allclose(geo.center, [0.2, 0.1], atol=1e-12)
    assert abs(geo.radius - np.sqrt(0.95)) < 1e-12
    # center lies on the fiber: alpha*u + v = x
    assert abs(2.0 * geo.center[0] + geo.center[1] - 0.5) < 1e-10


def test_slice_against_projected_gradient_oracle(dec12, law12):
    # minimize ||u||^2 + ||x - alpha u||^2 by plain gradient descent
    alpha = dec12.alpha
    x = np.array([0.4, -0.2])
    H = np.eye(1) + alpha.T @ alpha
    step = 1.0 / (2 * np.linalg.eigvalsh(H).max())
    u = np.zeros(1)
    for _ in range(2000):
        u = u - step * 2 * (H @ u - alpha.T @ x)
    geo = slice_geometry(dec12, law12.eps, x)
    assert np.linalg.norm(geo.center[:1] - u) < 1e-12
    assert np.linalg.norm(geo.center[1:] - (x - alpha @ u)) < 1e-12
    r_oracle = np.sqrt(law12.eps ** 2 - u @ u - (x - alpha @ u) @ (x - alpha @ u))
    assert abs(geo.radius - r_oracle) < 1e-8


def test_slice_classification_bands(dec12):
    M = dec12.support_quadform()
    xdir = np.array([1.0, 0.4])
    xb = xdir / np.sqrt(xdir @ M @ xdir)
    assert slice_geometry(dec12, 1.0, 0.5 * xb).classification == "interior"
    assert slice_geometry(dec12, 1.0, xb).classification == "boundary"
    assert slice_geometry(dec12, 1.0, 1.5 * xb).classification == "outside"
    assert np.isnan(slice_geometry(dec12, 1.0, 1.5 * xb).radius)


def test_slice_matches_ellipsoid_membership(dec12):
    rng = np.random.default_rng(2)
    for _ in range(1000):
        x = rng.uniform(-2, 2, 2)
        member = support_ellipsoid_membership(dec12.alpha, 1.0, x)
        cls = slice_geometry(dec12, 1.0, x).classification
        assert member == (cls != "outside")


# -- integrand ----------------------------------------------------------------

def test_integrand_zero_alpha_standard_normal():
    dec = build_pi_decomposition(np.zeros((1, 1)))
    val = gamma_integrand(dec, np.eye(2), [0.3], [0.4])
    expected = (2 * np.pi) ** -1 * np.exp(-0.5 * (0.09 + 0.16))
    assert abs(val - expected) < 1e-14


def test_integrand_scalar_jacobian_factor():
    # mass-preserving change of variables: the prefactor is
    # J = (1 + ||alpha b||^2)^{-1/2} = 5^{-1/2} for alpha = 2
    dec = build_pi_decomposition(np.array([[2.0]]))
    val = gamma_integrand(dec, np.eye(2), [0.0], [0.0])
    assert abs(val - 5 ** -0.5 / (2 * np.pi)) < 1e-14


def test_integrand_bounded_on_ball(dec12, law12):
    rng = np.random.default_rng(3)
    K_hat = np.linalg.inv(law12.K)
    vals = []
    for _ in range(10_000):
        z = rng.standard_normal(3)
        z *= law12.eps * rng.uniform(0, 1) ** (1 / 3) / np.linalg.norm(z)
        vals.append(gamma_integrand(dec12, K_hat, z[:1], z[1:]))
    vals = np.array(vals)
    assert np.all(vals > 0)
    assert np.isfinite(vals.max() / vals.min())


@pytest.mark.parametrize("alpha", [[[0.8], [-0.5]], [[0.9, -0.3], [0.2, 1.1]]],
                         ids=["m1", "m2"])
def test_slice_kernel_matches_scalar_integrand(alpha):
    # the vectorised kernel at every node of the pipeline's unit-ball rule,
    # at interior points of the support, against the scalar Gamma / J
    dec = build_pi_decomposition(np.array(alpha))
    A = np.random.default_rng(8).standard_normal((dec.n, dec.n))
    law = projected_law(A @ A.T / dec.n + 0.2 * np.eye(dec.n), 1.0)
    M = dec.support_quadform()
    xdir = np.linspace(1.0, -0.6, dec.nm)
    xs = np.outer([0.0, 0.4, 0.85], xdir / np.sqrt(xdir @ M @ xdir))
    zc, rad2 = ds._slice_coords(dec, law.eps, xs)
    r = np.sqrt(rad2)
    nodes, _ = ds._unit_ball_rule(dec.m, DEFAULT_QUAD)
    G = ds._slice_gauss(*ds._slice_precision(dec, law), zc, r, nodes)
    K_hat = np.linalg.inv(law.K)
    ref = np.array([[gamma_integrand(dec, K_hat, zc[i, :dec.m] + r[i] * nu, x) / dec.J
                     for nu in nodes] for i, x in enumerate(xs)])
    assert np.all(rad2 > 0)
    assert np.max(np.abs(G - ref) / ref) <= 1e-12


# -- density ------------------------------------------------------------------

def test_density_symmetry(dec12, law12):
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.uniform(-0.8, 0.8, 2)
        assert abs(density_P(dec12, law12, x) - density_P(dec12, law12, -x)) < 1e-10


def test_density_integrates_to_one(dec12, law12):
    Minv = np.linalg.inv(dec12.support_quadform())
    half = law12.eps * np.sqrt(np.diag(Minv))
    g = 400
    axes = [np.linspace(-h, h, g, endpoint=False) + h / g for h in half]
    X, Y = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    P = density_batch(dec12, law12, pts)
    integral = P.sum() * np.prod(2 * half / g)
    assert abs(integral - 1.0) < 1e-4


def test_density_m0_is_truncated_gaussian():
    # m = 0: the slice is one point, so P = c_hat * g on the eps-ball
    dec = build_pi_decomposition(np.zeros((2, 0)))
    K = np.array([[0.5, 0.1], [0.1, 0.2]])
    law = projected_law(K, 1.0)
    rng = np.random.default_rng(15)
    xs = rng.uniform(-1.2, 1.2, (400, 2))
    g = np.exp(-0.5 * np.einsum("ij,ij->i", xs @ np.linalg.inv(K), xs)) \
        / (2 * np.pi * np.sqrt(np.linalg.det(K)))
    inside = np.einsum("ij,ij->i", xs, xs) < 1.0
    assert 0 < inside.sum() < len(xs)
    P = density_batch(dec, law, xs)
    assert_allclose(P[inside], law.c_hat * g[inside], rtol=1e-12)
    assert np.all(P[~inside] == 0.0)


@pytest.mark.parametrize("alpha, K", [
    (np.zeros((2, 0)), np.array([[0.5, 0.1], [0.1, 0.2]])),   # m = 0: P jumps at the edge
    (np.array([[0.8], [-0.5]]), 0.35 * np.eye(3)),            # dec12 / law12, m = 1
    (np.array([[0.7, -0.4]]), np.diag([0.3, 0.4, 0.25])),    # m = 2, nm = 1
    (np.array([[0.9, 0.2], [-0.3, 0.7]]), 0.3 * np.eye(4)),   # m = 2, nm = 2 (n = 4)
], ids=["m0", "m1", "m2-nm1", "m2-nm2"])
def test_density_mass_fitted_to_support(alpha, K):
    # c_hat is exact in every dimension, so the mass must be 1 up to quadrature error
    dec = build_pi_decomposition(alpha)
    law = projected_law(K, 1.0)
    assert abs(density_mass(dec, law) - 1.0) < 1e-6


def test_density_batch_blocks_match_single_points():
    # 256 points of an m = 2 fiber (64 x 256 slice nodes each): the blocked
    # kernel gives each row its one-point value and stays under a memory cap
    import tracemalloc

    dec = build_pi_decomposition(np.array([[0.9, 0.2], [-0.3, 0.7]]))
    law = projected_law(0.3 * np.eye(4), 1.0)
    xs, _ = support_grid(dec, law.eps, 16)
    tracemalloc.start()
    try:
        P = density_batch(dec, law, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2 ** 20
    assert np.count_nonzero(P) > 100
    single = np.array([density_P(dec, law, x) for x in xs])
    assert_allclose(P, single, rtol=1e-13, atol=0.0)


def test_density_zero_outside_support(dec12, law12):
    M = dec12.support_quadform()
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = rng.uniform(-3, 3, 2)
        if x @ M @ x > law12.eps ** 2:
            assert density_P(dec12, law12, x) == 0.0
        elif slice_geometry(dec12, law12.eps, x).radius > 0.1 * law12.eps:
            assert density_P(dec12, law12, x) > 0.0


def test_density_matches_mc_oracle(dec12, law12):
    rng = np.random.default_rng(6)
    M = dec12.support_quadform()
    pts = []
    while len(pts) < 10:
        x = rng.uniform(-1, 1, 2)
        if x @ M @ x < (0.8 * law12.eps) ** 2:
            pts.append(x)
    # one oracle call draws the 1M samples once for all ten points; each row
    # equals the single-point call bit for bit
    mc = mc_density_oracle(dec12, law12, pts, 1_000_000, seed=8)
    for x, (est, se) in zip(pts, mc):
        quad_val = density_P(dec12, law12, x)
        assert abs(quad_val - est) / est < 0.05


def test_density_quadrature_unsupported_without_fallback():
    dec = build_pi_decomposition(np.eye(4))
    law = projected_law(np.eye(8), 1.0, c_hat=1.0)
    # m = 4: Monte Carlo slice nodes return a finite value
    val = density_P(dec, law, np.zeros(4), QuadratureSpec(mc_nodes=4000))
    assert val > 0


def test_mc_oracle_error_scaling(dec12, law12):
    x = np.array([0.1, 0.1])
    _, se1 = mc_density_oracle(dec12, law12, [x], 40_000, seed=9)[0]
    _, se2 = mc_density_oracle(dec12, law12, [x], 80_000, seed=9)[0]
    assert abs(se2 / se1 - 1 / np.sqrt(2)) < 0.2 / np.sqrt(2)


def test_mc_oracle_zero_alpha_matches_marginal_quadrature():
    # alpha = 0, m = nm = 1: P(x) = c_hat * int_{u^2 <= eps^2 - x^2} g(u, x) du
    dec = build_pi_decomposition(np.zeros((1, 1)))
    law = projected_law(np.diag([0.5, 0.3]), 1.0)
    x = 0.4
    half = np.sqrt(law.eps ** 2 - x ** 2)
    t, w = np.polynomial.legendre.leggauss(200)
    u = half * t
    g = np.exp(-0.5 * (u ** 2 / 0.5 + x ** 2 / 0.3)) / (2 * np.pi * np.sqrt(0.5 * 0.3))
    ref = law.c_hat * float(np.sum(w * g)) * half
    est, se = mc_density_oracle(dec, law, np.array([[x]]), 400_000, seed=10)[0]
    assert abs(est - ref) <= max(2 * se, 0.01 * ref)
    # quadrature path agrees too
    assert abs(density_P(dec, law, [x]) - ref) < 1e-6 * ref


def test_mc_oracle_m0_standard_error():
    # m = 0: every draw gives f = g(x), so the estimate is g(x) / p_hat and its
    # error is the delta-method ball-mass term alone
    dec = build_pi_decomposition(np.zeros((2, 0)))
    K = np.array([[0.5, 0.1], [0.1, 0.2]])
    law = projected_law(K, 1.0)
    x = np.array([0.3, -0.2])
    g = np.exp(-0.5 * x @ np.linalg.solve(K, x)) / (2 * np.pi * np.sqrt(np.linalg.det(K)))
    N = 50_000
    est, se = mc_density_oracle(dec, law, [x], N, seed=16)[0]
    p_hat = g / est
    p = 1.0 / law.c_hat
    assert abs(p_hat - p) < 5 * np.sqrt(p * (1 - p) / N)
    assert abs(se - est * np.sqrt((1 - p_hat) / (p_hat * N))) < 1e-12 * se


def test_mc_oracle_outside_support(dec12, law12):
    est, _ = mc_density_oracle(dec12, law12, np.array([[3.0, 3.0]]), 20_000, seed=11)[0]
    assert est == 0.0


def test_mc_oracle_batch_matches_single_points(dec12, law12):
    # one draw serves every point: each row equals that point's own call bitwise
    pts = np.array([[0.1, 0.1], [-0.3, 0.2], [0.0, 0.0], [3.0, 3.0]])
    batch = mc_density_oracle(dec12, law12, pts, 20_000, seed=12)
    assert len(batch) == len(pts)
    for x, row in zip(pts, batch):
        assert mc_density_oracle(dec12, law12, x[None, :], 20_000, seed=12) == [row]
    with pytest.raises(ValueError):
        mc_density_oracle(dec12, law12, pts[0], 20_000)


def test_mc_oracle_sample_floor(dec12, law12):
    with pytest.raises(ValueError):
        mc_density_oracle(dec12, law12, np.zeros(2), 100)


# -- boundary Lagrange step -----------------------------------------------------

def test_lagrange_closed_form_s0():
    dec = build_pi_decomposition(np.array([[1.0], [0.0]]))
    x = np.array([0.0, 0.9])  # in ker alpha^T
    h, lam = lagrange_boundary_step(dec, x, 0.1)
    assert abs(lam - (0.9 / 0.1 - 1)) < 1e-10
    assert_allclose(h, -0.1 * x / 0.9, atol=1e-12)


def test_lagrange_residual_and_norm(dec12, law12):
    M = dec12.support_quadform()
    xdir = np.array([0.7, 0.4])
    xb = xdir * law12.eps / np.sqrt(xdir @ M @ xdir)
    for g0 in (0.05, 0.01, 0.001):
        h, lam = lagrange_boundary_step(dec12, xb, g0)
        assert abs(np.linalg.norm(h) - g0) < 1e-10
        x0, coeffs = _decompose(dec12, xb)
        resid = x0 @ x0 / (1 + lam) ** 2 + np.sum(
            coeffs ** 2 * dec12.alpha_b_norms[:dec12.s] ** 2
            / (1 + lam * dec12.mu[:dec12.s]) ** 2) - g0 ** 2
        assert abs(resid) < 1e-12


def _decompose(dec, x):
    from kickstab.density import _boundary_decompose
    return _boundary_decompose(dec, x)


def test_lagrange_minimizes_objective(dec12, law12):
    M = dec12.support_quadform()
    xdir = np.array([-0.2, 0.9])
    xb = xdir * law12.eps / np.sqrt(xdir @ M @ xdir)
    g0 = 0.05
    h_opt, _ = lagrange_boundary_step(dec12, xb, g0)
    F = lambda h: float((xb + h) @ M @ (xb + h))
    F_opt = F(h_opt)
    rng = np.random.default_rng(12)
    for _ in range(1000):
        h = rng.standard_normal(2)
        h *= g0 / np.linalg.norm(h)
        assert F_opt <= F(h) + 1e-12


def test_slice_radius_maximal_along_lagrange_step(dec12, law12):
    M = dec12.support_quadform()
    xdir = np.array([0.3, -0.8])
    xb = xdir * law12.eps / np.sqrt(xdir @ M @ xdir)
    g0 = 0.03
    h_opt, _ = lagrange_boundary_step(dec12, xb, g0)
    r_opt = slice_geometry(dec12, law12.eps, xb + h_opt).radius
    rng = np.random.default_rng(13)
    for _ in range(300):
        h = rng.standard_normal(2)
        h *= g0 / np.linalg.norm(h)
        geo = slice_geometry(dec12, law12.eps, xb + h)
        if geo.classification == "interior":
            assert r_opt >= geo.radius - 1e-12


# -- boundary exponent probe -------------------------------------------------

def test_boundary_exponent_m1(dec12, law12):
    M = dec12.support_quadform()
    xdir = np.array([0.7, 0.4])
    xb = xdir * law12.eps / np.sqrt(xdir @ M @ xdir)
    probe = boundary_exponent_probe(dec12, law12, xb)
    assert abs(probe["slope"] - 0.5) <= 0.1


def test_boundary_exponent_m2():
    dec = build_pi_decomposition(np.array([[0.9, 0.2], [-0.3, 0.7]]))
    law = projected_law(0.3 * np.eye(4), 1.0)
    M = dec.support_quadform()
    xdir = np.array([0.5, -0.6])
    xb = xdir * law.eps / np.sqrt(xdir @ M @ xdir)
    probe = boundary_exponent_probe(dec, law, xb)
    assert abs(probe["slope"] - 1.0) <= 0.1


def test_probe_rejects_interior_point(dec12, law12):
    with pytest.raises(ProbeOffBoundary):
        boundary_exponent_probe(dec12, law12, np.array([0.1, 0.1]))


# -- first variation -----------------------------------------------------------

def test_variation_antisymmetry(dec12, law12):
    x = np.array([0.3, 0.25])
    h = np.array([0.6, -0.2])
    for mode in ("numeric", "analytic"):
        plus = first_variation(dec12, law12, x, h, mode=mode)
        minus = first_variation(dec12, law12, x, -h, mode=mode)
        tol = 1e-12 if mode == "analytic" else 1e-3 * abs(plus)
        assert abs(plus + minus) <= tol


def test_variation_modes_agree(dec12, law12):
    x = np.array([0.3, 0.25])
    h = np.array([0.6, -0.2])
    num = first_variation(dec12, law12, x, h, mode="numeric")
    ana = first_variation(dec12, law12, x, h, mode="analytic")
    assert abs(num - ana) / abs(num) < 0.01


def test_variation_radial_case_matches_profile():
    dec = build_pi_decomposition(np.zeros((2, 1)))
    law = projected_law(0.4 * np.eye(3), 1.0)
    x = np.array([0.2, 0.1])
    h = np.array([1.0, 0.0])
    val = first_variation(dec, law, x, h, mode="numeric")
    d = 1e-6
    fd = (density_P(dec, law, x + d * h) - density_P(dec, law, x - d * h)) / (2 * d)
    assert abs(val - fd) / abs(fd) < 1e-3


def test_variation_requires_interior(dec12, law12):
    M = dec12.support_quadform()
    xb = np.array([0.7, 0.4])
    xb = xb * law12.eps / np.sqrt(xb @ M @ xb)
    with pytest.raises(NotInterior):
        first_variation(dec12, law12, xb, np.array([1.0, 0.0]))


# -- total-variation ratio -------------------------------------------------------

def test_tv_zero_for_equal_shifts(dec12, law12):
    assert tv_lipschitz_ratio(dec12, law12, np.array([0.1, 0.2]), np.array([0.1, 0.2])) == 0.0


def test_tv_ratio_stable_under_shrinking_separation(dec12, law12):
    rng = np.random.default_rng(14)
    quad = QuadratureSpec(grid_2d=160)
    seps = np.geomspace(1e-3, 1e-1, 12)
    ratios = []
    for sep in seps:
        v = rng.standard_normal(2)
        v *= sep / np.linalg.norm(v)
        ratios.append(tv_lipschitz_ratio(dec12, law12, 0.5 * v, -0.5 * v, quad))
    ratios = np.array(ratios)
    small = ratios[seps <= 1e-2]
    large = ratios[seps > 1e-2]
    assert small.max() <= 2.0 * large.max()
    assert np.isfinite(ratios).all()


def test_tv_shift_invariance(dec12, law12):
    v1, v2 = np.array([0.05, 0.02]), np.array([0.01, -0.03])
    t = np.array([0.3, -0.1])
    r1 = tv_lipschitz_ratio(dec12, law12, v1, v2)
    r2 = tv_lipschitz_ratio(dec12, law12, v1 + t, v2 + t)
    assert abs(r1 - r2) < 1e-10 * max(r1, 1.0)


@pytest.mark.parametrize("config", [
    {"kick": {"eps_hat": 0.01}},
    {"model": {"n_unstable": 2, "b": 2.0, "spectrum_seed": 18}, "kick": {"eps_hat": 0.01},
     "density": {"grid_points": 32}},
], ids=["default-m1", "m2"])
def test_pipeline_probe_slope_matches_fiber_dimension(tmp_path, config):
    # the fibers the density stage builds from the default pipeline and from
    # an m = 2 pipeline; the probe's slope must sit at m/2, well inside the
    # report's 0.15 gate
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    for stage in ("synth", "dichotomy", "density"):
        assert main([stage, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    dens = json.loads((tmp_path / "out" / "density.json").read_text())
    assert dens["m"] == config.get("model", {}).get("n_unstable", 1)
    assert abs(dens["boundary_probe"]["slope"] - dens["expected_slope"]) <= 0.02
