"""Truncated-Gaussian law: sampling, ball mass, ellipsoid, projected density."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

import kickstab.kicks as kk
from kickstab.cli import Pipeline
from kickstab.config import config_from_dict
from kickstab.density import (
    build_pi_decomposition,
    density_batch,
    projected_law,
    slice_geometry,
)
from kickstab.ergodicity import projected_kick_covariance
from kickstab.errors import DegenerateCovariance, RejectionCap
from kickstab.kicks import ball_mass, make_kick_law, sample_kick, sample_kicks
from tests.conftest import REF, kick_stream, support_ellipsoid_membership


def diag_correlation(n, scale=1.0, power=2.0) -> np.ndarray:
    """Trace-class diagonal correlation pattern K_jj = scale * j^(-power)."""
    j = np.arange(1, n + 1, dtype=float)
    return np.diag(scale * j ** -power)


def test_law_validation():
    with pytest.raises(ValueError):
        make_kick_law(np.array([[1.0, 0.5], [0.0, 1.0]]), 0.1)  # not symmetric
    with pytest.raises(ValueError):
        make_kick_law(np.diag([1.0, -0.1]), 0.1)  # not positive definite


def test_samples_inside_ball():
    law = make_kick_law(diag_correlation(6, scale=4e-4), 0.02)
    rng = kick_stream(1, 0)
    norms = [np.linalg.norm(sample_kick(law, rng)) for _ in range(3000)]
    assert max(norms) <= 0.02


def test_sample_determinism():
    law1 = make_kick_law(diag_correlation(4, scale=1e-2), 0.2)
    law2 = make_kick_law(diag_correlation(4, scale=1e-2), 0.2)
    a = [sample_kick(law1, kick_stream(5, 3)) for _ in range(50)]
    b = [sample_kick(law2, kick_stream(5, 3)) for _ in range(50)]
    assert np.array_equal(np.array(a), np.array(b))


def test_degenerate_radius_returns_zero():
    law = make_kick_law(np.eye(3), 0.0)
    assert np.array_equal(sample_kick(law, kick_stream(0, 0)), np.zeros(3))


def test_near_untruncated_covariance_matches():
    # eps >= 10 sqrt(trace K): truncation negligible, empirical cov ~ K
    n = 5
    K = diag_correlation(n, scale=1.0)
    eps = 10 * np.sqrt(np.trace(K))
    law = make_kick_law(K, eps)
    rng = kick_stream(2, 1)
    N = 200_000
    z = rng.standard_normal((N, n)) @ np.linalg.cholesky(law.K).T
    assert np.all(np.einsum("ij,ij->i", z, z) <= eps ** 2)  # nothing rejected
    emp = z.T @ z / N
    # MC error of each entry ~ sqrt((K_ii K_jj + K_ij^2)/N)
    se = np.sqrt((np.outer(np.diag(K), np.diag(K)) + K ** 2) / N)
    assert np.all(np.abs(emp - K) <= 3.5 * se)


def test_rejection_cap_triggers():
    law = make_kick_law(np.eye(50), 1e-6)
    with pytest.raises(RejectionCap):
        sample_kick(law, kick_stream(3, 0))


def _dense_law():
    A = np.random.default_rng(0).standard_normal((50, 50))
    return make_kick_law(A @ A.T / 50 + 0.5 * np.eye(50), 8.7)


def _assert_truncated_covariance(law, seed, N, alpha=1e-3):
    # In K's eigen coordinates y = V^T phi the truncated covariance K_eps is
    # diagonal, with E[y_i^2; ||y|| <= eps] = lambda_i * ball_mass(lambda with
    # lambda_i listed three times), since E[g^2 f(g^2)] = E[f(chi2_3)] for g ~ N(0, 1).
    lam, V = np.linalg.eigh(law.K)
    mass = ball_mass(lam, law.eps_hat)
    exact = np.diag([l * ball_mass(np.append(lam, [l, l]), law.eps_hat) / mass for l in lam])
    y = sample_kicks(law, kick_stream(seed, 5), N) @ V
    emp = y.T @ y / N
    sq = y * y
    se = np.sqrt(np.maximum(sq.T @ sq / N - emp ** 2, 0.0) / N)
    iu = np.triu_indices(law.n)
    z = (emp - exact)[iu] / se[iu]
    # Bonferroni over the n(n+1)/2 distinct entries, two-sided, family level alpha
    bound = stats.norm.isf(alpha / (2 * len(z)))
    assert np.max(np.abs(z)) < bound, (np.max(np.abs(z)), bound)


def test_sample_kicks_covariance_matches_exact_truncation(ref_law):
    # acceptance ~ 0.66 (diagonal K), ~ 0.037 (eye(5), eps = 1) and the dense
    # n = 50 law (rotated by V)
    _assert_truncated_covariance(ref_law, REF["kick_seed"], 200_000)
    _assert_truncated_covariance(make_kick_law(np.eye(5), 1.0), 8, 100_000)
    _assert_truncated_covariance(_dense_law(), 2, 100_000)


def test_sample_kicks_prefix_of_longer_call(ref_law):
    # a call's kicks are the first kicks of a longer call on a fresh stream
    for law, seed in ((ref_law, REF["kick_seed"]), (make_kick_law(np.eye(5), 1.0), 8)):
        short = sample_kicks(law, kick_stream(seed, 4), 40)
        assert np.array_equal(short, sample_kicks(law, kick_stream(seed, 4), 400)[:40])
    dense = _dense_law()
    short = sample_kicks(dense, kick_stream(2, 4), 40)
    assert_allclose(short, sample_kicks(dense, kick_stream(2, 4), 400)[:40], rtol=1e-12, atol=1e-14)


def test_sample_kicks_round_cap_keeps_kicks(ref_law, monkeypatch):
    # rounds are consecutive rows of one stream, so for diagonal K the kicks
    # do not depend on how many rows a round may draw
    low = make_kick_law(np.eye(5), 1.0)   # acceptance ~ 0.037
    for law, seed in ((ref_law, REF["kick_seed"]), (low, 8)):
        whole = sample_kicks(law, kick_stream(seed, 4), 500)
        for rows in (1, 3, 64):
            monkeypatch.setattr(kk, "_ROUND_ENTRIES", rows * law.n)
            assert np.array_equal(sample_kicks(law, kick_stream(seed, 4), 500), whole)
        monkeypatch.undo()


def test_sample_kicks_default_law_n400():
    cfg = config_from_dict({"model": {"n": 400}, "kick": {"eps_hat": 0.01}})
    law = make_kick_law(cfg.kick_matrix(), cfg.kick.eps_hat)
    kicks = sample_kicks(law, kick_stream(REF["kick_seed"], 0), 2000)
    assert kicks.shape == (2000, 400)
    assert np.all(np.einsum("ij,ij->i", kicks, kicks) <= law.eps_hat ** 2)
    assert np.all(np.any(kicks != 0.0, axis=1))


def test_sample_kicks_empty_and_degenerate():
    law = make_kick_law(np.eye(3), 0.5)
    assert sample_kicks(law, kick_stream(0, 0), 0).shape == (0, 3)
    law0 = make_kick_law(np.eye(3), 0.0)
    assert np.array_equal(sample_kicks(law0, kick_stream(0, 0), 5), np.zeros((5, 3)))


def test_sample_kicks_rejection_cap():
    law = make_kick_law(np.eye(50), 1e-6)
    with pytest.raises(RejectionCap):
        sample_kicks(law, kick_stream(3, 0), 3)


def test_kick_law_is_frozen():
    law = make_kick_law(np.eye(3), 0.5)
    with pytest.raises(FrozenInstanceError):
        law.eps_hat = 1.0


def test_sign_symmetry():
    law = make_kick_law(diag_correlation(4, scale=1e-2), 0.15)
    # one call: its kicks are fixed by the stream, whereas successive single
    # calls on one generator also depend on how many rows each call draws
    s = sample_kicks(law, kick_stream(4, 2), 50_000)
    se = s.std(axis=0, ddof=1) / np.sqrt(len(s))
    assert np.all(np.abs(s.mean(axis=0)) <= 3.2 * se)


def test_ball_mass_against_chi2():
    assert abs(ball_mass([1.0], 1.5) - stats.chi2.cdf(1.5 ** 2, 1)) < 1e-12
    assert abs(ball_mass([1.0, 1.0], 1.0) - stats.chi2.cdf(1.0, 2)) < 1e-7
    assert abs(ball_mass([1.0, 1.0, 1.0], 1.2) - stats.chi2.cdf(1.44, 3)) < 1e-7


def test_ball_mass_closed_forms():
    # chi-square cdfs for equal eigenvalues, in 1 to 6 dimensions
    for n in range(1, 7):
        assert abs(ball_mass([0.7] * n, 1.3) - stats.chi2.cdf(1.3 ** 2 / 0.7, n)) < 1e-13
    # 2-D, K = 0.3 I: 1 - exp(-r^2 / 0.6)
    assert abs(ball_mass([0.3, 0.3], 1.0) - (1.0 - np.exp(-1.0 / 0.6))) < 1e-13
    # (a, a, b, b): a hypoexponential sum, 1 - (a e^{-q/2a} - b e^{-q/2b}) / (a - b)
    for a, b, q in [(0.5, 0.2, 0.9), (2.0, 0.1, 0.3), (0.3, 0.25, 2.5)]:
        exact = 1.0 - (a * np.exp(-q / (2 * a)) - b * np.exp(-q / (2 * b))) / (a - b)
        assert abs(ball_mass([a, a, b, b], np.sqrt(q)) - exact) < 1e-13


def test_ball_mass_near_singular_raises():
    # lambda_max/lambda_min = 1e5 at r^2/lambda_min = 9e9: the series does not
    # reach its tail bound within its term cap
    with pytest.raises(DegenerateCovariance, match="did not converge"):
        ball_mass([1.0, 1e-5], 300.0)
    # kick.power = 50 left the projected kick covariance an eigenvalue of
    # -1.5e-23 through roundoff: a singular covariance, named as one
    for lam in ([1.0, -1.5e-23], [1.0, 0.0]):
        with pytest.raises(DegenerateCovariance, match="must be positive"):
            ball_mass(lam, 0.01)


def test_ball_mass_against_mc():
    rng = np.random.default_rng(0)
    lam = np.array([0.9, 0.3, 0.05])
    q = rng.standard_normal((400_000, 3)) ** 2 @ lam
    emp = float(np.mean(q <= 0.8 ** 2))
    assert abs(ball_mass(lam, 0.8) - emp) < 4.0 * np.sqrt(emp * (1 - emp) / 400_000)


def mc_ball_mass(cov_eigs, radius, n_samples, rng):
    """Monte Carlo P(sum lambda_i z_i^2 <= radius^2) with its standard error.

    The reference for ``ball_mass``: draws scaled by sqrt(lambda), in batches
    of at most 2^20 entries.
    """
    root = np.sqrt(np.asarray(cov_eigs, dtype=float))
    batch = max(1, (1 << 20) // root.size)
    hits = done = 0
    while done < n_samples:
        z = rng.standard_normal((min(batch, n_samples - done), root.size)) * root
        hits += int(np.sum(np.einsum("ij,ij->i", z, z) <= radius ** 2))
        done += len(z)
    p = hits / n_samples
    return p, np.sqrt(max(p * (1 - p), 1.0 / n_samples) / n_samples)


def _default_kick_law(n):
    cfg = config_from_dict({"model": {"n": n}, "kick": {"eps_hat": 0.01}})
    return make_kick_law(cfg.kick_matrix(), cfg.kick.eps_hat)


def _level1_projected_law(config, tmp_path):
    pipe = Pipeline(config_from_dict(config), tmp_path)
    K = projected_kick_covariance(pipe.cfg.kick_matrix(), pipe.ladder(), 1)
    return projected_law(K, pipe.cfg.kick.eps_hat)


BALL_MASS_CASES = {
    "default-n20": lambda tmp: _default_kick_law(20),
    "default-n150": lambda tmp: _default_kick_law(150),
    "pipeline-n20-level1": lambda tmp: _level1_projected_law({"kick": {"eps_hat": 0.01}}, tmp),
    "density-m2-level1": lambda tmp: _level1_projected_law(
        {"model": {"n_unstable": 2, "b": 2.0, "spectrum_seed": 18}, "kick": {"eps_hat": 0.01}},
        tmp),
    "dense-n50": lambda tmp: _dense_law(),
}


@pytest.mark.parametrize("case", sorted(BALL_MASS_CASES))
def test_ball_mass_against_mc_reference(case, tmp_path):
    # the law's exact mass is what 200k untruncated draws estimate, within
    # 4 standard errors (about 1.1e-3 each)
    law = BALL_MASS_CASES[case](tmp_path)
    lam = np.linalg.eigvalsh(law.K)
    est, se = mc_ball_mass(lam, law.eps_hat, 200_000, np.random.default_rng(6))
    assert 0.0 < est < 1.0
    assert abs(law.mass - est) < 4 * se, (law.mass, est, se)


def test_membership_zero_map_is_ball():
    A = np.zeros((2, 2))
    dec = build_pi_decomposition(A)
    for x, inside in (([0.6, 0.7], True), ([0.8, 0.7], False)):
        assert support_ellipsoid_membership(A, 1.0, x) == inside
        assert (slice_geometry(dec, 1.0, x).classification != "outside") == inside


def test_membership_scalar_boundary():
    # scalar map a: boundary at |x| = eps*sqrt(1+a^2)
    a = 2.0
    A = np.array([[a]])
    M = build_pi_decomposition(A).support_quadform()
    lim = np.sqrt(1 + a ** 2)
    for x, inside in (([lim * (1 - 1e-9)], True), ([lim * (1 + 1e-9)], False)):
        assert support_ellipsoid_membership(A, 1.0, x) == inside
        assert (float(np.dot(x, M @ x)) <= 1.0) == inside


def test_membership_of_projected_samples(ref_pi, ref_law, ref_dichotomy):
    # Pi phi always lands inside the pushforward ellipsoid of the kick ball
    dich = ref_dichotomy
    E_unstable = dich.D
    stable = dich.stable_basis
    A_op = stable.T @ ref_pi.Pi_mat @ E_unstable  # X_sigma^perp -> X_sigma, orthonormal coords
    M = build_pi_decomposition(A_op).support_quadform()
    rng = kick_stream(REF["kick_seed"], 9)
    radius = ref_law.eps_hat * (1 + 1e-12)
    for _ in range(2000):
        phi = sample_kick(ref_law, rng)
        x = stable.T @ (ref_pi.Pi_mat @ phi)
        assert support_ellipsoid_membership(A_op, radius, x)
        assert x @ M @ x <= radius ** 2


def test_pushforward_covariance(ref_pi, ref_law):
    N = 100_000
    s = sample_kicks(ref_law, kick_stream(REF["kick_seed"], 10), N)
    pushed = s @ ref_pi.Pi_mat.T
    emp = pushed.T @ pushed / N
    truncated_cov = s.T @ s / N
    target = ref_pi.Pi_mat @ truncated_cov @ ref_pi.Pi_mat.T
    scale = np.sqrt(np.outer(np.diag(target), np.diag(target))) + 1e-12
    # pushforward through a fixed linear map commutes with empirical moments
    assert np.max(np.abs(emp - target) / scale) < 1e-12


def test_pushforward_identity_for_test_functions(ref_pi, ref_law):
    # mean of f(Pi phi) under the law equals the mean of f under the
    # pushforward sampler driven by the same stream
    fs = [lambda v: np.tanh(v[0]), lambda v: np.sin(v).sum(),
          lambda v: np.clip(np.linalg.norm(v), 0, 1), lambda v: v[2] ** 2,
          lambda v: float(np.max(np.abs(v)))]
    rng1 = kick_stream(REF["kick_seed"], 11)
    vals1 = []
    for _ in range(2000):
        phi = sample_kick(ref_law, rng1)
        vals1.append([f(ref_pi.Pi_mat @ phi) for f in fs])
    rng2 = kick_stream(REF["kick_seed"], 11)
    vals2 = []
    for _ in range(2000):
        pushed = ref_pi.Pi_mat @ sample_kick(ref_law, rng2)
        vals2.append([f(pushed) for f in fs])
    assert np.array_equal(np.array(vals1), np.array(vals2))


def _m0_density(cov, eps):
    """The projected law N(0, cov) conditioned on the eps-ball, as an m = 0 slice density."""
    dec = build_pi_decomposition(np.zeros((len(cov), 0)))
    plaw = projected_law(cov, eps)
    return lambda ys: density_batch(dec, plaw, ys), plaw


def test_qnu_standard_normal_at_origin():
    law = make_kick_law(np.eye(4), 1.0)
    Q = np.eye(4)[:, :2]
    density, _ = _m0_density(Q.T @ law.K @ Q, law.eps_hat)
    c = 1 / ball_mass([1.0, 1.0], 1.0)
    assert abs(density([[0.0, 0.0]])[0] - c / (2 * np.pi)) < 1e-7
    assert density([[2.0, 0.0]])[0] == 0.0  # outside the ball


def test_qnu_gaussian_factor_integrates_to_one():
    law = make_kick_law(np.diag([0.5, 0.2, 0.1, 0.05]), 0.8)
    Q = np.eye(4)[:, :2]
    cov = Q.T @ law.K @ Q
    density, plaw = _m0_density(cov, law.eps_hat)
    # tensor quadrature of the untruncated gaussian factor over the plane:
    # density / c_hat inside the ball, the plain gaussian outside it
    nodes, weights = np.polynomial.legendre.leggauss(120)
    L = 6 * np.sqrt(np.max(np.diag(cov)))
    ys = np.stack(np.meshgrid(L * nodes, L * nodes, indexing="ij"), axis=-1).reshape(-1, 2)
    w = np.outer(weights, weights).ravel()
    inside = np.einsum("ij,ij->i", ys, ys) <= law.eps_hat ** 2
    g = np.exp(-0.5 * np.einsum("ij,ij->i", ys @ np.linalg.inv(cov), ys)) / (
        2 * np.pi * np.sqrt(np.linalg.det(cov)))
    vals = np.where(inside, density(ys) / plaw.c_hat, g)
    assert abs(float(w @ vals) * L * L - 1.0) < 1e-6


def test_qnu_truncated_mass_matches_c_hat():
    # integral of c_hat * chi * g over the ball is 1 within 2 MC ses of c_hat
    law = make_kick_law(np.diag([0.3, 0.15, 0.05, 0.4]), 0.7)
    Q = np.eye(4)[:, :2]
    cov = Q.T @ law.K @ Q
    density, plaw = _m0_density(cov, law.eps_hat)
    rng = kick_stream(3, 12)
    N = 150_000
    z = rng.standard_normal((N, 4)) @ np.linalg.cholesky(law.K).T @ Q
    p_hat = float(np.mean(np.einsum("ij,ij->i", z, z) <= law.eps_hat ** 2))
    se = np.sqrt(p_hat * (1 - p_hat) / N)
    c_hat = 1 / p_hat
    # polar quadrature over the ball of g = density / c_hat(exact)
    tq, wq = np.polynomial.legendre.leggauss(200)
    r = 0.5 * law.eps_hat * (tq + 1)
    wr = 0.5 * law.eps_hat * wq
    phis = 2 * np.pi * np.arange(512) / 512
    pts = np.stack([np.outer(r, np.cos(phis)).ravel(), np.outer(r, np.sin(phis)).ravel()], axis=1)
    g = density(pts) / plaw.c_hat
    mass = float(np.einsum("i,ij->", wr * r, g.reshape(len(r), len(phis))) * (2 * np.pi / 512))
    assert abs(c_hat * mass - 1.0) <= 2 * se * c_hat


def test_qnu_degenerate_covariance():
    # a near-singular projected covariance has no usable truncated law
    K = np.diag([1.0, 1e-16, 1.0])
    law = make_kick_law(K + 1e-15 * np.eye(3), 0.5)
    Q = np.eye(3)[:, :2]
    with pytest.raises(DegenerateCovariance):
        projected_law(Q.T @ law.K @ Q, law.eps_hat)
