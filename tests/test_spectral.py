"""Dichotomy, Riesz quadrature, semigroup, contraction, ladder."""

from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.linalg import expm

import kickstab.spectral as sp
from kickstab.errors import ContourTouchesSpectrum, EmptyGap, GapViolation, InvalidContour
from kickstab.spectral import (
    contour_bound_integrals,
    contraction_certificate,
    eig_split,
    riesz_projector,
    semigroup,
    sigma_ladder,
    tail_contraction,
)
from kickstab.model_builder import build_oseen, synth_stokes_spectrum
from tests.conftest import REF


def _stable_projector(d):
    """Orthogonal projector onto X_sigma = (span D)^perp."""
    return np.eye(d.n) - d.D @ d.D.T


def _contour_semigroup(model_or_A, tau, n_nodes=512):
    """Reference S(tau): (2 pi i)^{-1} * resolvent * e^{-lambda tau} over a
    rectangle enclosing the whole spectrum, by the Riesz quadrature's rule."""
    ev = sp._eigvals(model_or_A)
    spread = max(1.0, float(ev.real.max() - ev.real.min()))
    margin = max(0.5, 0.05 * spread)
    re_lo = float(ev.real.min()) - margin
    re_hi = float(ev.real.max()) + margin
    H = float(np.max(np.abs(ev.imag))) + margin
    nodes, weights = sp._rectangle_nodes(re_lo, re_hi, -H, H, n_nodes)
    return sp._contour_integral(model_or_A, nodes, weights * np.exp(-nodes * tau))


def _selfadjoint_model(n=16, beta0=1.3):
    spec = synth_stokes_spectrum(n, 2, beta0, 0.0, seed=0)
    return build_oseen(spec, 0.0, 0, 0.5, obs_idx=(n - 1,), seed=0)


# -- eig_split -------------------------------------------------------------

def test_split_diagonal_example():
    d = eig_split(np.diag([-1.0, 1.0, 2.0]), 0.5)
    assert d.m == 1
    assert_allclose(np.abs(d.D[:, 0]), [1, 0, 0], atol=1e-12)
    # X_sigma = span{e2, e3}
    P_expected = np.diag([0.0, 1.0, 1.0])
    assert_allclose(_stable_projector(d), P_expected, atol=1e-12)


def test_split_gap_violation():
    with pytest.raises(GapViolation):
        eig_split(np.diag([-1.0, 1.0, 2.0]), 1.0)


def test_split_nonnormal_hand_example():
    # A^T = [[-1,0],[5,2]]; eigenvector for -1 solves 5 v1 + 3 v2 = 0
    d = eig_split(np.array([[-1.0, 5.0], [0.0, 2.0]]), 0.0)
    assert d.m == 1
    v = d.D[:, 0]
    assert abs(5 * v[0] + 3 * v[1]) < 1e-12
    xs = d.stable_basis[:, 0]
    assert_allclose(np.abs(xs), np.array([5.0, 3.0]) / np.sqrt(34), atol=1e-12)


def test_split_invariants(ref_model, ref_dichotomy):
    d = ref_dichotomy
    n = ref_model.n
    P_sigma = _stable_projector(d)
    assert d.n == n
    assert_allclose(P_sigma, P_sigma.T, atol=1e-12)
    assert np.linalg.norm(P_sigma @ P_sigma - P_sigma) < 1e-10
    assert np.linalg.matrix_rank(P_sigma, tol=1e-8) == n - d.m
    # columns of P_sigma annihilated by D^T
    assert np.linalg.norm(d.D.T @ P_sigma) < 1e-10
    # Schur spectral projector: idempotent, trace m, commutes with A
    P = sp._spectral_projector_schur(ref_model.A, d.sigma)
    assert np.linalg.norm(P @ P - P) < 1e-10
    assert abs(np.trace(P) - d.m) < 1e-6
    assert np.linalg.norm(P @ ref_model.A - ref_model.A @ P) < 1e-8
    # S-invariance of X_sigma at the certified tau
    S = semigroup(ref_model, 2.0)
    assert np.linalg.norm(d.D.T @ S @ P_sigma) < 1e-8


def test_split_conjugate_pair_realified():
    # rotation block with eigenvalues -1 +- 2i below sigma=0
    A = np.array([[-1.0, -2.0, 0.0], [2.0, -1.0, 0.0], [0.0, 0.0, 3.0]])
    d = eig_split(A, 0.0)
    assert d.m == 2
    assert d.D.shape == (3, 2)
    assert np.all(np.isreal(d.D))
    # span – the invariant plane of the pair
    assert np.linalg.norm(d.D[2, :]) < 1e-12


def test_split_coupled_pair_orthonormal():
    # non-normal coupling: the real and imaginary parts of the pair's
    # eigenvector are not orthogonal, but D is an orthonormal basis
    A = np.array([[-1.0, -2.0, 0.0, 0.3], [0.5, -1.0, 0.4, 0.0],
                  [0.0, 0.2, 3.0, 0.1], [0.1, 0.0, 0.0, 5.0]])
    d = eig_split(A, 0.0)
    assert d.m == 2
    assert np.linalg.norm(d.D.T @ d.D - np.eye(2)) <= 1e-13
    # span D is invariant under A^T
    assert np.linalg.norm(_stable_projector(d) @ A.T @ d.D) < 1e-12


# -- riesz_projector -------------------------------------------------------

def test_riesz_diagonal_example():
    P = riesz_projector(np.diag([-1.0, 1.0, 2.0]), 0.5)
    assert_allclose(P, np.diag([1.0, 0.0, 0.0]), atol=1e-10)


def test_riesz_empty_contour_zero():
    P = riesz_projector(np.diag([1.0, 2.0, 3.0]), 0.5)
    assert np.linalg.norm(P) < 1e-10


def test_riesz_matches_eigensolver_projector():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((20, 20)) * 0.3 + np.diag(np.linspace(1, 8, 20))
    # split at the widest gap in the real parts
    re = np.sort(np.linalg.eigvals(A).real)
    i = int(np.argmax(np.diff(re)))
    sigma = 0.5 * (re[i] + re[i + 1])
    Pq = riesz_projector(A, sigma)
    Ps = sp._spectral_projector_schur(A, sigma)
    assert np.linalg.norm(Pq - Ps) < 1e-8


def test_riesz_schur_coordinates_match_sorted_schur(ref_model):
    # the default model, and a dense non-normal matrix with a Jordan block
    # at -1 inside the contour
    rng = np.random.default_rng(4)
    T = np.diag([-1.0, -1.0, 2.0, 3.0, 4.5, 6.0])
    T[0, 1] = 1.0
    T += 0.5 * np.triu(rng.standard_normal((6, 6)), 2)
    Q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    for A in (ref_model, Q @ T @ Q.T):
        P = riesz_projector(A, REF["sigma"])
        Ps = sp._spectral_projector_schur(sp._as_matrix(A), REF["sigma"])
        assert np.linalg.norm(P - Ps) < 1e-12


# -- semigroup -------------------------------------------------------------

def test_semigroup_diagonal():
    S = semigroup(np.diag([1.0, 2.0]), np.log(2))
    assert_allclose(S, np.diag([0.5, 0.25]), atol=1e-12)


def test_semigroup_tau_zero_identity():
    assert_allclose(semigroup(np.diag([1.0, 2.0]), 0.0), np.eye(2))


def test_semigroup_methods_agree():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((10, 10)) * 0.2 + np.diag(np.linspace(0.5, 4, 10))
    S1 = semigroup(A, 0.9)
    S2 = _contour_semigroup(A, 0.9)
    assert np.linalg.norm(S1 - S2) < 1e-8


def test_semigroup_methods_agree_on_stable_subspace(ref_model, ref_dichotomy):
    S1 = semigroup(ref_model, 1.5)
    S2 = _contour_semigroup(ref_model, 1.5, n_nodes=768)
    P = _stable_projector(ref_dichotomy)
    assert np.linalg.norm((S1 - S2) @ P) < 1e-8


def test_semigroup_product_property(ref_model):
    S1 = semigroup(ref_model, 0.7)
    S2 = semigroup(ref_model, 1.1)
    S3 = semigroup(ref_model, 1.8)
    assert np.linalg.norm(S1 @ S2 - S3) < 1e-10


# -- contraction certificate -----------------------------------------------

def test_contraction_normal_case():
    A = np.diag([-1.0, 1.0, 2.0])
    d = eig_split(A, 0.5)
    g0, ok = contraction_certificate(d, semigroup(A, 1.0))
    assert ok
    assert abs(g0 - np.exp(-1.0)) < 1e-12


def test_contraction_nonnormal_transient():
    A = np.array([[1.0, 100.0], [0.0, 1.0]])
    d = eig_split(A, 0.5)   # no eigenvalue below 0.5: full space
    assert d.m == 0
    g0, ok = contraction_certificate(d, semigroup(A, 0.01))
    # dense norm oracle
    oracle = np.linalg.svd(expm(-0.01 * A), compute_uv=False)[0]
    assert abs(g0 - oracle) < 1e-12
    assert g0 > 1 and not ok


def test_contraction_decreasing_in_tau(ref_model, ref_dichotomy):
    vals = [contraction_certificate(ref_dichotomy, semigroup(ref_model, t))[0]
            for t in (1.0, 2.0, 4.0)]
    assert vals[0] > vals[1] > vals[2]


def test_power_bound_on_stable_subspace(ref_model, ref_dichotomy, ref_gamma0):
    # additive 1e-12 floor: gamma0^k underflows past machine noise within a
    # few steps at gamma0 ~ 4e-3, and roundoff along the unstable adjoint
    # direction is amplified by S
    rng = np.random.default_rng(3)
    S = semigroup(ref_model, 2.0)
    w = _stable_projector(ref_dichotomy) @ rng.standard_normal(ref_model.n)
    w0n = np.linalg.norm(w)
    for k in range(1, 51):
        w = S @ w
        assert np.linalg.norm(w) <= ref_gamma0 ** k * w0n * (1 + 1e-9) + 1e-12


# -- contour bound integrals -----------------------------------------------

def test_contour_integrals_decrease_in_tau():
    model = _selfadjoint_model()
    vals = [contour_bound_integrals(model, 2.0, t) for t in (1.0, 2.0, 4.0)]
    tot = [v[0] + v[1] for v in vals]
    assert tot[0] > tot[1] > tot[2]
    assert all(np.isfinite(tot))


def test_contour_integrals_sigma_independent_constant():
    model = _selfadjoint_model()
    tau = 1.0
    scaled = []
    for sigma in (1.0, 2.0, 4.0, 8.0):
        I1, I2 = contour_bound_integrals(model, sigma, tau)
        scaled.append((I1 + I2) * np.exp(sigma * tau))
    assert max(scaled) / min(scaled) < 2.0


def _adaptive_contour_integrals(A, sigma, tau, theta=1.0, psi=3 * np.pi / 4):
    """(I1, I2) by adaptive quadrature over the integrands in gamma."""
    I = np.eye(A.shape[0])

    def res_norm(lam):
        return 1.0 / np.linalg.svd(lam * I + A, compute_uv=False)[-1]

    X = (sigma + theta) * np.tan(np.pi - psi)
    I1 = quad(lambda x: res_norm(complex(-sigma, x)) * np.exp(-sigma * tau),
              -X, X, limit=200)[0]
    g0 = (sigma + theta) / abs(np.cos(psi))
    g_max = g0 + (abs(np.log(1e-16)) / tau + theta) / abs(np.cos(psi))
    I2 = quad(lambda g: res_norm(g * np.exp(1j * psi) + theta)
              * np.exp((g * np.cos(psi) + theta) * tau), g0, g_max, limit=200)[0]
    return I1, 2.0 * I2


def test_contour_fixed_rules_match_adaptive_quadrature(ref_model, ref_dichotomy):
    sigma = REF["sigma"]
    for tau in (1.0, 2.0, 4.0, 8.0):
        I1, I2 = contour_bound_integrals(ref_model, sigma, tau)
        J1, J2 = _adaptive_contour_integrals(ref_model.A, sigma, tau)
        assert abs(I1 / J1 - 1) < 1e-9
        assert abs(I2 / J2 - 1) < 1e-4
        # the Dunford bound on S(tau) restricted to X_sigma
        gamma0 = contraction_certificate(ref_dichotomy, semigroup(ref_model, tau))[0]
        assert gamma0 <= (I1 + I2) / (2 * np.pi)


def test_contour_integrals_memory_bounded():
    # one node's matrix at a time: stacking all 48 nodes at n = 200 would
    # take 31 MB
    import tracemalloc

    rng = np.random.default_rng(2)
    A = np.diag(np.linspace(1.0, 50.0, 200)) + 0.3 * rng.standard_normal((200, 200))
    tracemalloc.start()
    try:
        I1, I2 = contour_bound_integrals(A, 0.5, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(I1 + I2)
    assert peak < 16 * 2 ** 20


def _svd_sigma_min(M):
    return np.linalg.svd(M, compute_uv=False)[-1]


def test_sigma_min_matches_svd_on_every_contour_node(ref_model, monkeypatch):
    # each node's triangular lambda I + T against a dense SVD of lambda I + A
    seen = []
    real = sp._sigma_min_triangular

    def recording(M):
        val = real(M)
        seen.append((M.copy(), val))
        return val

    monkeypatch.setattr(sp, "_sigma_min_triangular", recording)
    contour_bound_integrals(ref_model, REF["sigma"], REF["tau"])
    assert len(seen) == 48
    T, _ = ref_model.complex_schur
    for M, val in seen:
        assert not np.any(np.tril(M, -1))
        lam = M[0, 0] - T[0, 0]
        oracle = _svd_sigma_min(ref_model.A + lam * np.eye(ref_model.n))
        assert abs(val / oracle - 1) < 1e-12


def test_sigma_min_clustered_nonnormal_triangular():
    # R from the QR factors of U diag(s) W^H keeps the singular values s; the
    # two smallest differ by 1e-6 relative, the slow case for Lanczos
    rng = np.random.default_rng(5)
    n = 200

    def unitary():
        Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return np.linalg.qr(Z)[0]

    s = np.logspace(0.0, -2.0, n)
    s[-2] = s[-1] * (1 + 1e-6)
    R = np.linalg.qr(unitary() @ np.diag(s) @ unitary().conj().T)[1]
    M = np.asfortranarray(R)
    normal_dev = np.linalg.norm(M @ M.conj().T - M.conj().T @ M) / np.linalg.norm(M) ** 2
    assert normal_dev > 0.1
    val = sp._sigma_min_triangular(M)
    assert abs(val / _svd_sigma_min(M) - 1) < 1e-12
    assert abs(val / s[-1] - 1) < 1e-12


def test_sigma_min_tiny_orders():
    assert abs(sp._sigma_min_triangular(np.array([[3.0 - 4.0j]])) - 5.0) < 1e-15
    M = np.array([[1.0 + 2.0j, 3.0 - 1.0j], [0.0, -0.5 + 0.25j]], order="F")
    assert abs(sp._sigma_min_triangular(M) / _svd_sigma_min(M) - 1) < 1e-12


def test_sigma_min_singular_shift_raises():
    # a contour node at -T[2, 2] makes lambda I + T exactly singular
    rng = np.random.default_rng(4)
    lam = 0.7 + 0.2j
    T = np.triu(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    T[2, 2] = -lam
    M = np.array(T + lam * np.eye(5), order="F")
    assert M[2, 2] == 0
    with pytest.raises(ContourTouchesSpectrum):
        sp._sigma_min_triangular(M)


def test_contour_invalid_psi():
    model = _selfadjoint_model()
    with pytest.raises(InvalidContour):
        contour_bound_integrals(model, 1.0, 1.0, psi=np.pi / 2)


# -- sigma ladder and tail contraction ---------------------------------------

def test_ladder_segment_endpoints():
    # d = 2, k = 1: [e, e^2]
    lo, hi = np.exp(1.0), np.exp(2.0)
    assert abs(lo - 2.718281828) < 1e-8 and abs(hi - 7.389056099) < 1e-8


def test_ladder_levels_inside_segments(ref_model, ref_ladder):
    d = ref_model.d
    for k, sk in enumerate(ref_ladder.sigma_list, start=1):
        assert np.exp(2 * k / d) <= sk <= np.exp(2 * (k + 1) / d)
        assert ref_ladder.gaps[k - 1] > 0


def test_ladder_level_maximizes_grid_distance(ref_model, ref_ladder):
    ev_re = np.linalg.eigvals(ref_model.A).real
    d = ref_model.d
    for k, sk in enumerate(ref_ladder.sigma_list, start=1):
        grid = np.linspace(np.exp(2 * k / d), np.exp(2 * (k + 1) / d), 1024)
        dist = np.min(np.abs(grid[:, None] - ev_re[None, :]), axis=1)
        step = grid[1] - grid[0]
        own = np.min(np.abs(sk - ev_re))
        assert own >= dist.max() - 1e-12 or abs(sk - grid[np.argmax(dist)]) <= step
        # ties resolved toward the smaller value
        assert sk == grid[np.argmax(dist)]


def test_ladder_counts_nondecreasing(ref_ladder):
    assert all(np.diff(ref_ladder.n_list) >= 0)
    assert ref_ladder.m <= ref_ladder.n_list[0]


def test_ladder_reconstruction(ref_ladder, ref_model):
    rng = np.random.default_rng(12)
    v = rng.standard_normal(ref_model.n)
    for k in range(1, ref_ladder.K + 1):
        head = ref_ladder.head_basis(k)
        tail = ref_ladder.tail_basis(k)
        u = head @ (head.T @ v) + tail @ (tail.T @ v)
        assert np.linalg.norm(u - v) < 1e-10
    # unstable + middle + tail at the top level
    E1 = ref_ladder.E_all[:, :ref_ladder.m]
    mid = ref_ladder.mid_basis(ref_ladder.K)
    tail = ref_ladder.tail_basis(ref_ladder.K)
    u = E1 @ (E1.T @ v) + mid @ (mid.T @ v) + tail @ (tail.T @ v)
    assert np.linalg.norm(u - v) < 1e-10


def test_ladder_defective_cluster_nested():
    # a Jordan block at 4 beside simple eigenvalues -0.5, 10, 30, 60
    A = np.diag([10.0, 4.0, 4.0, -0.5, 30.0, 60.0])
    A[1, 2] = 1.0
    ladder = sigma_ladder(SimpleNamespace(A=A, d=2), 0.5, 3)
    ev_re = np.linalg.eigvals(A).real

    def block_spectrum(H):
        return np.sort(np.linalg.eigvals(H.T @ A.T @ H).real)

    assert_allclose(block_spectrum(ladder.E_all[:, :ladder.m]), [-0.5], atol=1e-12)
    for k, sk in enumerate(ladder.sigma_list, start=1):
        expected = np.sort(ev_re[ev_re < sk])
        assert ladder.n_list[k - 1] == expected.size
        assert_allclose(block_spectrum(ladder.head_basis(k)), expected, atol=1e-6)
    assert_allclose(ladder.completion.T @ ladder.completion, np.eye(6), atol=1e-13)


def test_ladder_empty_gap():
    # dense spectrum saturating segment 1 with eigenvalues every ~1e-3
    n = 4700
    mu = np.linspace(2.6, 7.5, n)
    A = np.diag(mu)

    class Shim:
        pass

    model = Shim()
    model.A = A
    model.d = 2
    with pytest.raises(EmptyGap):
        sigma_ladder(model, 0.5, 1, gap_tol=1e-3, grid_points=512)


def test_tail_contraction_diagonal_oracle():
    model = _selfadjoint_model(n=40, beta0=1.3)
    ladder = sigma_ladder(model, 0.5, 2)
    tau = 1.5
    gammas = tail_contraction(ladder, semigroup(model, tau))
    mu = np.diag(model.A)
    for k, sk in enumerate(ladder.sigma_list, start=1):
        above = mu[mu > sk]
        expected = np.exp(-above.min() * tau) if above.size else 0.0
        assert abs(gammas[k - 1] - expected) < 1e-12


def test_tail_contraction_reference(ref_S, ref_ladder, ref_gamma0):
    gammas = tail_contraction(ref_ladder, ref_S)
    assert gammas[0] > gammas[1] > gammas[2]
    assert gammas[-1] == 0.0   # exhausted level
    assert gammas[-1] < 0.5 * ref_gamma0
