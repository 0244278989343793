"""Dichotomy, Riesz quadrature, semigroup, contraction, ladder."""

from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.linalg import expm, schur, solve_sylvester

import kickstab.spectral as sp
from kickstab.errors import ContourTouchesSpectrum, EmptyGap, GapViolation, InvalidContour
from kickstab.spectral import (
    contour_bound_integrals,
    contraction_certificate,
    eig_split,
    riesz_projector,
    semigroup,
    sigma_ladder,
    stable_step,
    tail_contraction,
)
from kickstab.config import config_from_dict
from kickstab.model_builder import build_oseen, synth_stokes_spectrum
from tests.conftest import REF, length_split_counts


def _stable_projector(d):
    """Orthogonal projector onto X_sigma = (span D)^perp."""
    return np.eye(d.n) - d.D @ d.D.T


def _contour_semigroup(model_or_A, tau, n_nodes=512):
    """Reference S(tau): (2 pi i)^{-1} * resolvent * e^{-lambda tau} over a
    rectangle enclosing the whole spectrum, n_nodes split by edge length."""
    ev = sp._eigvals(model_or_A)
    spread = max(1.0, float(ev.real.max() - ev.real.min()))
    margin = max(0.5, 0.05 * spread)
    re_lo = float(ev.real.min()) - margin
    re_hi = float(ev.real.max()) + margin
    H = float(np.max(np.abs(ev.imag))) + margin
    counts = length_split_counts(re_lo, re_hi, -H, H, n_nodes)
    nodes, weights = sp._rectangle_nodes(re_lo, re_hi, -H, H, counts)
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


# -- the one real Schur form against sorted Schur forms ---------------------

def _reference_ordered_schur(A, levels):
    """(Z, counts) by sorted Schur forms: A^T sorted at the top level, then
    each leading block sorted again at the next lower level."""
    T, Z, k = schur(A.T, output="real", sort=lambda re, im: re < levels[-1])
    counts = [k]
    for level in reversed(levels[:-1]):
        if k:
            T, Q, k_next = schur(T[:k, :k], output="real", sort=lambda re, im: re < level)
            Z[:, :k] = Z[:, :k] @ Q
            k = k_next
        counts.append(k)
    lead = Z[np.argmax(np.abs(Z), axis=0), np.arange(Z.shape[1])]
    return Z * np.sign(lead), counts[::-1]


def _reference_projector(A, sigma):
    """Riesz projector of A onto Re < sigma by a sorted Schur form of A and a
    Sylvester solve."""
    n = A.shape[0]
    T, Z, sdim = schur(A, output="real", sort=lambda re, im: re < sigma)
    if sdim == 0:
        return np.zeros((n, n))
    if sdim == n:
        return np.eye(n)
    Y = solve_sylvester(T[:sdim, :sdim], -T[sdim:, sdim:], T[:sdim, sdim:])
    P_T = np.zeros((n, n))
    P_T[:sdim, :sdim] = np.eye(sdim)
    P_T[:sdim, sdim:] = Y
    return Z @ P_T @ Z.T


def _config_model(**fields):
    """(model, sigma) of the default model config with the given fields."""
    m = config_from_dict({"model": fields, "kick": {"eps_hat": 0.01}}).model
    spec = synth_stokes_spectrum(m.n, m.d, m.beta0, m.remainder_scale, m.spectrum_seed)
    return build_oseen(spec, m.b, m.n_unstable, m.build_sigma, m.obs_idx, m.seed,
                       gap_tol=m.build_gap_tol), m.sigma


def _schur_case(name, request):
    """(model or shim, sigma) for the four reference cases of the Schur core,
    and "b50": the default model with b = 50, whose Riesz rectangle is long
    and thin (12.6 x 0.69)."""
    if name == "reference":
        return request.getfixturevalue("ref_model"), REF["sigma"]
    if name == "density_m2":
        return _config_model(n_unstable=2, b=2.0, spectrum_seed=18)
    if name == "b50":
        return _config_model(b=50.0)
    if name == "jordan":
        A = np.diag([10.0, 4.0, 4.0, -0.5, 30.0, 60.0])
        A[1, 2] = 1.0
        return SimpleNamespace(A=A, d=2), 0.5
    # no eigenvalue below sigma; complex pairs among the rest
    rng = np.random.default_rng(6)
    A = np.diag(np.linspace(1.0, 9.0, 8)) + 0.8 * rng.standard_normal((8, 8))
    assert np.linalg.eigvals(A).real.min() > 0.5
    return SimpleNamespace(A=A, d=2), 0.5


_SCHUR_CASES = ("reference", "density_m2", "jordan", "m0")


@pytest.mark.parametrize("name", _SCHUR_CASES)
def test_ordered_schur_matches_sorted_schur_bit_for_bit(name, request):
    # trsen on the one unsorted form is what a sorted gees runs after its
    # unsorted Schur form, so D and the ladder frame keep every bit
    model, sigma = _schur_case(name, request)
    d = eig_split(model, sigma)
    Z, (m,) = _reference_ordered_schur(model.A, [sigma])
    assert d.m == m and np.array_equal(d.D, Z[:, :m])
    ladder = sigma_ladder(model, sigma, 3)
    Z, (m, *n_list) = _reference_ordered_schur(model.A, [sigma, *ladder.sigma_list])
    assert (ladder.m, ladder.n_list) == (m, tuple(n_list))
    assert np.array_equal(ladder.completion, Z)
    if name == "m0":
        assert m == 0


def test_ordered_schur_keeps_the_schur_form():
    # a Schur diagonal in descending order: every level moves a block, and
    # the reordered T stays the Schur form of A^T in the reordered Z
    rng = np.random.default_rng(7)
    A = (np.diag([9.0, 7.0, 5.0, 3.0, 1.0, -1.0]) + np.triu(rng.standard_normal((6, 6)), 1)).T
    T, Z, counts = sp._ordered_schur(A, [0.0, 2.0, 4.0, 6.0, 8.0])
    assert counts == [1, 2, 3, 4, 5]
    assert not np.any(np.tril(T, -1))
    assert_allclose(np.diag(T), [-1.0, 1.0, 3.0, 5.0, 7.0, 9.0], atol=1e-12)
    assert np.linalg.norm(A.T - Z @ T @ Z.T) < 1e-13 * np.linalg.norm(A)


@pytest.mark.parametrize("name", _SCHUR_CASES)
def test_schur_projector_matches_sylvester_reference(name, request):
    model, sigma = _schur_case(name, request)
    ev_re = np.linalg.eigvals(model.A).real
    # sigma itself, then below and above the whole spectrum (sdim = 0 and n)
    for level in (sigma, ev_re.min() - 1.0, ev_re.max() + 1.0):
        P = sp._spectral_projector_schur(model, level)
        P_ref = _reference_projector(model.A, level)
        assert np.linalg.norm(P - P_ref) <= 1e-12 * max(1.0, np.linalg.norm(P_ref))


@pytest.mark.parametrize("name", _SCHUR_CASES)
def test_complex_schur_backward_error(name, request):
    model, _ = _schur_case(name, request)
    T, Q = sp._complex_schur(model)
    A = model.A
    n = A.shape[0]
    assert not np.any(np.tril(T, -1))
    assert np.linalg.norm(Q.conj().T @ Q - np.eye(n)) < 1e-13
    assert np.linalg.norm(A - Q @ T @ Q.conj().T) < 1e-13 * np.linalg.norm(A)


def test_model_schur_forms_cached_read_only(ref_model, ref_dichotomy, ref_ladder):
    T, Z = ref_model.real_schur
    assert ref_model.real_schur[0] is T
    assert np.linalg.norm(ref_model.A.T - Z @ T @ Z.T) < 1e-13 * np.linalg.norm(ref_model.A)
    for a in (*ref_model.real_schur, *ref_model.complex_schur):
        assert not a.flags.writeable


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


def test_riesz_schur_coordinates_match_sorted_schur(ref_model, request):
    # the default model, a dense non-normal matrix with a Jordan block at -1
    # inside the contour, and the long, thin rectangle of b = 50
    rng = np.random.default_rng(4)
    T = np.diag([-1.0, -1.0, 2.0, 3.0, 4.5, 6.0])
    T[0, 1] = 1.0
    T += 0.5 * np.triu(rng.standard_normal((6, 6)), 2)
    Q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    b50, sigma = _schur_case("b50", request)
    for A, level in ((ref_model, REF["sigma"]), (Q @ T @ Q.T, REF["sigma"]), (b50, sigma)):
        P = riesz_projector(A, level)
        Ps = sp._spectral_projector_schur(sp._as_matrix(A), level)
        assert np.linalg.norm(P - Ps) < 1e-12


@pytest.mark.parametrize("name", _SCHUR_CASES + ("b50",))
def test_riesz_rule_converged(name, request):
    # doubling every edge's count moves the projector by roundoff only: the
    # rule has converged, not merely agreed with the Schur projector
    model, sigma = _schur_case(name, request)
    rect, counts, capped = sp.riesz_rule(model, sigma)
    assert not capped
    P = riesz_projector(model, sigma)
    nodes, weights = sp._rectangle_nodes(*rect, [2 * c for c in counts])
    P2 = sp._contour_integral(model, nodes, weights)
    assert np.linalg.norm(P2 - P) < 1e-13 * max(1.0, np.linalg.norm(P))


def _full_rule_sum(model_or_A, nodes, weights):
    """Reference: (2 pi i)^{-1} * sum of w (zI - A)^{-1} over every node of
    the rule, one triangular inverse each in complex Schur coordinates."""
    T, Q = sp._complex_schur(model_or_A)
    n = T.shape[0]
    acc = np.zeros((n, n), dtype=complex)
    for z, wz in zip(nodes, weights):
        acc += wz * sp.sla.lapack.ztrtri(z * np.eye(n) - T)[0]
    P = Q @ acc @ Q.conj().T / (2j * np.pi)
    assert np.linalg.norm(P.imag) <= 1e-10 * max(1.0, np.linalg.norm(P.real))
    return P.real


def _jordan_inside():
    """A dense non-normal matrix with a Jordan block at -1 inside the contour."""
    rng = np.random.default_rng(4)
    T = np.diag([-1.0, -1.0, 2.0, 3.0, 4.5, 6.0])
    T[0, 1] = 1.0
    T += 0.5 * np.triu(rng.standard_normal((6, 6)), 2)
    Q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    return Q @ T @ Q.T, REF["sigma"]


@pytest.mark.parametrize("name", _SCHUR_CASES + ("b50", "jordan_inside", "empty"))
def test_half_rule_matches_full_rule_sum(name, request):
    # the upper half of a conjugate-symmetric rule carries the whole sum
    if name == "jordan_inside":
        model, sigma = _jordan_inside()
    elif name == "empty":
        model, sigma = np.diag([1.0, 2.0, 3.0]), 0.5
    else:
        model, sigma = _schur_case(name, request)
    rect, counts, _ = sp.riesz_rule(model, sigma)
    nodes, weights = sp._rectangle_nodes(*rect, counts)
    P = sp._contour_integral(model, nodes, weights)
    P_ref = _full_rule_sum(model, nodes, weights)
    assert np.linalg.norm(P - P_ref) <= 1e-14 * max(1.0, np.linalg.norm(P_ref))


def test_asymmetric_rule_rejected_before_any_inverse(ref_model, monkeypatch):
    rect, counts, _ = sp.riesz_rule(ref_model, REF["sigma"])
    nodes, weights = sp._rectangle_nodes(*rect, counts)

    def no_inverse(*args, **kwargs):
        raise AssertionError("ztrtri ran on an asymmetric rule")

    monkeypatch.setattr(sp.sla.lapack, "ztrtri", no_inverse)
    # one bottom node dropped
    bottom = np.arange(len(nodes)) == np.flatnonzero(nodes.imag < 0)[-1]
    with pytest.raises(InvalidContour):
        sp._contour_integral(ref_model, nodes[~bottom], weights[~bottom])
    # a mirror node whose weight is not -conj(w), and real-axis nodes with real weights
    for bad in (np.where(bottom, 1.5 * weights, weights),
                np.where(nodes.imag == 0, weights + 1.0, weights)):
        with pytest.raises(InvalidContour):
            sp._contour_integral(ref_model, nodes, bad)


@pytest.mark.parametrize("fields, counts", [
    ({}, [13, 29, 21, 29]),
    ({"n": 150}, [13, 29, 21, 29]),
    ({"n": 400}, [13, 29, 21, 29]),
    ({"n_unstable": 2, "b": 2.0, "spectrum_seed": 18}, [13, 49, 21, 49]),
    ({"b": 50.0}, [13, 121, 21, 121]),
])
def test_riesz_rule_symmetric_counts_unchanged(fields, counts):
    # one count for the top and bottom edges moves no count: the Bernstein
    # counts of the two edges already agree
    model, sigma = _config_model(**fields)
    rect, got, capped = sp.riesz_rule(model, sigma)
    assert got == counts and not capped
    assert sp._bernstein_counts(model.eigvals(), *rect)[0] == counts


def test_riesz_rule_capped_near_the_spectrum():
    # sigma 1e-3 from an eigenvalue: uncapped, the long edges would take
    # 1469 nodes each; at the cap the quadrature still returns, and its
    # shortfall is left for the residual against the Schur projector to show
    rng = np.random.default_rng(3)
    A = np.diag([-1.0, 0.5, 2.0, 3.0, 4.0, 5.0]) + 0.3 * np.triu(rng.standard_normal((6, 6)), 1)
    sigma = 0.501
    _, counts, capped = sp.riesz_rule(A, sigma)
    assert capped and max(counts) == sp._RIESZ_EDGE_CAP
    residual = np.linalg.norm(riesz_projector(A, sigma) - sp._spectral_projector_schur(A, sigma))
    assert 1e-12 < residual < np.inf


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
    g0, ok = contraction_certificate(stable_step(A, d, 1.0))
    assert ok
    assert abs(g0 - np.exp(-1.0)) < 1e-12


def test_contraction_nonnormal_transient():
    A = np.array([[1.0, 100.0], [0.0, 1.0]])
    d = eig_split(A, 0.5)   # no eigenvalue below 0.5: full space
    assert d.m == 0
    g0, ok = contraction_certificate(stable_step(A, d, 0.01))
    # dense norm oracle
    oracle = np.linalg.svd(expm(-0.01 * A), compute_uv=False)[0]
    assert abs(g0 - oracle) < 1e-12
    assert g0 > 1 and not ok


def test_contraction_decreasing_in_tau(ref_model, ref_dichotomy):
    vals = [contraction_certificate(stable_step(ref_model, ref_dichotomy, t))[0]
            for t in (1.0, 2.0, 4.0)]
    assert vals[0] > vals[1] > vals[2]


def test_stable_step_known_answer_where_projection_fails():
    # A = Q diag(-12, lam_s) Q^T is normal, so on X_sigma gamma0 =
    # e^{-tau min lam_s} and gamma_k = e^{-tau min(lam_s above sigma_k)}.  At
    # tau = 4 the projection U^T S(tau) U of the full semigroup carries a
    # roundoff of about 1e-16 e^{48} from the unstable mode
    lam_s = np.array([2.6, 4.0, 4.6, 5.2, 6.0, 6.8, 7.5])
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((8, 8)))
    A = Q @ np.diag(np.concatenate([[-12.0], lam_s])) @ Q.T
    tau, sigma = 4.0, 2.5
    dich, ladder = eig_split(A, sigma), sigma_ladder(A, sigma, 2)
    step = stable_step(A, dich, tau)
    gamma0, ok = contraction_certificate(step)
    assert ok
    assert abs(gamma0 / np.exp(-tau * lam_s.min()) - 1) < 1e-12
    U = dich.stable_basis
    projected = np.linalg.svd(U.T @ semigroup(A, tau) @ U, compute_uv=False)[0]
    assert abs(projected - gamma0) > 1
    expected = [np.exp(-tau * lam_s[lam_s > sk].min()) if np.any(lam_s > sk) else 0.0
                for sk in ladder.sigma_list]
    assert expected[0] > 0 and expected[-1] == 0.0   # one nontrivial tail, one empty
    assert_allclose(tail_contraction(ladder, step), expected, rtol=1e-12, atol=0)


def test_stable_step_is_the_semigroup_on_x_sigma(ref_model, ref_dichotomy):
    # X_sigma is A-invariant, so U^T S(tau) U = e^{-tau U^T A U}; at tau = 2
    # the projected route is still exact to roundoff
    U = ref_dichotomy.stable_basis
    A = ref_model.A
    assert np.linalg.norm(A @ U - U @ (U.T @ A @ U)) < 1e-13
    step = stable_step(ref_model, ref_dichotomy, 2.0)
    assert step.U is U and step.tau == 2.0
    assert_allclose(step.T, U.T @ semigroup(ref_model, 2.0) @ U, rtol=0, atol=1e-14)
    sq = step.squared()
    assert sq.tau == 4.0 and np.array_equal(sq.T, step.T @ step.T)


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
        gamma0 = contraction_certificate(stable_step(ref_model, ref_dichotomy, tau))[0]
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
    E1 = ref_ladder.completion[:, :ref_ladder.m]
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

    assert_allclose(block_spectrum(ladder.completion[:, :ladder.m]), [-0.5], atol=1e-12)
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
    gammas = tail_contraction(ladder, stable_step(model, eig_split(model, 0.5), tau))
    mu = np.diag(model.A)
    for k, sk in enumerate(ladder.sigma_list, start=1):
        above = mu[mu > sk]
        expected = np.exp(-above.min() * tau) if above.size else 0.0
        assert abs(gammas[k - 1] - expected) < 1e-12


def test_tail_contraction_reference(ref_step, ref_ladder, ref_gamma0):
    gammas = tail_contraction(ref_ladder, ref_step)
    assert gammas[0] > gammas[1] > gammas[2]
    assert gammas[-1] == 0.0   # exhausted level
    assert gammas[-1] < 0.5 * ref_gamma0
