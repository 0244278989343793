"""Spectral dichotomy at a level sigma, Riesz projectors, and contraction.

The splitting works with the adjoint unstable basis d_1..d_m: orthonormal
Schur vectors of A^T spanning its invariant subspace for the eigenvalues
with Re < sigma, read off one ordered real Schur form (``_ordered_schur``),
defective or not.  X_sigma is the orthogonal complement of span{d_j}; it is
invariant under S(tau) = e^{-A tau} and the restricted operator norm there
is the contraction constant gamma_0.

S(tau) is formed only by ``semigroup``, by scaling and squaring (``expm``);
callers build it once per tau and pass it to the contraction constants.
certify checks the quadrature projector ``riesz_projector`` against the
sorted real Schur one.  The quadrature uses a fixed _RIESZ_NODES-node rule
on a rectangle and runs in complex Schur coordinates, one triangular
inverse per node.

The contour bounds (I1, I2) of ``contour_bound_integrals`` bound S(tau) on
X_sigma by a Dunford integral of the resolvent norm along a shifted sector
(Pazy, Semigroups of Linear Operators, 1983, Sec. 2.5).  Both use fixed
32-node Gauss-Legendre rules: I1 on the vertical segment, evaluated at its
16 positive nodes only because the integrand is even for real A; I2 in the
variable u = e^{-|cos psi| tau (gamma - g0)} on each ray from g0.  Each of
the 48 nodes needs one resolvent norm 1/sigma_min(lambda I + A).  As in the
computation of pseudospectra (Trefethen, Computation of pseudospectra, Acta
Numerica 8, 1999), sigma_min is read off the complex Schur form
A = Q T Q^H: it equals sigma_min(lambda I + T), which inverse Lanczos finds
with triangular solves, O(n^2) per step, instead of a dense SVD.  Against
adaptive quadrature (``scipy.integrate.quad``) I1 agrees within 3.1e-11
relative and I2 within 2.2e-5 at n = 20 (tau in {1, 2, 4, 8}) and 5.2e-5 at
n = 400 (tau = 2).

Functions that take an ``OseenModel`` read its eigenvalues from the
model's ``spectrum_cache`` and its complex Schur form from the model's
``complex_schur``, so one form serves the Riesz quadrature and the contour
bounds; a bare matrix gets a dense eigensolve and its own Schur form.

A ladder of higher levels sigma_1 < ... < sigma_K, one per segment
Delta_k = [e^{2k/d}, e^{2(k+1)/d}], carries the tail-contraction constants
gamma_k used by the ergodicity hypotheses.  The same Schur form, re-sorted
at each lower level, gives every nested subspace of the ladder at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from .errors import ContourTouchesSpectrum, EmptyGap, GapViolation, InvalidContour

__all__ = [
    "Dichotomy",
    "SigmaLadder",
    "eig_split",
    "riesz_projector",
    "semigroup",
    "contraction_certificate",
    "contour_bound_integrals",
    "sigma_ladder",
    "tail_contraction",
]

_LANCZOS_RTOL = 1e-14  # relative Ritz residual at which inverse Lanczos stops
_RIESZ_NODES = 256     # Gauss-Legendre nodes on the Riesz rectangle, shared by its four edges


def _as_matrix(model_or_A) -> np.ndarray:
    A = getattr(model_or_A, "A", model_or_A)
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square real matrix")
    return A


def _eigvals(model_or_A) -> np.ndarray:
    """Eigenvalues of A: an OseenModel's cached spectrum, else a dense eigensolve."""
    if hasattr(model_or_A, "spectrum_cache"):
        return model_or_A.eigvals()
    return np.linalg.eigvals(_as_matrix(model_or_A))


def _complex_schur(model_or_A) -> tuple:
    """(T, Q) with A = Q T Q^H: an OseenModel's cached form, else a fresh one."""
    if hasattr(model_or_A, "complex_schur"):
        return model_or_A.complex_schur
    return sla.schur(_as_matrix(model_or_A), output="complex")


def _spectral_norm(M) -> float:
    if M.size == 0:
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[0])


@dataclass(frozen=True)
class Dichotomy:
    """Orthogonal stable/unstable splitting of R^n at level sigma.

    D and stable_basis are orthonormal; X_sigma = (span D)^perp.
    """

    sigma: float
    m: int
    D: np.ndarray        # n x m orthonormal adjoint unstable basis (Schur vectors)
    gap: float           # distance from {Re = sigma} to the spectrum
    stable_basis: np.ndarray  # n x (n-m) orthonormal basis of X_sigma

    @property
    def n(self) -> int:
        return self.D.shape[0]

    def to_json_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "m": self.m,
            "gap": self.gap,
            "D": self.D.ravel().tolist(),
        }


def _ordered_schur(A, levels):
    """Orthogonal Z and counts with nested adjoint invariant subspaces.

    For ascending levels, the first counts[i] columns of Z span the invariant
    subspace of A^T for the eigenvalues with Re < levels[i].  One real Schur
    form of A^T is sorted at the top level, and each leading block is then
    re-sorted at the next lower level, which keeps every higher prefix's span
    (Bai & Demmel, Linear Algebra Appl. 186, 1993).  Each column is signed
    so that its largest-magnitude entry is positive.
    """
    T, Z, k = sla.schur(A.T, output="real", sort=lambda re, im: re < levels[-1])
    counts = [k]
    for level in reversed(levels[:-1]):
        if k:
            T, Q, k_next = sla.schur(T[:k, :k], output="real",
                                     sort=lambda re, im: re < level)
            Z[:, :k] = Z[:, :k] @ Q
            k = k_next
        counts.append(k)
    lead = Z[np.argmax(np.abs(Z), axis=0), np.arange(Z.shape[1])]
    return Z * np.sign(lead), counts[::-1]


def _complement_basis(Q):
    """Orthonormal basis of the orthogonal complement of the columns of Q."""
    n, m = Q.shape
    if m == 0:
        return np.eye(n)
    if m == n:
        return np.zeros((n, 0))
    U = np.linalg.svd(Q, full_matrices=True)[0]
    return U[:, m:]


def _spectral_projector_schur(A, sigma):
    """Riesz projector onto modes with Re < sigma, via sorted real Schur form."""
    n = A.shape[0]
    T, Z, sdim = sla.schur(A, output="real", sort=lambda re, im: re < sigma)
    if sdim == 0:
        return np.zeros((n, n))
    if sdim == n:
        return np.eye(n)
    T11, T12, T22 = T[:sdim, :sdim], T[:sdim, sdim:], T[sdim:, sdim:]
    Y = sla.solve_sylvester(T11, -T22, T12)
    P_T = np.zeros((n, n))
    P_T[:sdim, :sdim] = np.eye(sdim)
    P_T[:sdim, sdim:] = Y
    return Z @ P_T @ Z.T


def eig_split(model, sigma, gap_tol=1e-6) -> Dichotomy:
    """Split R^n at level sigma into X_sigma^perp (unstable) and X_sigma.

    Raises GapViolation when an eigenvalue real part lies within gap_tol of
    sigma.
    """
    A = _as_matrix(model)
    ev = _eigvals(model)
    gap = float(np.min(np.abs(ev.real - sigma))) if ev.size else np.inf
    if gap < gap_tol:
        raise GapViolation(f"eigenvalue real part within {gap_tol} of sigma={sigma} (gap={gap:.3e})")
    Z, (m,) = _ordered_schur(A, [sigma])
    D = Z[:, :m]
    return Dichotomy(sigma=float(sigma), m=m, D=D, gap=gap,
                     stable_basis=_complement_basis(D))


def _rectangle_nodes(re_lo, re_hi, im_lo, im_hi, n_nodes):
    """Counterclockwise nodes/weights on a closed rectangle, Gauss-Legendre
    per edge.  (A single trapezoid rule around the cornered contour is only
    O(h^2); per-edge Gauss nodes keep the exponential convergence needed at
    a few hundred nodes.)"""
    corners = [complex(re_hi, im_lo), complex(re_hi, im_hi),
               complex(re_lo, im_hi), complex(re_lo, im_lo)]
    lengths = [abs(corners[(i + 1) % 4] - corners[i]) for i in range(4)]
    per = sum(lengths)
    nodes, weights = [], []
    for i in range(4):
        a, bpt = corners[i], corners[(i + 1) % 4]
        ne = max(2, int(round(n_nodes * lengths[i] / per)))
        t, w = np.polynomial.legendre.leggauss(ne)
        mid, half = 0.5 * (a + bpt), 0.5 * (bpt - a)
        nodes.extend(mid + half * t)
        weights.extend(half * w)
    return np.array(nodes), np.array(weights)


def _contour_integral(model_or_A, nodes, weights, dist_tol=1e-8):
    """(2 pi i)^{-1} * counterclockwise sum of weights * (lambda I - A)^{-1}.

    Equals the same integral of (A - lambda I)^{-1} with the opposite
    orientation (the contour "enclosing from the left").  The sum is taken in
    complex Schur coordinates A = Q T Q^H (``_complex_schur``): each node
    costs one triangular inverse (zI - T)^{-1} (LAPACK trtri), and the sum is
    rotated back once, Q (sum) Q^H.
    """
    T, Q = _complex_schur(model_or_A)
    mind = min(np.min(np.abs(np.diag(T) - z)) for z in nodes)
    if mind < dist_tol:
        raise ContourTouchesSpectrum(f"contour node within {dist_tol} of the spectrum")
    n = T.shape[0]
    acc = np.zeros((n, n), dtype=complex)
    for z, wz in zip(nodes, weights):
        M = -T
        M.flat[::n + 1] += z
        R, _ = sla.lapack.ztrtri(M, overwrite_c=1)
        R *= wz
        acc += R
    del M, R  # free the last inverse before the two products
    acc = Q @ acc
    acc = acc @ Q.conj().T
    acc /= 2j * np.pi
    imag_res = float(np.linalg.norm(acc.imag))
    if imag_res > 1e-10 * max(1.0, np.linalg.norm(acc.real)):
        raise ContourTouchesSpectrum(
            f"imaginary residue {imag_res:.2e} after contour quadrature; refine the contour")
    return acc.real


def riesz_projector(model, sigma, gap_tol=1e-6) -> np.ndarray:
    """Riesz projector onto modes with Re < sigma by rectangle quadrature.

    The closed rectangle has its right edge on {Re = sigma}; margins are
    half the spectral gap.  With no enclosed eigenvalue the result is the
    zero matrix.
    """
    ev = _eigvals(model)
    gap = float(np.min(np.abs(ev.real - sigma)))
    if gap < gap_tol:
        raise GapViolation(f"eigenvalue real part within {gap_tol} of sigma={sigma}")
    enclosed = ev[ev.real < sigma]
    if enclosed.size:
        re_lo = float(enclosed.real.min()) - 0.5 * gap
        H = float(np.max(np.abs(enclosed.imag))) + 0.5 * gap
    else:
        re_lo, H = sigma - 1.0, 1.0
    nodes, weights = _rectangle_nodes(re_lo, sigma, -H, H, _RIESZ_NODES)
    return _contour_integral(model, nodes, weights)


def semigroup(model, tau) -> np.ndarray:
    """S(tau) = e^{-A tau} by scaling and squaring (``scipy.linalg.expm``)."""
    A = _as_matrix(model)
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    return sla.expm(-tau * A)


def restricted_norm(S, basis) -> float:
    """Operator 2-norm of S restricted to the span of an orthonormal basis."""
    return _spectral_norm(basis.T @ S @ basis)


def contraction_certificate(dich, S):
    """(gamma0, ok): norm of S = S(tau) restricted to X_sigma, contraction flag."""
    gamma0 = restricted_norm(S, dich.stable_basis)
    return gamma0, bool(gamma0 < 1.0)


def _sigma_min_triangular(M) -> float:
    """Smallest singular value of an upper-triangular complex matrix M.

    Inverse Lanczos (Trefethen 1999): Hermitian Lanczos on
    (M^H M)^{-1}, whose largest eigenvalue is sigma_min^{-2}.  Each step
    applies the operator by two triangular solves (LAPACK trtrs, with M^H and
    then with M) and orthogonalizes the new vector against all earlier ones
    by two passes of classical Gram-Schmidt; alpha_k sums the two passes'
    coefficients on v_k.  The start vector is the fixed 1/sqrt(n).  The
    iteration stops when the residual beta_k |s_k| of the largest Ritz value
    theta falls to _LANCZOS_RTOL * theta, or after n steps, where the Krylov
    space is exhausted and theta is exact.  Raises ContourTouchesSpectrum
    when M is exactly singular.
    """
    n = M.shape[0]
    V = np.empty((n, n), dtype=complex)  # Lanczos vectors, one per row
    V[0] = 1.0 / np.sqrt(n)
    alpha, beta = np.empty(n), np.empty(n)
    for k in range(n):
        y, info = sla.lapack.ztrtrs(M, V[k, :, None], trans=2)
        if info == 0:
            y, info = sla.lapack.ztrtrs(M, y, overwrite_b=1)
        if info > 0:
            raise ContourTouchesSpectrum(
                f"lambda I + T has a zero diagonal entry ({info - 1}): "
                "a contour node lies on the spectrum")
        w, Vk = y[:, 0], V[:k + 1]
        c1 = Vk.conj() @ w
        w -= c1 @ Vk
        c2 = Vk.conj() @ w
        w -= c2 @ Vk
        alpha[k] = (c1[k] + c2[k]).real
        beta[k] = np.linalg.norm(w)
        # largest Ritz value theta and the last entry s_k of its eigenvector,
        # by LAPACK stebz and stein (scipy's eigh_tridiagonal without its
        # per-call checks)
        if k == 0:
            theta, s_k = alpha[0], 1.0
        else:
            d, e = alpha[:k + 1], beta[:k]
            m, ev, iblock, isplit, _ = sla.lapack.dstebz(d, e, 3, 0.0, 0.0, k + 1, k + 1,
                                                          0.0, "B")
            z, _ = sla.lapack.dstein(d, e, ev[:m], iblock, isplit)
            theta, s_k = ev[0], z[-1, 0]
        if k == n - 1 or beta[k] * abs(s_k) <= _LANCZOS_RTOL * theta:
            return float(theta ** -0.5)
        V[k + 1] = w / beta[k]


def contour_bound_integrals(model, sigma, tau, theta=1.0, psi=3 * np.pi / 4,
                            tail_tol=1e-16):
    """Resolvent-norm integrals (I1, I2) along the shifted sector contour.

    I1 runs over the vertical segment {Re lambda = -sigma,
    |Im lambda| <= X = (sigma+theta)*tan(pi-psi)}; I2 over the two rays
    lambda = gamma*e^{+-i psi} + theta, gamma >= g0 = (sigma+theta)/|cos psi|.
    Both weight the resolvent norm 1/sigma_min(lambda I + A) by
    |e^{lambda tau}|; the rays are truncated at gamma_max, where the
    exponential factor alone falls below tail_tol.

    Fixed rules, 48 nodes in all:
      - I1: 32-node Gauss-Legendre on [-X, X].  For real A,
        sigma_min(conj(lambda) I + A) = sigma_min(lambda I + A), so the
        integrand is even in x; the 16 positive nodes are evaluated and
        their sum doubled, which is the full 32-node rule exactly.
      - I2: 32-node Gauss-Legendre in u = e^{-|cos psi| tau (gamma - g0)}
        on [u(gamma_max), 1].  The exponential weight becomes the Jacobian,
        so the rule sees only the resolvent norm.
    No node takes an SVD.  With A = Q T Q^H (``_complex_schur``, shared with
    the Riesz quadrature), sigma_min(lambda I + A) = sigma_min(lambda I + T),
    found by inverse Lanczos on the triangular lambda I + T
    (``_sigma_min_triangular``; Trefethen, Computation of pseudospectra,
    Acta Numerica 8, 1999).  On the default model it agrees with a dense SVD
    of lambda I + A within 1.1e-15 relative at n = 20, 7.4e-14 at n = 150 and
    3.7e-13 at n = 400, in 9 to 25 steps per node.
    Against adaptive quadrature (``scipy.integrate.quad``, limit 200): I1
    within 3.1e-11 relative; I2 within 2.2e-5 at n = 20, tau in
    {1, 2, 4, 8}, and 5.2e-5 at n = 400, tau = 2.
    """
    if not (np.pi / 2 < psi < np.pi):
        raise InvalidContour("psi must lie in (pi/2, pi)")
    if theta <= 0:
        raise InvalidContour("theta must be positive")
    T, _ = _complex_schur(model)
    diag = np.diag(T)
    M = np.array(T, order="F")  # lambda I + T, one node at a time
    t, w = np.polynomial.legendre.leggauss(32)

    def res_norm_sum(lams, weights):
        total = 0.0
        for lam, wi in zip(lams, weights):
            np.fill_diagonal(M, diag + lam)
            total += wi / _sigma_min_triangular(M)
        return total

    X = (sigma + theta) * np.tan(np.pi - psi)
    pos = t > 0
    I1 = 2.0 * X * np.exp(-sigma * tau) * res_norm_sum(-sigma + 1j * X * t[pos], w[pos])

    c = abs(np.cos(psi))
    g0 = (sigma + theta) / c
    # |e^{lambda tau}| = exp((gamma*cos psi + theta) tau) along the ray
    g_max = g0 + (abs(np.log(tail_tol)) / tau + theta) / c
    u_lo = np.exp(-c * tau * (g_max - g0))
    u = u_lo + 0.5 * (1.0 - u_lo) * (t + 1.0)
    g = g0 - np.log(u) / (c * tau)
    # exp((gamma cos psi + theta) tau) dgamma = e^{(theta - c g0) tau} du / (c tau)
    I2_half = (np.exp((theta - c * g0) * tau) / (c * tau) * 0.5 * (1.0 - u_lo)
               * res_norm_sum(g * np.exp(1j * psi) + theta, w))
    # real A: the conjugate ray contributes the same amount
    return float(I1), float(2.0 * I2_half)


@dataclass(frozen=True)
class SigmaLadder:
    """Increasing levels sigma < sigma_1 < ... < sigma_K with nested bases.

    completion is one orthogonal matrix of ordered Schur vectors of A^T and
    E_all its first n_K columns: the first m span X_sigma^perp, columns
    m..n_k span the middle block between sigma and sigma_k, and columns
    n_k.. span X_{sigma_k}.
    """

    sigma: float
    sigma_list: tuple
    n_list: tuple
    m: int
    E_all: np.ndarray
    completion: np.ndarray
    gaps: tuple

    @property
    def K(self) -> int:
        return len(self.sigma_list)

    def mid_basis(self, k) -> np.ndarray:
        """Orthonormal basis of X_{sigma sigma_k} (levels are 1-based)."""
        return self.E_all[:, self.m:self.n_list[k - 1]]

    def tail_basis(self, k) -> np.ndarray:
        """Orthonormal basis of X_{sigma_k}."""
        return self.completion[:, self.n_list[k - 1]:]

    def head_basis(self, k) -> np.ndarray:
        """Orthonormal basis of X_{sigma_k}^perp = X_sigma^perp + X_{sigma sigma_k}."""
        return self.E_all[:, :self.n_list[k - 1]]

    def to_json_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "sigma_list": list(self.sigma_list),
            "n_list": [int(v) for v in self.n_list],
            "m": self.m,
            "gaps": list(self.gaps),
        }


def sigma_ladder(model, sigma, K, gap_tol=1e-6, grid_points=1024) -> SigmaLadder:
    """Choose sigma_k in Delta_k = [e^{2k/d}, e^{2(k+1)/d}] and build bases.

    Each sigma_k maximizes the distance to the spectrum over a uniform grid
    on its segment (ties resolved toward the smaller value).  Levels above
    the whole spectrum are allowed and produce empty tails.

    Raises EmptyGap when every grid point of some segment is within gap_tol
    of the spectrum.
    """
    A = _as_matrix(model)
    d = getattr(model, "d", 2)
    ev_re = _eigvals(model).real
    sigma_list, gaps = [], []
    for k in range(1, K + 1):
        lo, hi = np.exp(2.0 * k / d), np.exp(2.0 * (k + 1) / d)
        grid = np.linspace(lo, hi, grid_points)
        dist = np.min(np.abs(grid[:, None] - ev_re[None, :]), axis=1)
        best = int(np.argmax(dist))  # argmax returns the first (smallest) maximizer
        if dist[best] < gap_tol:
            raise EmptyGap(f"no admissible level in segment {k}: max distance {dist[best]:.2e}")
        sk = float(grid[best])
        if sigma_list and sk <= sigma_list[-1]:
            raise EmptyGap(f"levels not increasing at segment {k}")
        sigma_list.append(sk)
        gaps.append(float(dist[best]))
    if sigma_list[0] <= sigma:
        raise ValueError("sigma must lie below the first ladder segment")
    Z, (m, *n_list) = _ordered_schur(A, [sigma, *sigma_list])
    return SigmaLadder(sigma=float(sigma), sigma_list=tuple(sigma_list),
                       n_list=tuple(n_list), m=m, E_all=Z[:, :n_list[-1]],
                       completion=Z, gaps=tuple(gaps))


def tail_contraction(ladder, S) -> np.ndarray:
    """gamma_k = norm of S = S(tau) restricted to X_{sigma_k}, per ladder level."""
    return np.array([restricted_norm(S, ladder.tail_basis(k))
                     for k in range(1, ladder.K + 1)])
