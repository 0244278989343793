"""Spectral dichotomy at a level sigma, Riesz projectors, and contraction.

A is factored once per model.  ``OseenModel.real_schur`` holds the unsorted
real Schur form A^T = Z T Z^T (a bare matrix gets a fresh one), and every
Schur-based routine derives from it with no new factorization:
  - ``_ordered_schur`` reorders a copy by LAPACK trsen, at the top level and
    then each leading block at the next lower level (Bai & Demmel, Linear
    Algebra Appl. 186, 1993).  Its first m columns are the adjoint unstable
    basis D of ``eig_split``, spanning the invariant subspace of A^T for the
    eigenvalues with Re < sigma, defective or not; its nested prefixes are
    the subspaces of the ``sigma_ladder``.
  - ``_spectral_projector_schur`` solves one triangular Sylvester equation
    (trsyl) on the sigma-ordered form for the projector that certify checks
    the quadrature projector ``riesz_projector`` against.
  - ``OseenModel.complex_schur``, the form flipped and made complex
    triangular by ``rsf2csf``, carries the Riesz quadrature and the contour
    resolvent norms.  The Riesz rule is Gauss-Legendre on a rectangle
    symmetric about the real axis, each edge's count set by the Bernstein
    ellipse of the spectrum for a 1e-16 target, at most _RIESZ_EDGE_CAP per
    edge, the top and bottom edges alike.  A is real, so R(conj z) =
    conj R(z): the sum takes one triangular inverse per node in the upper
    half plane and half of each real-axis node, once the rule is checked to
    be conjugate-symmetric (each lower node z with weight w the mirror of an
    upper node conj z with weight -conj w).
X_sigma = (span D)^perp is A-invariant: in its basis U (``stable_basis``) the
chain's generator is A_sigma = U^T A U, and ``stable_step`` forms its step
T = e^{-tau A_sigma} = U^T S(tau) U, from which gamma_0 = ||T||_2 and the tail
gamma_k are read.  Projecting the full S(tau) = e^{-tau A} instead carries
roundoff of about 1e-16 e^{tau |lambda_u|} from the unstable modes (Moler &
Van Loan, SIAM Review 45, 2003).  ``semigroup`` (``expm``) is the one
exponential.  Eigenvalues come from the model's ``spectrum_cache``.

The contour bounds (I1, I2) of ``contour_bound_integrals`` bound S(tau) on
X_sigma by a Dunford integral of the resolvent norm along a shifted sector
(Pazy, Semigroups of Linear Operators, 1983, Sec. 2.5), by fixed 32-node
Gauss-Legendre rules.  Each of the 48 nodes needs one resolvent norm
1/sigma_min(lambda I + A) = 1/sigma_min(lambda I + T), which inverse Lanczos
finds with triangular solves, as in the computation of pseudospectra
(Trefethen, Acta Numerica 8, 1999).

A ladder of higher levels sigma_1 < ... < sigma_K, one per segment
Delta_k = [e^{2k/d}, e^{2(k+1)/d}], carries the tail-contraction constants
gamma_k used by the ergodicity hypotheses.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from .errors import ContourTouchesSpectrum, EmptyGap, GapViolation, InvalidContour

__all__ = [
    "Dichotomy",
    "SigmaLadder",
    "eig_split",
    "riesz_projector",
    "riesz_rule",
    "semigroup",
    "StableStep",
    "stable_step",
    "contraction_certificate",
    "contour_bound_integrals",
    "sigma_ladder",
    "tail_contraction",
]

_LANCZOS_RTOL = 1e-14  # relative Ritz residual at which inverse Lanczos stops
_RIESZ_TARGET = 1e-16  # quadrature error each Riesz edge's node count aims at
_RIESZ_EDGE_CAP = 256  # the most Gauss-Legendre nodes on one Riesz edge


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


def _real_schur(model_or_A) -> tuple:
    """(T, Z) with A^T = Z T Z^T: an OseenModel's cached form, else a fresh one."""
    if hasattr(model_or_A, "real_schur"):
        return model_or_A.real_schur
    return sla.schur(_as_matrix(model_or_A).T, output="real")


def _complex_from_real(T, Z) -> tuple:
    """(T_c, Q) with A = Q T_c Q^H from A^T = Z T Z^T: with J the reversal,
    A = (Z J)(J T^T J)(Z J)^T, and ``rsf2csf`` makes J T^T J triangular.
    T_c is returned in Fortran order, the layout LAPACK's trtri works in."""
    T_c, Q = sla.rsf2csf(T.T[::-1, ::-1], Z[:, ::-1])
    return np.asfortranarray(T_c), Q


def _complex_schur(model_or_A) -> tuple:
    """(T, Q) with A = Q T Q^H: an OseenModel's cached form, else a fresh one."""
    if hasattr(model_or_A, "complex_schur"):
        return model_or_A.complex_schur
    return _complex_from_real(*_real_schur(model_or_A))


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
        return {"sigma": self.sigma, "m": self.m, "gap": self.gap, "D": self.D.ravel().tolist()}


def _reorder(T, Q, level):
    """(T, Q, k): LAPACK trsen moves the k eigenvalues of the real Schur form T
    with Re < level to its leading block, and rotates Q along."""
    T, Q, _, _, k, _, _, info = sla.lapack.dtrsen(np.diag(T) < level, T, Q, job="N")
    if info:
        raise np.linalg.LinAlgError("eigenvalues could not be separated for reordering")
    return T, Q, k


def _ordered_schur(model_or_A, levels):
    """(T, Z, counts): A^T = Z T Z^T with nested adjoint invariant subspaces.

    For ascending levels, the first counts[i] columns of Z span the invariant
    subspace of A^T for the eigenvalues with Re < levels[i].  ``_real_schur``
    is reordered at the top level, then each leading block at the next lower
    level, its orthogonal factor applied to the block's rows of T and columns
    of Z, which keeps every higher prefix's span.  Each column of Z is signed
    so that its largest-magnitude entry is positive, and T to match.
    """
    T, Z = _real_schur(model_or_A)
    T, Z, k = _reorder(T, Z, levels[-1])
    counts = [k]
    for level in reversed(levels[:-1]):
        if k:
            Tk, Q, k_next = _reorder(T[:k, :k], np.eye(k), level)
            T[:k, :k], T[:k, k:] = Tk, Q.T @ T[:k, k:]
            Z[:, :k] = Z[:, :k] @ Q
            k = k_next
        counts.append(k)
    s = np.sign(Z[np.argmax(np.abs(Z), axis=0), np.arange(Z.shape[1])])
    return s[:, None] * T * s, Z * s, counts[::-1]


def _complement_basis(Q):
    """Orthonormal basis of the orthogonal complement of the columns of Q."""
    n, m = Q.shape
    if m == 0:
        return np.eye(n)
    if m == n:
        return np.zeros((n, 0))
    U = np.linalg.svd(Q, full_matrices=True)[0]
    return U[:, m:]


def _spectral_projector_schur(model_or_A, sigma):
    """Riesz projector of A onto modes with Re < sigma: with A^T = Z T Z^T
    ordered at sigma and T11 Y - Y T22 = T12 solved by LAPACK trsyl, the
    projector of A^T is Z1 (Z1^T + Y Z2^T), and that of A its transpose."""
    T, Z, (m,) = _ordered_schur(model_or_A, [sigma])
    Y = np.zeros((m, T.shape[0] - m))
    if Y.size:
        Y, scale, _ = sla.lapack.dtrsyl(T[:m, :m], T[m:, m:], T[:m, m:], isgn=-1)
        Y /= scale
    Z1, Z2 = Z[:, :m], Z[:, m:]
    return (Z1 @ (Z1.T + Y @ Z2.T)).T


def eig_split(model, sigma, gap_tol=1e-6) -> Dichotomy:
    """Split R^n at level sigma into X_sigma^perp (unstable) and X_sigma.

    Raises GapViolation when an eigenvalue real part lies within gap_tol of
    sigma.
    """
    ev = _eigvals(model)
    gap = float(np.min(np.abs(ev.real - sigma))) if ev.size else np.inf
    if gap < gap_tol:
        raise GapViolation(f"eigenvalue real part within {gap_tol} of sigma={sigma} (gap={gap:.3e})")
    _, Z, (m,) = _ordered_schur(model, [sigma])
    D = Z[:, :m]
    return Dichotomy(sigma=float(sigma), m=m, D=D, gap=gap,
                     stable_basis=_complement_basis(D))


def _rectangle_edges(re_lo, re_hi, im_lo, im_hi):
    """(mid, half) of each edge of a closed rectangle, counterclockwise from
    the lower right corner (right, top, left, bottom): the edge is
    mid + half * t for t in [-1, 1]."""
    corners = [complex(re_hi, im_lo), complex(re_hi, im_hi),
               complex(re_lo, im_hi), complex(re_lo, im_lo)]
    return [(0.5 * (a + b), 0.5 * (b - a)) for a, b in zip(corners, corners[1:] + corners[:1])]


def _rectangle_nodes(re_lo, re_hi, im_lo, im_hi, counts):
    """Counterclockwise nodes/weights on a closed rectangle, Gauss-Legendre
    per edge with counts[e] nodes on edge e (right, top, left, bottom).  (A
    single trapezoid rule around the cornered contour is only O(h^2);
    per-edge Gauss nodes converge geometrically.)"""
    nodes, weights = [], []
    for (mid, half), count in zip(_rectangle_edges(re_lo, re_hi, im_lo, im_hi), counts):
        t, w = np.polynomial.legendre.leggauss(count)
        nodes.extend(mid + half * t)
        weights.extend(half * w)
    return np.array(nodes), np.array(weights)


def _bernstein_counts(ev, re_lo, re_hi, im_lo, im_hi) -> tuple:
    """(counts, capped): each edge's Gauss-Legendre count for the Riesz
    rectangle, and whether the cap bound on some edge.

    On an edge mapped onto [-1, 1], the resolvent is analytic inside the
    smallest Bernstein ellipse through an eigenvalue t, whose parameter is
    rho = |t +- sqrt(t^2 - 1)| (the larger of the two); an N-node rule then
    errs by O(rho^{-2N}) (Trefethen, Approximation Theory and Approximation
    Practice, 2013, Thm 19.3).  So N = ceil(ln(1/_RIESZ_TARGET) / (2 ln rho)),
    at least 2 and at most _RIESZ_EDGE_CAP.
    """
    counts, capped = [], False
    for mid, half in _rectangle_edges(re_lo, re_hi, im_lo, im_hi):
        t = (np.asarray(ev, dtype=complex) - mid) / half
        s = np.sqrt(t * t - 1.0)
        rho = float(np.min(np.maximum(np.abs(t + s), np.abs(t - s))))
        need = -np.log(_RIESZ_TARGET) / (2.0 * np.log(rho)) if rho > 1.0 else np.inf
        capped = capped or bool(need > _RIESZ_EDGE_CAP)
        counts.append(int(min(_RIESZ_EDGE_CAP, max(2, np.ceil(need)))))
    return counts, capped


def _upper_half_rule(nodes, weights) -> tuple:
    """(nodes, weights) that carry a conjugate-symmetric rule's sum: the nodes
    with Im z > 0, then the real-axis nodes at half weight.

    For real A each node z with weight w has a mirror conj z with weight
    -conj w, whose term -conj(w R(z)) the real part of ``_contour_integral``
    restores.  Raises InvalidContour unless the nodes with Im z < 0 are
    exactly the mirrors of those with Im z > 0 and every real-axis node is its
    own mirror (w = -conj w).
    """
    nodes = np.asarray(nodes, dtype=complex)
    weights = np.asarray(weights, dtype=complex)
    upper, lower = nodes.imag > 0, nodes.imag < 0
    on_axis = ~(upper | lower)
    pairs = Counter(zip(nodes[upper].tolist(), weights[upper].tolist()))
    mirrors = Counter(zip(nodes[lower].conj().tolist(), (-weights[lower].conj()).tolist()))
    w_axis = weights[on_axis]
    if pairs != mirrors or np.any(w_axis != -w_axis.conj()):
        raise InvalidContour("the quadrature rule is not conjugate-symmetric: each node z "
                             "with weight w needs the node conj(z) with weight -conj(w)")
    return (np.concatenate([nodes[upper], nodes[on_axis]]),
            np.concatenate([weights[upper], 0.5 * w_axis]))


def _contour_integral(model_or_A, nodes, weights, dist_tol=1e-8):
    """(2 pi i)^{-1} * counterclockwise sum of weights * (lambda I - A)^{-1}.

    Equals the same integral of (A - lambda I)^{-1} with the opposite
    orientation (the contour "enclosing from the left").  The rule must be
    conjugate-symmetric, which ``_upper_half_rule`` checks before any
    inverse.  A is real, so R(conj z) = conj R(z) and each mirror pair adds
    X - conj X, X = w R(z): the integral is 2 Re(Sigma / (2 pi i)) =
    Im(Sigma) / pi, with Sigma the sum over the upper half rule alone.  Sigma
    is taken in complex Schur coordinates A = Q T Q^H (``_complex_schur``):
    each upper node costs one triangular inverse (zI - T)^{-1} (LAPACK
    trtri), and the sum is rotated back once, Q (sum) Q^H.
    """
    nodes, weights = _upper_half_rule(nodes, weights)
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
    return acc.imag / np.pi


def riesz_rule(model, sigma, gap_tol=1e-6) -> tuple:
    """(rect, counts, capped) of ``riesz_projector``'s quadrature.

    rect = (re_lo, sigma, -H, H) is the closed rectangle with its right edge
    on {Re = sigma} and margins of half the spectral gap; with no enclosed
    eigenvalue it is (sigma - 1, sigma, -1, 1).  counts and capped are
    ``_bernstein_counts`` on it, a fixed function of the spectrum and sigma,
    with the top and bottom edges both given the larger of their two counts,
    so that the rule is conjugate-symmetric by construction.
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
    rect = (re_lo, float(sigma), -H, H)
    counts, capped = _bernstein_counts(ev, *rect)
    counts[1] = counts[3] = max(counts[1], counts[3])
    return rect, counts, capped


def riesz_projector(model, sigma, gap_tol=1e-6) -> np.ndarray:
    """Riesz projector onto modes with Re < sigma by rectangle quadrature.

    Each edge of the ``riesz_rule`` rectangle carries the Gauss-Legendre
    count that the smallest Bernstein ellipse through an eigenvalue allows
    for a 1e-16 error (Trefethen, Approximation Theory and Approximation
    Practice, 2013, Thm 19.3), capped at _RIESZ_EDGE_CAP nodes per edge.
    Where the cap binds, the shortfall shows in the residual against the
    Schur projector, which certify records and report checks.  The rule is
    conjugate-symmetric, so ``_contour_integral`` inverts only at the upper
    halves of the vertical edges, the top edge, and the real-axis midpoint of
    each odd vertical edge at half weight: 47 inverses for 92 nodes on the
    default model.  With no enclosed eigenvalue the result is the zero matrix.
    """
    rect, counts, _ = riesz_rule(model, sigma, gap_tol)
    nodes, weights = _rectangle_nodes(*rect, counts)
    return _contour_integral(model, nodes, weights)


def semigroup(model, tau) -> np.ndarray:
    """e^{-tau A} of a model's A or a square matrix (``scipy.linalg.expm``)."""
    A = _as_matrix(model)
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    return sla.expm(-tau * A)


@dataclass(frozen=True)
class StableStep:
    """The chain's step on X_sigma = span U over time tau: T = e^{-tau A_sigma}."""

    tau: float
    U: np.ndarray   # n x (n-m) orthonormal basis of X_sigma (Dichotomy.stable_basis)
    T: np.ndarray   # (n-m) x (n-m)

    def squared(self) -> "StableStep":
        return StableStep(2.0 * self.tau, self.U, self.T @ self.T)


def stable_step(model_or_A, dich, tau) -> StableStep:
    """T = e^{-tau A_sigma} with A_sigma = U^T A U, U = ``dich.stable_basis``."""
    A, U = _as_matrix(model_or_A), dich.stable_basis
    return StableStep(float(tau), U, semigroup(U.T @ A @ U, tau))


def contraction_certificate(step):
    """(gamma0, ok): gamma0 = ||T||_2, the norm of the step on X_sigma, and gamma0 < 1."""
    gamma0 = _spectral_norm(step.T)
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

    completion is one orthogonal matrix of ordered Schur vectors of A^T: its
    first m columns span X_sigma^perp, columns m..n_k span the middle block
    between sigma and sigma_k, and columns n_k.. span X_{sigma_k}.
    """

    sigma: float
    sigma_list: tuple
    n_list: tuple
    m: int
    completion: np.ndarray
    gaps: tuple

    @property
    def K(self) -> int:
        return len(self.sigma_list)

    def mid_basis(self, k) -> np.ndarray:
        """Orthonormal basis of X_{sigma sigma_k} (levels are 1-based)."""
        return self.completion[:, self.m:self.n_list[k - 1]]

    def tail_basis(self, k) -> np.ndarray:
        """Orthonormal basis of X_{sigma_k}."""
        return self.completion[:, self.n_list[k - 1]:]

    def head_basis(self, k) -> np.ndarray:
        """Orthonormal basis of X_{sigma_k}^perp = X_sigma^perp + X_{sigma sigma_k}."""
        return self.completion[:, :self.n_list[k - 1]]

    def to_json_dict(self) -> dict:
        return {"sigma": self.sigma, "sigma_list": list(self.sigma_list), "m": self.m,
                "n_list": [int(v) for v in self.n_list], "gaps": list(self.gaps)}


def sigma_ladder(model, sigma, K, gap_tol=1e-6, grid_points=1024) -> SigmaLadder:
    """Choose sigma_k in Delta_k = [e^{2k/d}, e^{2(k+1)/d}] and build bases.

    Each sigma_k maximizes the distance to the spectrum over a uniform grid
    on its segment (ties resolved toward the smaller value).  Levels above
    the whole spectrum are allowed and produce empty tails.

    Raises EmptyGap when every grid point of some segment is within gap_tol
    of the spectrum.
    """
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
    _, Z, (m, *n_list) = _ordered_schur(model, [sigma, *sigma_list])
    return SigmaLadder(sigma=float(sigma), sigma_list=tuple(sigma_list),
                       n_list=tuple(n_list), m=m, completion=Z, gaps=tuple(gaps))


def tail_contraction(ladder, step) -> np.ndarray:
    """gamma_k = ||V^T T V||_2 per ladder level, V = U^T E_k the orthonormal basis
    of X_{sigma_k} (which lies in X_sigma) in the step's frame."""
    Vs = [step.U.T @ ladder.tail_basis(k) for k in range(1, ladder.K + 1)]
    return np.array([_spectral_norm(V.T @ step.T @ V) for V in Vs])
