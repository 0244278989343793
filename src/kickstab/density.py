"""Pushforward density of the projected truncated Gaussian.

The projection pi = (alpha, E) maps R^n = R^m (+) R^nm onto R^nm.  Its
fibers cut the truncation ball in m-dimensional disks; the pushforward
density is the slice integral

    P(x) = c_hat * J * int_{slice(x)} g(R^T (w, x)) dw,

where g is the Gaussian density of the projected law, R maps slice/offset
coordinates to the orthonormal eigenbasis b_1..b_n adapted to alpha, and
J = prod_i (1 + ||alpha b_i||^2)^{-1/2} = det R^T is the change-of-variables
Jacobian.  c_hat is exact in any dimension (``kicks.ball_mass``).  One kernel
evaluates the Gaussian over a block of slices and unit-ball nodes; the
density, its mass and the analytic first variation all use it.  Slice
centers and radii, the boundary Lagrange step, the m/2 boundary exponent
probe, the first variation, and the total-variation Lipschitz ratio all
live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma as math_gamma

import numpy as np
from scipy.special import roots_jacobi

from .errors import (
    BracketFailure,
    NotInterior,
    ProbeOffBoundary,
    QuadratureUnsupported,
    RejectionCap,
)
from .kicks import ball_mass

__all__ = [
    "PiDecomposition",
    "SliceGeometry",
    "ProjectedLaw",
    "QuadratureSpec",
    "build_pi_decomposition",
    "projected_law",
    "slice_geometry",
    "density_P",
    "density_batch",
    "density_mass",
    "support_grid",
    "mc_density_oracle",
    "lagrange_boundary_step",
    "boundary_exponent_probe",
    "first_variation",
    "tv_lipschitz_ratio",
]

S_THRESHOLD = 1e-10
# support-fitted mass rule: Gauss-Jacobi nodes in |y|^2 (nm = 2) or y (nm = 1),
# and trapezoid nodes in angle; an even angle count cancels the odd-in-|y| modes
MASS_NODES = 8
MASS_ANGLES = 16
# (points x nodes) entries of one slice-kernel block; bounds density_batch's memory
BLOCK_ENTRIES = 1 << 21


@dataclass(frozen=True)
class PiDecomposition:
    """Eigen-adapted bases and change of variables for pi = (alpha, E)."""

    m: int
    nm: int
    alpha: np.ndarray        # nm x m
    mu: np.ndarray           # eigenvalues of E + alpha^T alpha, descending
    s: int                   # count of mu > 1 (strict, threshold 1e-10)
    n_degenerate: int        # near-1 eigenvalues clamped to 1
    b_basis: np.ndarray      # n x n orthonormal columns b_1..b_n (std coords)
    theta_basis: np.ndarray  # n x n columns theta_1..theta_n (std coords)
    R: np.ndarray            # n x n, theta_i = sum_j R_ij b_j
    J: float                 # det R^T = prod_{i<=s} mu_i^{-1/2}
    alpha_b_norms: np.ndarray  # ||alpha b_i||, i = 1..m

    @property
    def n(self) -> int:
        return self.m + self.nm

    @property
    def B2(self) -> np.ndarray:
        """Orthonormal basis of the offset block (nm x nm, std coords)."""
        return self.b_basis[self.m:, self.m:]

    @property
    def theta_slice(self) -> np.ndarray:
        """theta_1..theta_m, the orthonormal basis of the fiber direction."""
        return self.theta_basis[:, :self.m]

    def support_quadform(self) -> np.ndarray:
        """Matrix M of the support ellipsoid {x : x^T M x <= eps^2}."""
        a = self.alpha
        G = np.linalg.solve(np.eye(self.m) + a.T @ a, a.T)
        return np.eye(self.nm) - a @ G


@dataclass(frozen=True)
class SliceGeometry:
    """Per-point geometry of the fiber slice through the truncation ball."""

    x: np.ndarray
    classification: str      # "outside" | "boundary" | "interior"
    center: np.ndarray       # full-space center u_hat (+) v_hat
    radius: float


@dataclass(frozen=True)
class ProjectedLaw:
    """Gaussian covariance, truncation radius and normalization constant."""

    K: np.ndarray
    eps: float
    c_hat: float


@dataclass(frozen=True)
class QuadratureSpec:
    radial: int = 64
    angular: int = 256
    polar: int = 32
    mc_nodes: int = 20_000      # Monte Carlo slice nodes for m > 3 (and TV points for nm > 2)
    grid_1d: int = 4096
    grid_2d: int = 192


DEFAULT_QUAD = QuadratureSpec()


def build_pi_decomposition(alpha) -> PiDecomposition:
    """Symmetric eigensolve of E + alpha^T alpha and basis assembly."""
    alpha = np.atleast_2d(np.asarray(alpha, dtype=float))
    nm, m = alpha.shape
    evals, evecs = np.linalg.eigh(np.eye(m) + alpha.T @ alpha)
    order = np.argsort(evals)[::-1]
    mu = evals[order]
    V = evecs[:, order]
    n_degenerate = int(np.sum((mu > 1.0) & (mu <= 1.0 + S_THRESHOLD)))
    mu = np.maximum(mu, 1.0)
    s = int(np.sum(mu > 1.0 + S_THRESHOLD))
    # deterministic eigenvector signs
    for i in range(m):
        k = int(np.argmax(np.abs(V[:, i])))
        if V[k, i] < 0:
            V[:, i] = -V[:, i]
    n = m + nm
    alpha_b = alpha @ V                      # nm x m
    norms = np.linalg.norm(alpha_b, axis=0)
    B = np.zeros((n, n))
    B[:m, :m] = V
    for i in range(s):
        B[m:, m + i] = alpha_b[:, i] / norms[i]
    # complete the offset block with an orthonormal basis of ker alpha^T
    if nm > s:
        img = B[m:, m:m + s]
        Umat = np.linalg.svd(img, full_matrices=True)[0] if s else np.eye(nm)
        B[m:, m + s:] = Umat[:, s:]
    theta = np.zeros((n, n))
    for i in range(m):
        theta[:m, i] = V[:, i] / np.sqrt(mu[i])
        theta[m:, i] = -alpha_b[:, i] / np.sqrt(mu[i])
    theta[:, m:] = B[:, m:]
    R = np.eye(n)
    for i in range(s):
        R[i, i] = mu[i] ** -0.5
        R[i, m + i] = -norms[i] / np.sqrt(mu[i])
    J = float(np.prod(mu[:s] ** -0.5)) if s else 1.0
    return PiDecomposition(m=m, nm=nm, alpha=alpha, mu=mu, s=s,
                           n_degenerate=n_degenerate, b_basis=B,
                           theta_basis=theta, R=R, J=J, alpha_b_norms=norms)


def projected_law(K, eps, c_hat=None) -> ProjectedLaw:
    """Normalize the truncated Gaussian: c_hat = 1 / mass of the eps-ball (exact)."""
    K = np.asarray(K, dtype=float)
    if c_hat is None:
        c_hat = 1.0 / ball_mass(np.linalg.eigvalsh(K), eps)
    return ProjectedLaw(K=K, eps=float(eps), c_hat=float(c_hat))


def slice_geometry(dec, eps, x) -> SliceGeometry:
    """Center and radius of the fiber slice; classification against the ball."""
    x = np.asarray(x, dtype=float)
    a = dec.alpha
    uhat = np.linalg.solve(np.eye(dec.m) + a.T @ a, a.T @ x)
    vhat = x - a @ uhat
    rad2 = eps ** 2 - uhat @ uhat - vhat @ vhat
    tol = 1e-8 * eps ** 2
    if rad2 < -tol:
        cls, r = "outside", float("nan")
    elif rad2 > tol:
        cls, r = "interior", float(np.sqrt(rad2))
    else:
        cls, r = "boundary", float(np.sqrt(max(rad2, 0.0)))
    return SliceGeometry(x=x, classification=cls,
                         center=np.concatenate([uhat, vhat]), radius=r)


def _slice_precision(dec, law):
    """Precision Q = R Kb^-1 R^T in (theta, offset) coordinates z, and the log normalizer."""
    Kb = dec.b_basis.T @ law.K @ dec.b_basis
    sign, logdet = np.linalg.slogdet(Kb)
    if sign <= 0:
        raise ValueError("projected covariance must be positive definite")
    lognorm = -0.5 * (dec.n * np.log(2 * np.pi) + logdet)
    return dec.R @ np.linalg.inv(Kb) @ dec.R.T, lognorm


def _slice_coords(dec, eps, xs):
    """Per row of xs: slice center z_c = (w_c, B2^T x) in (theta, offset) coords, squared radius."""
    a = dec.alpha
    U = xs @ np.linalg.solve(np.eye(dec.m) + a.T @ a, a.T).T   # (N, m)
    V = xs - U @ a.T                                          # (N, nm)
    rad2 = eps ** 2 - np.einsum("ij,ij->i", U, U) - np.einsum("ij,ij->i", V, V)
    w_c = np.concatenate([U, -U @ a.T], axis=1) @ dec.theta_slice
    return np.concatenate([w_c, xs @ dec.B2], axis=1), rad2


def _slice_gauss(Q, lognorm, zc, r, nodes):
    """Gaussian density at z = z_c + r (nu, 0), per slice (row) and node nu: (points, nodes).

    The exponent expands over the fiber block as
    z_c^T Q z_c + 2 r (Q z_c)_{:m} . nu + r^2 nu^T Q_mm nu,
    so the whole block is one (points x (m+2)) by ((m+2) x nodes) product.
    """
    m = nodes.shape[1]
    Qz = zc @ Q
    coef = np.column_stack([-r[:, None] * Qz[:, :m], -0.5 * r ** 2,
                            lognorm - 0.5 * np.einsum("ij,ij->i", Qz, zc)])
    basis = np.column_stack([nodes, np.einsum("ij,jk,ik->i", nodes, Q[:m, :m], nodes),
                             np.ones(len(nodes))])
    block = coef @ basis.T
    return np.exp(block, out=block)


def _unit_ball_rule(m, quad):
    """Nodes/weights integrating over the unit ball in R^m.

    For m = 0 the slice is a single point: one node at the origin, weight 1.
    Product Gauss rules for m <= 3, Monte Carlo nodes above.
    """
    if m == 0:
        return np.zeros((1, 0)), np.ones(1)
    if m == 1:
        t, w = np.polynomial.legendre.leggauss(quad.radial)
        return t[:, None], w
    if m == 2:
        t, w = np.polynomial.legendre.leggauss(quad.radial)
        u = 0.5 * (t + 1.0)
        wu = 0.5 * w
        phi = 2 * np.pi * np.arange(quad.angular) / quad.angular
        nodes = np.stack([np.outer(u, np.cos(phi)).ravel(),
                          np.outer(u, np.sin(phi)).ravel()], axis=1)
        weights = np.outer(wu * u, np.full(quad.angular, 2 * np.pi / quad.angular)).ravel()
        return nodes, weights
    if m == 3:
        t, w = np.polynomial.legendre.leggauss(quad.radial)
        u = 0.5 * (t + 1.0)
        wu = 0.5 * w
        ct, wc = np.polynomial.legendre.leggauss(quad.polar)
        st = np.sqrt(1 - ct ** 2)
        phi = 2 * np.pi * np.arange(quad.angular // 4 or 1) / (quad.angular // 4 or 1)
        wphi = 2 * np.pi / len(phi)
        dirs = np.stack([np.outer(st, np.cos(phi)).ravel(),
                         np.outer(st, np.sin(phi)).ravel(),
                         np.repeat(ct, len(phi))], axis=1)
        wdir = np.repeat(wc, len(phi)) * wphi
        nodes = (u[:, None, None] * dirs[None, :, :]).reshape(-1, 3)
        weights = (wu[:, None] * u[:, None] ** 2 * wdir[None, :]).ravel()
        return nodes, weights
    # m > 3: quad.mc_nodes uniform points of the ball (fixed seed), equal volume weights
    rng = np.random.default_rng(17)
    raw = rng.standard_normal((quad.mc_nodes, m))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    nodes = raw * (rng.uniform(0, 1, quad.mc_nodes) ** (1.0 / m))[:, None]
    vol = np.pi ** (m / 2) / math_gamma(m / 2 + 1)
    return nodes, np.full(quad.mc_nodes, vol / quad.mc_nodes)


def density_batch(dec, law, xs, quad=DEFAULT_QUAD) -> np.ndarray:
    """Vectorized pushforward density at rows of xs.

    Slices are integrated in blocks of at most BLOCK_ENTRIES (points x nodes)
    entries, so memory does not grow with the number of points.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    zc, rad2 = _slice_coords(dec, law.eps, xs)
    out = np.zeros(xs.shape[0])
    inside = np.flatnonzero(rad2 > 0)
    if not len(inside):
        return out
    nodes, weights = _unit_ball_rule(dec.m, quad)
    Q, lognorm = _slice_precision(dec, law)
    step = max(1, BLOCK_ENTRIES // len(weights))
    for lo in range(0, len(inside), step):
        idx = inside[lo:lo + step]
        r = np.sqrt(rad2[idx])
        G = _slice_gauss(Q, lognorm, zc[idx], r, nodes)
        out[idx] = law.c_hat * dec.J * (r ** dec.m) * (G @ weights)
    return out


def density_P(dec, law, x, quad=DEFAULT_QUAD) -> float:
    """Pushforward density at one point (zero outside the support)."""
    return float(density_batch(dec, law, np.atleast_2d(x), quad)[0])


def density_mass(dec, law, quad=DEFAULT_QUAD) -> float:
    """Integral of P over its support {x : x^T M x <= eps^2}.

    The map x = T y, T = eps M^{-1/2}, takes the unit ball onto the support.
    P vanishes like (1 - |y|^2)^{m/2} at the boundary (a jump for m = 0), so
    that factor is the Gauss-Jacobi weight: in s = |y|^2 with the trapezoid
    rule in angle for nm = 2, in y for nm = 1.  quad sets the slice rule.
    """
    lam, Q = np.linalg.eigh(dec.support_quadform())
    T = law.eps * Q / np.sqrt(lam)
    a = dec.m / 2.0
    if dec.nm == 1:
        y, w = roots_jacobi(MASS_NODES, a, a)
        ys = y[:, None]
        weights = w / (1.0 - y ** 2) ** a
    elif dec.nm == 2:
        t, w = roots_jacobi(MASS_NODES, a, 0.0)
        s = 0.5 * (1.0 + t)
        phi = 2 * np.pi * np.arange(MASS_ANGLES) / MASS_ANGLES
        rho = np.sqrt(s)
        ys = np.stack([np.outer(rho, np.cos(phi)).ravel(),
                       np.outer(rho, np.sin(phi)).ravel()], axis=1)
        # dy = ds dphi / 2 and ds = dt / 2; (1 - t)^a is the Jacobi weight
        weights = np.outer(0.25 * w / (1.0 - t) ** a,
                           np.full(MASS_ANGLES, 2 * np.pi / MASS_ANGLES)).ravel()
    else:
        raise QuadratureUnsupported(f"mass quadrature implemented for nm <= 2, got nm={dec.nm}")
    P = density_batch(dec, law, ys @ T.T, quad)
    return float(abs(np.linalg.det(T)) * (P @ weights))


def mc_density_oracle(dec, law, points, n_samples, seed=0):
    """Independent density estimates by conditional (Rao-Blackwellised) Monte Carlo.

    Draws z_i = (u_i, v_i) ~ N(0, K) without truncation, once for all points.
    The density of x = alpha u + v is E[g(v | u) at v = x - alpha u, times
    1{|u|^2 + |v|^2 <= eps^2}] divided by the ball mass p = P(|z| <= eps);
    both are sample means over the same draws, f_bar and p_hat.  The standard
    error is the delta-method error of the ratio,
    sqrt(mean((f_i - est b_i)^2) / N) / p_hat with b_i the ball indicator, so
    it includes the error of p_hat; for m = 0 that term is all of it.  Uses
    neither R, J nor the slice quadrature.

    ``points`` has shape (k, nm).  Returns one (estimate, standard error) per
    point; each equals, bit for bit, the result for that point alone.
    Requires n_samples >= 10^4; raises RejectionCap when no draw falls in the
    ball.
    """
    if n_samples < 10_000:
        raise ValueError("n_samples must be at least 10^4")
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != dec.nm:
        raise ValueError(f"points must have shape (k, {dec.nm})")
    m = dec.m
    K = law.K
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_samples, dec.n)) @ np.linalg.cholesky(K).T
    b = np.einsum("ij,ij->i", z, z) <= law.eps ** 2
    p_hat = float(np.mean(b))
    if p_hat == 0.0:
        raise RejectionCap(f"none of {n_samples} draws fell in the eps-ball; raise n_samples")
    u = z[:, :m]
    # v | u ~ N(C u, S): C = K_vu K_uu^-1, S = K_vv - C K_uv
    C = np.linalg.solve(K[:m, :m], K[:m, m:]).T
    S = K[m:, m:] - C @ K[:m, m:]
    ua, uc, uu = u @ dec.alpha.T, u @ C.T, np.einsum("ij,ij->i", u, u)
    del z, u
    _, logdet = np.linalg.slogdet(2 * np.pi * S)
    S_inv = np.linalg.inv(S)
    return [_mc_point(x, ua, uc, uu, b, S_inv, logdet, law.eps ** 2, p_hat) for x in points]


def _mc_point(x, ua, uc, uu, b, S_inv, logdet, eps2, p_hat):
    """(estimate, standard error) of the oracle at one point; its temporaries die here."""
    v = x[None, :] - ua
    in_ball = uu + np.einsum("ij,ij->i", v, v) <= eps2
    v -= uc  # the residual v - C u, in place
    qf = np.einsum("ij,ij->i", v @ S_inv, v)
    del v
    f = np.where(in_ball, np.exp(-0.5 * (qf + logdet)), 0.0)
    est = float(np.mean(f)) / p_hat
    se = float(np.sqrt(np.mean((f - est * b) ** 2) / len(f))) / p_hat
    return est, se


def _boundary_decompose(dec, x):
    """x = x0 + sum_j x_j alpha b_j with x0 in ker alpha^T."""
    coeffs = np.zeros(dec.s)
    x0 = np.asarray(x, dtype=float).copy()
    for j in range(dec.s):
        direction = dec.b_basis[dec.m:, dec.m + j]
        cj = float(direction @ x) / dec.alpha_b_norms[j]
        coeffs[j] = cj
        x0 -= cj * dec.alpha_b_norms[j] * direction
    return x0, coeffs


def lagrange_boundary_step(dec, x, gamma0):
    """Inward step of norm gamma0 maximizing the slice radius (unique optimum).

    Solves the multiplier equation
        ||x0||^2/(1+lam)^2 + sum_j x_j^2 ||alpha b_j||^2 / (1+lam mu_j)^2
            = gamma0^2
    by monotone bisection with geometric bracket expansion, then assembles
    h_hat = -x0/(1+lam) - sum_j x_j/(1+lam mu_j) alpha b_j.
    """
    x = np.asarray(x, dtype=float)
    x0, coeffs = _boundary_decompose(dec, x)
    nx0 = float(x0 @ x0)
    terms = coeffs ** 2 * dec.alpha_b_norms[:dec.s] ** 2
    mus = dec.mu[:dec.s]
    if gamma0 <= 0 or gamma0 ** 2 >= nx0 + terms.sum():
        raise ValueError("gamma0 must satisfy 0 < gamma0 < ||x||")

    def radius2(lam):
        return nx0 / (1 + lam) ** 2 + float(np.sum(terms / (1 + lam * mus) ** 2))

    target = gamma0 ** 2
    lo, hi = 0.0, 1.0
    doublings = 0
    while radius2(hi) > target:
        hi *= 2.0
        doublings += 1
        if doublings > 60:
            raise BracketFailure("no sign change within 60 doublings")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if radius2(mid) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16 * (1.0 + hi) and abs(radius2(hi) - target) < 1e-12:
            break
    lam = 0.5 * (lo + hi)
    h = -x0 / (1 + lam)
    for j in range(dec.s):
        direction = dec.b_basis[dec.m:, dec.m + j] * dec.alpha_b_norms[j]
        h = h - coeffs[j] / (1 + lam * mus[j]) * direction
    return h, float(lam)


def boundary_exponent_probe(dec, law, x_boundary, h_norms=None, quad=DEFAULT_QUAD) -> dict:
    """Fit log P(x + h_hat) = s log ||h|| + c + b ||h|| along the optimal inward steps.

    The expected slope s is m/2 (fiber dimension over two); the b ||h|| term
    takes up the next order, which biases a two-term fit.  Raises
    ProbeOffBoundary when x_boundary is not on the support boundary.
    """
    x = np.asarray(x_boundary, dtype=float)
    M = dec.support_quadform()
    val = float(x @ M @ x)
    if abs(val - law.eps ** 2) > 1e-8 * law.eps ** 2:
        raise ProbeOffBoundary(
            f"quadratic form {val:.6e} vs eps^2 {law.eps**2:.6e}")
    if h_norms is None:
        h_norms = law.eps * np.geomspace(1e-4, 1e-1, 12)
    h_norms = np.asarray(h_norms, dtype=float)
    Ps = np.empty(len(h_norms))
    for i, g0 in enumerate(h_norms):
        h, _ = lagrange_boundary_step(dec, x, g0)
        Ps[i] = density_P(dec, law, x + h, quad)
    keep = Ps > 0
    if keep.sum() < 4:   # three coefficients need one point more to be a fit
        raise ProbeOffBoundary("too few positive density values along the probe")
    logs = np.log(h_norms[keep])
    logP = np.log(Ps[keep])
    X = np.column_stack([logs, np.ones_like(logs), h_norms[keep]])
    coef = np.linalg.lstsq(X, logP, rcond=None)[0]
    resid = logP - X @ coef
    ss_tot = float(np.sum((logP - logP.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return {"slope": float(coef[0]), "intercept": float(coef[1]), "r2": r2,
            "h_norms": h_norms.tolist(), "P_values": Ps.tolist()}


def _variation_analytic(dec, law, x, h, quad):
    m = dec.m
    a = dec.alpha
    zc, rad2 = _slice_coords(dec, law.eps, x[None, :])
    radius = np.sqrt(rad2)
    r = float(radius[0])
    Q, lognorm = _slice_precision(dec, law)
    scale = law.c_hat * dec.J
    G1 = np.linalg.solve(np.eye(m) + a.T @ a, a.T)
    uh = G1 @ h
    dw_theta = dec.theta_slice.T @ np.concatenate([uh, -a @ uh])
    rho = float(np.linalg.norm(dw_theta))
    Mx_h = float(x @ dec.support_quadform() @ h)

    # boundary term over the unit sphere of the slice
    if m == 1:
        omegas = np.array([[1.0], [-1.0]])
        sphere_w = np.array([1.0, 1.0])
    elif m == 2:
        nang = quad.angular
        phi = 2 * np.pi * np.arange(nang) / nang
        omegas = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        sphere_w = np.full(nang, 2 * np.pi / nang)
    else:
        raise QuadratureUnsupported(
            f"analytic first variation implemented for m in {{1, 2}}, got m={m}")
    gv = scale * _slice_gauss(Q, lognorm, zc, radius, omegas)[0]
    if rho > 0:
        cos_psi = omegas @ (dw_theta / rho)
    else:
        cos_psi = np.zeros(len(omegas))
    psi_term = r ** (m - 1) * (rho * cos_psi - Mx_h / r)
    term1 = float(np.sum(gv * psi_term * sphere_w))

    # interior term: gradient of Gamma against h over the slice disk; with
    # z = z_c + r (nu, 0), d log g / dz . (0, B2^T h) = -z . (Q[:, m:] B2^T h)
    nodes, weights = _unit_ball_rule(m, quad)
    gvals = scale * _slice_gauss(Q, lognorm, zc, radius, nodes)[0]
    qh = Q[:, m:] @ (dec.B2.T @ h)
    dgamma_h = -gvals * (float(zc[0] @ qh) + r * (nodes @ qh[:m]))
    term2 = float(r ** m * (dgamma_h @ weights))
    return term1 + term2


def first_variation(dec, law, x, h, mode="numeric", quad=DEFAULT_QUAD) -> float:
    """Directional first variation of P at an interior point.

    numeric: symmetric differences with Richardson extrapolation over
    lambda in {1e-3, 5e-4} * eps.  analytic: boundary-sphere plus interior
    integrals of the explicit variation formula (m in {1, 2}).
    """
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    geo = slice_geometry(dec, law.eps, x)
    if geo.classification != "interior":
        raise NotInterior(f"x classified as {geo.classification}")
    if mode == "analytic":
        return _variation_analytic(dec, law, x, h, quad)
    if mode != "numeric":
        raise ValueError(f"unknown mode {mode!r}")
    lam1 = 1e-3 * law.eps
    lam2 = 0.5 * lam1

    def central(lam):
        pts = np.stack([x + lam * h, x - lam * h])
        p = density_batch(dec, law, pts, quad)
        return (p[0] - p[1]) / (2 * lam)

    d1, d2 = central(lam1), central(lam2)
    return float((4.0 * d2 - d1) / 3.0)


def support_grid(dec, eps, g, pad=0.0):
    """Integration points over the support's bounding box, widened by |pad| per axis.

    For nm = 1, 2 the midpoints of a g^nm grid; otherwise g uniform points
    (fixed seed).  Returns (points, volume per point).
    """
    half = eps * np.sqrt(np.diag(np.linalg.inv(dec.support_quadform()))) + np.abs(pad)
    if dec.nm not in (1, 2):
        rng = np.random.default_rng(23)
        return rng.uniform(-half, half, size=(g, dec.nm)), float(np.prod(2 * half)) / g
    axes = [np.linspace(-h, h, g, endpoint=False) + h / g for h in half]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([mm.ravel() for mm in mesh], axis=1), float(np.prod(2 * half / g))


def tv_lipschitz_ratio(dec, law, v1, v2, quad=DEFAULT_QUAD) -> float:
    """int |P(x - v1) - P(x - v2)| dx / ||v1 - v2|| over a covering box.

    After the substitution y = x - v1 the integral depends only on
    delta = v1 - v2, which makes the ratio exactly shift-invariant.  The
    box holds quad.grid_1d, quad.grid_2d^2 or quad.mc_nodes points for
    nm = 1, 2 or more.
    """
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    delta = v1 - v2
    sep = float(np.linalg.norm(delta))
    if sep == 0.0:
        return 0.0
    g = {1: quad.grid_1d, 2: quad.grid_2d}.get(dec.nm, quad.mc_nodes)
    ys, vol = support_grid(dec, law.eps, g, delta)
    p0 = density_batch(dec, law, ys, quad)
    p1 = density_batch(dec, law, ys + delta, quad)
    return float(np.sum(np.abs(p0 - p1)) * vol / sep)
