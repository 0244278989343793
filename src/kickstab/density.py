"""Pushforward density of the projected truncated Gaussian.

The projection pi = (alpha, E) maps a kick (u, v) in R^m (+) R^nm to
x = alpha u + v.  The substitution (u, v) -> (u, x) has Jacobian 1, so the
density of x is the slice integral

    P(x) = c_hat * int g(u, x - alpha u) du  over  |u|^2 + |x - alpha u|^2 <= eps^2,

where g is the Gaussian density of the projected law (a ``kicks.KickLaw``)
and c_hat = 1 / ``kicks.ball_mass``.  With H = I + alpha^T alpha = V diag(mu)
V^T the slice is the ellipsoid (u - u_hat)^T H (u - u_hat) <= r^2, centered
at u_hat = G x, G = H^{-1} alpha^T, with r^2 = eps^2 - x^T M x and
M = I - alpha G.  So u = u_hat + r C nu over the fixed unit ball |nu| <= 1,
with C = V diag(mu^{-1/2}) and du = J r^m dnu, J = |det C|:

    P(x) = c_hat * J * r^m * int_{|nu| <= 1} g(z_c + r W nu) dnu,

z_c = (u_hat, x - alpha u_hat) and W = [C; -alpha C], whose columns are
orthonormal and span the fiber ker pi.  The ball does not move with x, so
the first variation is the derivative under the integral sign: r^m and the
integrand are smooth in x inside the support.  One kernel evaluates g over a
block of slices and unit-ball nodes; the density, its mass and the analytic
first variation all use it.  Slice centers and radii, the boundary Lagrange
step, the m/2 boundary exponent probe, the first variation, and the
total-variation Lipschitz ratio all live here.
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
from .kicks import KickLaw

__all__ = [
    "PiDecomposition",
    "SliceGeometry",
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
    """Slice center map and fiber map of pi = (alpha, E), in kick coordinates."""

    m: int
    nm: int
    alpha: np.ndarray        # nm x m
    mu: np.ndarray           # eigenvalues of E + alpha^T alpha, descending
    s: int                   # count of mu > 1 (strict, threshold 1e-10)
    J: float                 # |det C| = prod_{i<=s} mu_i^{-1/2}
    G: np.ndarray            # m x nm, (E + alpha^T alpha)^{-1} alpha^T: u_hat = G x
    C: np.ndarray            # m x m, V diag(mu^{-1/2}): u = u_hat + r C nu

    @property
    def n(self) -> int:
        return self.m + self.nm

    @property
    def W(self) -> np.ndarray:
        """[C; -alpha C] (n x m): orthonormal columns spanning the fiber ker pi."""
        return np.concatenate([self.C, -self.alpha @ self.C])

    def support_quadform(self) -> np.ndarray:
        """Matrix M of the support ellipsoid {x : x^T M x <= eps^2}."""
        return np.eye(self.nm) - self.alpha @ self.G


@dataclass(frozen=True)
class SliceGeometry:
    """Per-point geometry of the fiber slice through the truncation ball."""

    x: np.ndarray
    classification: str      # "outside" | "boundary" | "interior"
    center: np.ndarray       # full-space center u_hat (+) v_hat
    radius: float


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
    """Symmetric eigensolve of E + alpha^T alpha; the center map G and fiber map C."""
    alpha = np.atleast_2d(np.asarray(alpha, dtype=float))
    nm, m = alpha.shape
    H = np.eye(m) + alpha.T @ alpha
    evals, evecs = np.linalg.eigh(H)
    order = np.argsort(evals)[::-1]
    mu = np.maximum(evals[order], 1.0)
    V = evecs[:, order]
    s = int(np.sum(mu > 1.0 + S_THRESHOLD))
    # deterministic eigenvector signs
    for i in range(m):
        k = int(np.argmax(np.abs(V[:, i])))
        if V[k, i] < 0:
            V[:, i] = -V[:, i]
    return PiDecomposition(m=m, nm=nm, alpha=alpha, mu=mu, s=s,
                           J=float(np.prod(mu[:s] ** -0.5)),
                           G=np.linalg.solve(H, alpha.T), C=V / np.sqrt(mu))


def projected_law(K, eps) -> KickLaw:
    """N(0, K), K as given, on the eps-ball; c_hat is read here, so a K that
    ``ball_mass`` cannot normalize raises DegenerateCovariance here."""
    law = KickLaw(K=np.asarray(K, dtype=float), eps_hat=float(eps))
    law.c_hat
    return law


def slice_geometry(dec, eps, x) -> SliceGeometry:
    """Center and radius of the fiber slice; classification against the ball."""
    x = np.asarray(x, dtype=float)
    zc, rad2 = _slice_coords(dec, eps, x[None, :])
    rad2 = float(rad2[0])
    tol = 1e-8 * eps ** 2
    if rad2 < -tol:
        cls, r = "outside", float("nan")
    elif rad2 > tol:
        cls, r = "interior", float(np.sqrt(rad2))
    else:
        cls, r = "boundary", float(np.sqrt(max(rad2, 0.0)))
    return SliceGeometry(x=x, classification=cls, center=zc[0], radius=r)


def _slice_precision(law):
    """Precision K^-1 of the projected Gaussian, and its log normalizer."""
    sign, logdet = np.linalg.slogdet(law.K)
    if sign <= 0:
        raise ValueError("projected covariance must be positive definite")
    lognorm = -0.5 * (len(law.K) * np.log(2 * np.pi) + logdet)
    return np.linalg.inv(law.K), lognorm


def _slice_coords(dec, eps, xs):
    """Per row of xs: slice center z_c = (u_hat, x - alpha u_hat) and squared radius."""
    U = xs @ dec.G.T                                           # (N, m)
    zc = np.concatenate([U, xs - U @ dec.alpha.T], axis=1)     # (N, n)
    return zc, eps ** 2 - np.einsum("ij,ij->i", zc, zc)


def _slice_gauss(Kinv, lognorm, W, zc, r, nodes):
    """Gaussian density at z = z_c + r W nu, per slice (row) and node nu: (points, nodes).

    The exponent expands as
    z_c^T K^-1 z_c + 2 r (W^T K^-1 z_c) . nu + r^2 nu^T (W^T K^-1 W) nu,
    so the whole block is one (points x (m+2)) by ((m+2) x nodes) product.
    """
    Kz = zc @ Kinv
    coef = np.column_stack([-r[:, None] * (Kz @ W), -0.5 * r ** 2,
                            lognorm - 0.5 * np.einsum("ij,ij->i", Kz, zc)])
    basis = np.column_stack([nodes, np.einsum("ij,jk,ik->i", nodes, W.T @ Kinv @ W, nodes),
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
    zc, rad2 = _slice_coords(dec, law.eps_hat, xs)
    out = np.zeros(xs.shape[0])
    inside = np.flatnonzero(rad2 > 0)
    if not len(inside):
        return out
    nodes, weights = _unit_ball_rule(dec.m, quad)
    Kinv, lognorm = _slice_precision(law)
    W = dec.W
    step = max(1, BLOCK_ENTRIES // len(weights))
    for lo in range(0, len(inside), step):
        idx = inside[lo:lo + step]
        r = np.sqrt(rad2[idx])
        g = _slice_gauss(Kinv, lognorm, W, zc[idx], r, nodes)
        out[idx] = law.c_hat * dec.J * (r ** dec.m) * (g @ weights)
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
    T = law.eps_hat * Q / np.sqrt(lam)
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
    neither C, J nor the slice quadrature.

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
    b = np.einsum("ij,ij->i", z, z) <= law.eps_hat ** 2
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
    return [_mc_point(x, ua, uc, uu, b, S_inv, logdet, law.eps_hat ** 2, p_hat) for x in points]


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


def lagrange_boundary_step(dec, x, gamma0):
    """Inward step of norm gamma0 maximizing the slice radius (unique optimum).

    The step minimizes (x + h)^T M (x + h) on ||h|| = gamma0, so
    M (x + h) + lam h = 0.  In the eigenbasis Q of M, with y = Q^T x and w
    the eigenvalues of M^{-1} = E + alpha alpha^T (1 on ker alpha^T, mu_j on
    alpha V_j; taken from M^{-1}, whose form has no cancellation), the step
    is h_hat = -Q (y / (1 + lam w)), and the multiplier equation
        sum_i y_i^2 / (1 + lam w_i)^2 = gamma0^2
    is solved by monotone bisection with geometric bracket expansion.
    """
    x = np.asarray(x, dtype=float)
    w, Q = np.linalg.eigh(np.eye(dec.nm) + dec.alpha @ dec.alpha.T)
    y = Q.T @ x
    if gamma0 <= 0 or gamma0 ** 2 >= x @ x:
        raise ValueError("gamma0 must satisfy 0 < gamma0 < ||x||")

    def radius2(lam):
        return float(np.sum(y ** 2 / (1 + lam * w) ** 2))

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
    return -Q @ (y / (1 + lam * w)), float(lam)


def boundary_exponent_probe(dec, law, x_boundary, h_norms=None, quad=DEFAULT_QUAD) -> dict:
    """Fit log P(x + h_hat) = s log ||h|| + c + b ||h|| along the optimal inward steps.

    The expected slope s is m/2 (fiber dimension over two); the b ||h|| term
    takes up the next order, which biases a two-term fit.  Raises
    ProbeOffBoundary when x_boundary is not on the support boundary.
    """
    x = np.asarray(x_boundary, dtype=float)
    M = dec.support_quadform()
    val = float(x @ M @ x)
    if abs(val - law.eps_hat ** 2) > 1e-8 * law.eps_hat ** 2:
        raise ProbeOffBoundary(
            f"quadratic form {val:.6e} vs eps^2 {law.eps_hat**2:.6e}")
    if h_norms is None:
        h_norms = law.eps_hat * np.geomspace(1e-4, 1e-1, 12)
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


def _variation_analytic(dec, law, xs, h, quad):
    """d_h P at interior rows of xs, differentiated under the fixed unit ball.

    z_c is linear in x, so its derivative dz is the center of h itself, and
    r^2 = eps^2 - |z_c|^2 gives dr = -(z_c . dz) / r.  With z = z_c + r W nu,
        d_h [r^m int g(z) dnu] = r^m int g(z) (m dr / r - (K^-1 z) . (dz + dr W nu)) dnu,
    whose bracket is a quadratic in nu: one sum on the slice rule, for every m.
    """
    zc, rad2 = _slice_coords(dec, law.eps_hat, xs)
    dz = _slice_coords(dec, law.eps_hat, h[None, :])[0][0]
    r = np.sqrt(rad2)
    dr = -(zc @ dz) / r
    Kinv, lognorm = _slice_precision(law)
    W = dec.W
    KW = Kinv @ W
    nodes, weights = _unit_ball_rule(dec.m, quad)
    lin = dr[:, None] * (zc @ KW) + r[:, None] * (dz @ KW)
    q = np.einsum("ij,jk,ik->i", nodes, W.T @ KW, nodes)
    dlog = ((dec.m * dr / r - zc @ (Kinv @ dz))[:, None] - lin @ nodes.T
            - (r * dr)[:, None] * q)
    g = _slice_gauss(Kinv, lognorm, W, zc, r, nodes)
    return law.c_hat * dec.J * r ** dec.m * ((g * dlog) @ weights)


def first_variation(dec, law, x, h, mode="numeric", quad=DEFAULT_QUAD) -> float:
    """Directional first variation of P at an interior point.

    numeric: symmetric differences with Richardson extrapolation over
    lambda in {1e-3, 5e-4} * eps.  analytic: the derivative under the fixed
    unit ball of the slice integral, on the slice rule (every m).
    """
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    geo = slice_geometry(dec, law.eps_hat, x)
    if geo.classification != "interior":
        raise NotInterior(f"x classified as {geo.classification}")
    if mode == "analytic":
        return float(_variation_analytic(dec, law, x[None, :], h, quad)[0])
    if mode != "numeric":
        raise ValueError(f"unknown mode {mode!r}")
    lam1 = 1e-3 * law.eps_hat
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
    ys, vol = support_grid(dec, law.eps_hat, g, delta)
    p0 = density_batch(dec, law, ys, quad)
    p1 = density_batch(dec, law, ys + delta, quad)
    return float(np.sum(np.abs(p0 - p1)) * vol / sep)
