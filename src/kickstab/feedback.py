"""Extension operator and feedback projection onto X_sigma.

Both are built from the same Gram system: given control directions g_1..g_m
vanishing on the observable coordinates, the projection

    Pi phi = phi + sum_j c_j g_j,   with  M c = -D^T phi,  M_kj = <d_k, g_j>,

is the identity on X_sigma, leaves observable coordinates untouched, and
lands in X_sigma.  D holds the orthonormal adjoint unstable basis d_1..d_m
(columns of ``Dichotomy.D``).  Pi depends on span D only: D -> D R with R
invertible sends G -> G R (default directions) and M -> R^T M R, which
leaves G M^{-1} D^T unchanged.  The extension operator lifts data given on
the observable coordinates by zero (minimal-norm lift) and applies the same
correction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularGram

__all__ = [
    "ControlGeometry",
    "FeedbackProjector",
    "make_control_geometry",
    "build_pi",
    "apply_pi",
    "build_extension",
]

COND_CUTOFF = 1e12


@dataclass(frozen=True)
class ControlGeometry:
    """Control directions against the adjoint unstable basis."""

    obs_idx: tuple
    G_mat: np.ndarray  # n x m, columns vanish on obs_idx
    M: np.ndarray      # m x m Gram matrix D^T G
    cond_M: float


@dataclass(frozen=True)
class FeedbackProjector:
    dichotomy: object
    geometry: ControlGeometry
    Pi_mat: np.ndarray
    norm_Pi: float

    @property
    def n(self) -> int:
        return self.Pi_mat.shape[0]


def _gram(D, G):
    M = D.T @ G
    cond = float(np.linalg.cond(M)) if M.size else 1.0
    return M, cond


def make_control_geometry(dich, obs_idx, seed=0, max_retries=8) -> ControlGeometry:
    """Default control directions: the columns of D, zeroed on obs_idx.

    Falls back to random directions (seeded) when the Gram matrix is too
    ill-conditioned; raises SingularGram when no retry succeeds.
    """
    n, m = dich.D.shape
    obs_idx = tuple(sorted(int(i) for i in obs_idx))
    mask = np.ones(n, dtype=bool)
    mask[list(obs_idx)] = False
    G = dich.D * mask[:, None]
    M, cond = _gram(dich.D, G)
    if m == 0 or cond < COND_CUTOFF:
        return ControlGeometry(obs_idx=obs_idx, G_mat=G, M=M, cond_M=cond)
    rng = np.random.default_rng(seed)
    for _ in range(max_retries):
        G = rng.standard_normal((n, m)) * mask[:, None]
        M, cond = _gram(dich.D, G)
        if cond < COND_CUTOFF:
            return ControlGeometry(obs_idx=obs_idx, G_mat=G, M=M, cond_M=cond)
    raise SingularGram(
        f"no invertible Gram system after {max_retries} retries (cond={cond:.2e})")


def _solve_correction(geo, rhs):
    """Coefficients c with M c = -rhs; raises SingularGram when M is unusable."""
    if geo.M.size == 0:
        return np.zeros(0)
    if not np.all(np.isfinite(geo.M)) or geo.cond_M >= COND_CUTOFF:
        raise SingularGram(f"Gram matrix condition {geo.cond_M:.2e} exceeds cutoff")
    return np.linalg.solve(geo.M, -rhs)


def build_pi(dich, geo) -> FeedbackProjector:
    """Assemble the feedback projection matrix Pi = I - G M^{-1} D^T."""
    n = dich.P_sigma.shape[0]
    if geo.M.size:
        if geo.cond_M >= COND_CUTOFF:
            raise SingularGram(f"Gram matrix condition {geo.cond_M:.2e} exceeds cutoff")
        Pi = np.eye(n) - geo.G_mat @ np.linalg.solve(geo.M, dich.D.T)
    else:
        Pi = np.eye(n)
    norm_Pi = float(np.linalg.svd(Pi, compute_uv=False)[0])
    return FeedbackProjector(dichotomy=dich, geometry=geo, Pi_mat=Pi, norm_Pi=norm_Pi)


def apply_pi(pi, phi) -> np.ndarray:
    """Project a fluctuation into X_sigma without touching observable coords.

    Uses the Gram-solve path (not the assembled matrix) so that applying Pi
    to a zero-lifted observable vector reproduces build_extension exactly.
    """
    phi = np.asarray(phi, dtype=float)
    dich, geo = pi.dichotomy, pi.geometry
    c = _solve_correction(geo, dich.D.T @ phi)
    return phi + (geo.G_mat @ c if c.size else 0.0)


def lift_observable(n, obs_idx, v0_obs) -> np.ndarray:
    """Minimal-norm lift: v0 on the observable coordinates, zero elsewhere."""
    v0_obs = np.asarray(v0_obs, dtype=float)
    if v0_obs.shape != (len(obs_idx),):
        raise ValueError("v0_obs must match the number of observable coordinates")
    out = np.zeros(n)
    out[list(obs_idx)] = v0_obs
    return out

def build_extension(dich, geo, v0_obs) -> np.ndarray:
    """Extend observable data into X_sigma: E v0 = L v0 + sum_j c_j g_j.

    Identical Gram solve as the projection, applied to the zero lift, so
    Pi(L v0) == E v0 exactly.
    """
    n = dich.P_sigma.shape[0]
    L = lift_observable(n, geo.obs_idx, v0_obs)
    c = _solve_correction(geo, dich.D.T @ L)
    return L + (geo.G_mat @ c if c.size else 0.0)
