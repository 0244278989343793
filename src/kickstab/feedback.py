"""Feedback projection onto X_sigma.

It is built from a Gram system: given control directions g_1..g_m
vanishing on the observable coordinates, the projection

    Pi phi = phi + sum_j c_j g_j,   with  M c = -D^T phi,  M_kj = <d_k, g_j>,

is the identity on X_sigma, leaves observable coordinates untouched, and
lands in X_sigma.  D holds the orthonormal adjoint unstable basis d_1..d_m
(columns of ``Dichotomy.D``).  Pi depends on span D only: D -> D R with R
invertible sends G -> G R (default directions) and M -> R^T M R, which
leaves G M^{-1} D^T unchanged.  Applied to data given on the observable
coordinates and lifted by zero, Pi is the paper's extension operator: it
keeps the data and lands in X_sigma.
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


def build_pi(dich, geo) -> FeedbackProjector:
    """Assemble the feedback projection matrix Pi = I - G M^{-1} D^T."""
    n = dich.D.shape[0]
    if geo.M.size:
        if geo.cond_M >= COND_CUTOFF:
            raise SingularGram(f"Gram matrix condition {geo.cond_M:.2e} exceeds cutoff")
        Pi = np.eye(n) - geo.G_mat @ np.linalg.solve(geo.M, dich.D.T)
    else:
        Pi = np.eye(n)
    norm_Pi = float(np.linalg.svd(Pi, compute_uv=False)[0])
    return FeedbackProjector(dichotomy=dich, geometry=geo, Pi_mat=Pi, norm_Pi=norm_Pi)
