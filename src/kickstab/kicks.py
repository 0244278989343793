"""Truncated-Gaussian kick law: sampling, exact and Monte Carlo ball mass.

The kick distribution is N(0, K) conditioned on the ball ||phi|| <= eps_hat,
sampled by plain rejection in K's eigen coordinates, K = V diag(lambda) V^T
(Devroye, Non-Uniform Random Variate Generation, 1986, II.3).  Proposal i is
row i of the stream's ``standard_normal((., n))`` draws, g, scaled to
t = g * sqrt(lambda); it is accepted iff sum t^2 <= eps_hat^2, which is
||V t||^2.  The kicks are the accepted rows in stream order, rotated by V.
For diagonal K, V is the identity in K's own index order (no eigensolve, no
permutation).  Which rows are accepted does not depend on how the rows are
grouped into draws, so a call's kicks are a prefix of a longer call's kicks
on a fresh, identically seeded stream: bit for bit for diagonal K, and to
roundoff for dense K, whose rotation is one matrix product over a call's
kicks.  The generator's state after a call is not part of this contract.

The normalization constant 1/c_hat = G(B_eps) is the distribution function
of the Gaussian quadratic form sum lambda_i z_i^2 at eps_hat^2, computed
exactly in any dimension by Ruben's chi-square series (``ball_mass``).  The
Monte Carlo estimate with standard error (``estimate_ball_mass_mc``, read
lazily as ``KickLaw.norm_const_est``) is an independent check of it; no
pipeline stage reads it, but the benchmark's layer tracer
(``perfbench/layertrace.py``) records it as the acceptance rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import chdtr

from .errors import DegenerateCovariance, RejectionCap

__all__ = [
    "KickLaw",
    "make_kick_law",
    "sample_kick",
    "sample_kicks",
    "ball_mass",
    "estimate_ball_mass_mc",
]

REJECTION_WINDOW = 1_000_000
REJECTION_RATE_FLOOR = 1e-4
_ROUND_ENTRIES = 1 << 20   # cap of the proposal entries (rows x n) drawn in one round
_RUBEN_TOL = 1e-15         # bound on the omitted tail of Ruben's series
_RUBEN_MAX_TERMS = 100_000


def _key_int(k) -> int:
    """Stable nonnegative integer for SeedSequence spawn keys."""
    if isinstance(k, (int, np.integer)):
        return int(k) & 0x7FFFFFFF
    import hashlib

    return int.from_bytes(hashlib.sha256(str(k).encode()).digest()[:4], "big")


@dataclass(frozen=True)
class KickLaw:
    """Correlation matrix, truncation radius and stream spec; immutable."""

    K: np.ndarray
    eps_hat: float
    rng_spec: tuple        # (seed, stream id)
    norm_samples: int = 200_000

    @property
    def n(self) -> int:
        return self.K.shape[0]

    @cached_property
    def norm_const_est(self) -> tuple:
        """(ball mass estimate, standard error), estimated on first read.

        Drawn from the law's "norm-const" stream with ``norm_samples``
        samples; (nan, nan) when eps_hat = 0 or norm_samples = 0.
        """
        if self.eps_hat > 0 and self.norm_samples:
            return estimate_ball_mass_mc(self, self.norm_samples, self.stream("norm-const"))
        return (np.nan, np.nan)

    @cached_property
    def eigen(self) -> tuple:
        """(sqrt(lambda), V) with K = V diag(lambda) V^T, computed on first read.

        V is None for diagonal K: its own coordinates, in its own index
        order, are then eigen coordinates.
        """
        K = self.K
        if not np.any(K - np.diag(np.diagonal(K))):
            return np.sqrt(np.diagonal(K)), None
        lam, V = np.linalg.eigh(K)
        return np.sqrt(lam), V

    def stream(self, *key) -> np.random.Generator:
        """Independent generator derived from (seed, stream id, *key)."""
        seed, stream_id = self.rng_spec
        parts = tuple(_key_int(k) for k in key)
        return np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(stream_id, *parts)))


def make_kick_law(K, eps_hat, seed, stream_id=0, norm_samples=200_000) -> KickLaw:
    """Validate K (symmetric positive definite); the ball mass estimate is lazy."""
    K = np.asarray(K, dtype=float)
    if eps_hat < 0:
        raise ValueError("eps_hat must be nonnegative")
    if np.linalg.norm(K - K.T) > 1e-12 * max(1.0, np.linalg.norm(K)):
        raise ValueError("K must be symmetric")
    K = 0.5 * (K + K.T)
    evals = np.linalg.eigvalsh(K)
    if evals.min() <= 0:
        raise ValueError("K must be positive definite")
    return KickLaw(K=K, eps_hat=float(eps_hat), rng_spec=(int(seed), int(stream_id)),
                   norm_samples=int(norm_samples))


def estimate_ball_mass_mc(law, n_samples, rng):
    """Monte Carlo estimate (with standard error) of P(||N(0,K)|| <= eps_hat).

    Samples are drawn in K's eigen coordinates, where the norm is the same,
    in batches of at most _ROUND_ENTRIES entries (at least one sample).
    """
    root = law.eigen[0]
    batch = max(1, _ROUND_ENTRIES // law.n)
    hits = 0
    done = 0
    while done < n_samples:
        b = min(batch, n_samples - done)
        z = rng.standard_normal((b, law.n)) * root
        hits += int(np.sum(np.einsum("ij,ij->i", z, z) <= law.eps_hat ** 2))
        done += b
    p = hits / n_samples
    se = np.sqrt(max(p * (1 - p), 1.0 / n_samples) / n_samples)
    return float(p), float(se)


def ball_mass(cov_eigs, radius) -> float:
    """P(sum lambda_i z_i^2 <= radius^2), exact in any dimension.

    Ruben's series (Ann. Math. Statist. 33, 1962) with beta = min lambda:
    P = sum_k c_k F_{n+2k}(radius^2 / beta), F_d the chi-square cdf with d
    degrees of freedom, c_0 = prod (beta/lambda_i)^(1/2) and
    c_k = (1/2k) sum_{j<k} g_{k-j} c_j with g_j = sum_i rho_i^j,
    rho_i = 1 - beta/lambda_i.  The convolution is carried per eigenvalue,
    h_i <- rho_i (h_i + c_{k-1}) and c_k = sum_i h_i / 2k, so a term costs
    O(n) and every addend stays nonnegative.
    The c_k are nonnegative and sum to 1, and F decreases in d, so after K
    terms the rest is at most (1 - sum c) F_{n+2K}; the sum stops when that
    bound is below 1e-15.  Raises DegenerateCovariance when it has not after
    _RUBEN_MAX_TERMS terms (a near-singular covariance), or when an
    eigenvalue is not positive (a singular one, read through roundoff).
    """
    lam = np.asarray(cov_eigs, dtype=float)
    if lam.size == 0:
        return 1.0
    if np.any(lam <= 0):
        raise DegenerateCovariance(
            f"covariance eigenvalues must be positive; the smallest is {lam.min():.3e}")
    n = lam.size
    beta = float(lam.min())
    x = float(radius) ** 2 / beta
    rho = 1.0 - beta / lam
    c = float(np.prod(np.sqrt(beta / lam)))
    h = np.zeros(n)   # h_i = sum_{j<k} rho_i^(k-j) c_j
    total = 0.0
    rest = 1.0
    for k in range(_RUBEN_MAX_TERMS):
        if k:
            h = rho * (h + c)
            c = float(h.sum()) / (2 * k)
        F = float(chdtr(n + 2 * k, x))
        total += c * F
        rest -= c
        if rest * F < _RUBEN_TOL:
            return min(total, 1.0)
    raise DegenerateCovariance(
        f"Ruben's series did not converge in {_RUBEN_MAX_TERMS} terms: "
        f"lambda_max/lambda_min = {lam.max() / beta:.3e}, r^2/lambda_min = {x:.3e}")


def sample_kicks(law, rng, count) -> np.ndarray:
    """``count`` samples of N(0, K) conditioned on the ball, shape (count, n).

    Plain rejection in K's eigen coordinates, as in the module docstring.
    The first round draws one row per kick asked for; each later round is
    sized from the acceptance this call has seen, doubled while it has seen
    none.  Every round is capped at _ROUND_ENTRIES // n rows (at least one),
    so a call holds its result and one round of proposals, whatever
    ``count``.  The cap does not change the kicks: rows are the stream's in
    order however they are split into rounds.  Accepted rows beyond
    ``count`` are discarded.  eps_hat = 0 gives zero kicks and draws
    nothing.  Raises RejectionCap when, after at least REJECTION_WINDOW
    proposals of this call, its acceptance rate is below
    REJECTION_RATE_FLOOR.
    """
    n = law.n
    out = np.zeros((count, n))
    if count == 0 or law.eps_hat == 0.0:
        return out
    eps2 = law.eps_hat ** 2
    root, V = law.eigen
    cap = max(1, _ROUND_ENTRIES // n)
    rows = min(count, cap)
    drawn = done = 0
    while True:
        t = rng.standard_normal((rows, n))
        t *= root
        hit = t[np.einsum("ij,ij->i", t, t) <= eps2][:count - done]
        out[done:done + len(hit)] = hit
        done += len(hit)
        drawn += rows
        if done == count:
            break
        if drawn >= REJECTION_WINDOW and done < REJECTION_RATE_FLOOR * drawn:
            raise RejectionCap(
                f"acceptance rate {done / drawn:.2e} below {REJECTION_RATE_FLOOR} over "
                f"{drawn} draws; eps_hat too small relative to K")
        rows = min(2 * rows if done == 0 else (count - done) * drawn // done + 1, cap)
    return out if V is None else out @ V.T


def sample_kick(law, rng) -> np.ndarray:
    """One sample of N(0, K) conditioned on the ball; see ``sample_kicks``.

    Kept for callers that step one kick at a time (single-step tests, and
    the benchmark's tracer, which rebinds ``kicks.sample_kick`` by name).
    """
    return sample_kicks(law, rng, 1)[0]
