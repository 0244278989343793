"""Truncated-Gaussian kick law: sampling and the ball mass.

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
once per law by Ruben's chi-square series (``ball_mass``, read as
``KickLaw.mass``).  The series is exact to 1e-15 where it converges: on the
default kick law it does at n <= 150 (about 70 ms at n = 150, 2-core VM) and
raises DegenerateCovariance at n = 400.  The density stage's projected law
is a KickLaw too (``density.projected_law``).
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
]

REJECTION_WINDOW = 1_000_000
REJECTION_RATE_FLOOR = 1e-4
_ROUND_ENTRIES = 1 << 20   # cap of the proposal entries (rows x n) drawn in one round
_RUBEN_TOL = 1e-15         # bound on the omitted tail of Ruben's series
_RUBEN_MAX_TERMS = 100_000


@dataclass(frozen=True)
class KickLaw:
    """N(0, K) conditioned on the ball ||phi|| <= eps_hat: kick and projected law; immutable."""

    K: np.ndarray
    eps_hat: float

    @property
    def n(self) -> int:
        return self.K.shape[0]

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

    @cached_property
    def mass(self) -> float:
        """G(B_eps) = P(||N(0, K)|| <= eps_hat), by ``ball_mass`` on first read."""
        return ball_mass(np.linalg.eigvalsh(self.K), self.eps_hat)

    @property
    def c_hat(self) -> float:
        return 1.0 / self.mass

    @property
    def norm_const_est(self) -> tuple:
        """(mass, 0.0): the sampler's exact acceptance rate, for perfbench/layertrace.py."""
        return (self.mass, 0.0)


def make_kick_law(K, eps_hat) -> KickLaw:
    """Validate K (symmetric positive definite); the ball mass is lazy."""
    K = np.asarray(K, dtype=float)
    if eps_hat < 0:
        raise ValueError("eps_hat must be nonnegative")
    if np.linalg.norm(K - K.T) > 1e-12 * max(1.0, np.linalg.norm(K)):
        raise ValueError("K must be symmetric")
    K = 0.5 * (K + K.T)
    evals = np.linalg.eigvalsh(K)
    if evals.min() <= 0:
        raise ValueError("K must be positive definite")
    return KickLaw(K=K, eps_hat=float(eps_hat))


def ball_mass(cov_eigs, radius) -> float:
    """P(sum lambda_i z_i^2 <= radius^2), to 1e-15 where the series converges.

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
