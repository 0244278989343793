"""Finite-dimensional Oseen-type operators with a prescribed Stokes spectrum.

The model is A = A0 + A1 on R^n, where A0 = diag(mu) plays the role of the
self-adjoint positive Stokes part (eigenvalues following the Babenko growth
law mu_j ~ beta0 * j^(2/d)) and A1 is a nonsymmetric perturbation whose size
is controlled through the relative bound ||A1 A0^{-1/2}||_2 = b.  A designated
number of eigenvalues is pushed below a splitting level sigma by a randomized
search mixing a dense random direction with a low-index block shift; the blend
weight is found by bisection over a fixed grid, one dense eigensolve per probe.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import linalg as sla

from .errors import ConstructionFailed
from .spectral import _spectral_norm

__all__ = [
    "StokesSpectrum",
    "OseenModel",
    "synth_stokes_spectrum",
    "build_oseen",
]


@dataclass(frozen=True)
class StokesSpectrum:
    """Synthetic Stokes eigenvalue sequence following the Babenko growth law."""

    n: int
    d: int
    beta0: float
    mu: np.ndarray
    remainder_scale: float
    seed: int

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        object.__setattr__(self, "mu", mu)
        if mu.shape != (self.n,):
            raise ValueError(f"mu must have shape ({self.n},)")
        if np.any(mu <= 0):
            raise ValueError("mu must be strictly positive")
        if np.any(np.diff(mu) < 0):
            raise ValueError("mu must be nondecreasing")
        j = np.arange(1, self.n + 1)
        bound = self.remainder_scale * j ** (2.0 / self.d) / np.log(j + 2)
        dev = np.abs(mu - self.beta0 * j ** (2.0 / self.d))
        if np.any(dev > bound + 1e-12):
            raise ValueError("mu violates the growth-law remainder bound")


@dataclass(frozen=True)
class OseenModel:
    """Real n x n operator A = A0 + A1 in an orthonormal Stokes eigenbasis.

    obs_idx holds the observable coordinates (0-based); control directions
    live on the complement.  spectrum_cache lists (re, im, multiplicity)
    records of the dense eigensolve of A.  complex_schur is A's complex
    Schur form, computed on first read and shared by every spectral routine
    that works in Schur coordinates.
    """

    n: int
    A: np.ndarray
    A0: np.ndarray
    A1: np.ndarray
    relative_bound_b: float
    obs_idx: tuple
    spectrum_cache: tuple
    spectrum: StokesSpectrum
    seed: int

    @property
    def mu(self) -> np.ndarray:
        return self.spectrum.mu

    @property
    def d(self) -> int:
        return self.spectrum.d

    @cached_property
    def complex_schur(self) -> tuple:
        """(T, Q) with A = Q T Q^H, T upper triangular and Q unitary.

        Computed once, on first read, and returned read-only: the Riesz
        quadrature and the contour resolvent norms of ``spectral`` both take
        their triangular systems from T.
        """
        T, Q = sla.schur(self.A, output="complex")
        T.flags.writeable = False
        Q.flags.writeable = False
        return T, Q

    def eigvals(self) -> np.ndarray:
        """Complex eigenvalues reconstructed from the cache."""
        out = []
        for re, im, mult in self.spectrum_cache:
            out.extend([complex(re, im)] * mult)
        return np.array(out)

    def to_json(self) -> str:
        doc = {
            "n": self.n,
            "d": self.spectrum.d,
            "beta0": self.spectrum.beta0,
            "remainder_scale": self.spectrum.remainder_scale,
            "spectrum_seed": self.spectrum.seed,
            "mu": self.spectrum.mu.tolist(),
            "A": self.A.ravel().tolist(),
            "obs_idx": list(self.obs_idx),
            "seed": self.seed,
            "relative_bound_b": self.relative_bound_b,
        }
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "OseenModel":
        doc = json.loads(text)
        n = doc["n"]
        spec = StokesSpectrum(
            n=n,
            d=doc["d"],
            beta0=doc["beta0"],
            mu=np.array(doc["mu"]),
            remainder_scale=doc["remainder_scale"],
            seed=doc["spectrum_seed"],
        )
        A = np.array(doc["A"]).reshape(n, n)
        A0 = np.diag(spec.mu)
        A1 = A - A0
        return OseenModel(
            n=n,
            A=A,
            A0=A0,
            A1=A1,
            relative_bound_b=doc["relative_bound_b"],
            obs_idx=tuple(doc["obs_idx"]),
            spectrum_cache=_spectrum_cache(np.linalg.eigvals(A)),
            spectrum=spec,
            seed=doc["seed"],
        )


def synth_stokes_spectrum(n, d, beta0, remainder_scale, seed) -> StokesSpectrum:
    """Draw a Stokes spectrum mu_j = beta0*j^(2/d) + remainder, re-sorted.

    The remainder is uniform in [-1, 1]*remainder_scale/ln(j+2), which keeps
    the sorted sequence inside the growth-law envelope.  Deterministic in
    ``seed``.  Requires remainder_scale < beta0*ln(3) so the smallest
    eigenvalue stays positive.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if d not in (2, 3):
        raise ValueError("d must be 2 or 3")
    if beta0 <= 0:
        raise ValueError("beta0 must be positive")
    if remainder_scale < 0:
        raise ValueError("remainder_scale must be nonnegative")
    if remainder_scale >= beta0 * np.log(3.0):
        raise ValueError("remainder_scale too large: smallest eigenvalue may go nonpositive")
    rng = np.random.default_rng(seed)
    j = np.arange(1, n + 1)
    base = beta0 * j ** (2.0 / d)
    rem = remainder_scale * rng.uniform(-1.0, 1.0, size=n) / np.log(j + 2)
    mu = np.sort(base + rem)
    return StokesSpectrum(n=n, d=d, beta0=beta0, mu=mu, remainder_scale=remainder_scale, seed=seed)


def _spectrum_cache(ev, tol=1e-9) -> tuple:
    """Cluster dense eigenvalues into (re, im, multiplicity) records."""
    order = np.lexsort((ev.imag, ev.real))
    ev = ev[order]
    records = []
    for lam in ev:
        if records and abs(lam - complex(records[-1][0], records[-1][1])) < tol:
            re, im, mult = records[-1]
            records[-1] = (re, im, mult + 1)
        else:
            records.append((float(lam.real), float(lam.imag), 1))
    return tuple(records)


def build_oseen(spec, b, n_unstable, sigma, obs_idx, seed,
                max_attempts=8, n_weights=41, gap_tol=1e-6) -> OseenModel:
    """Build A = A0 + A1 with exactly ``n_unstable`` eigenvalues below sigma.

    A1 = c * M * A0^{1/2} where M = (1 - w) * B + w * shift blends a unit-norm
    random dense direction B with a negative projector onto the first
    ``n_unstable`` coordinates, and c rescales so that ||A1 A0^{-1/2}||_2 = b
    exactly.  A weight w accepts when the dense eigensolve of A reports
    ``n_unstable`` eigenvalues with real part below sigma and every real part
    at least ``gap_tol`` away from sigma.

    Each attempt draws a fresh B and searches the grid
    ``linspace(0, 1, n_weights)`` by bisection: it probes the last weight
    first and, if that accepts, halves the interval between the highest
    rejecting index (initially the virtual index -1) and the lowest accepting
    one, so it runs at most ceil(log2(n_weights)) + 1 eigensolves.  The model
    is assembled from the accepting probe with the smallest index, with that
    probe's own eigenvalues.  When acceptance is monotone in w this is the
    first accepting grid weight; otherwise it is an accepting weight whose
    grid predecessor rejects.  When the last weight rejects, the attempt ends
    at once (the grid is not scanned below it) and the next attempt draws a
    new B.

    Raises ConstructionFailed when no attempt within ``max_attempts``
    accepts; its ``attempts`` counts the eigensolves run.
    """
    n = spec.n
    if not 0 <= n_unstable < n:
        raise ValueError("n_unstable must satisfy 0 <= n_unstable < n")
    mu = spec.mu
    A0 = np.diag(mu)
    A0h = np.diag(np.sqrt(mu))
    obs_idx = tuple(sorted(int(i) for i in obs_idx))
    if any(i < 0 or i >= n for i in obs_idx):
        raise ValueError("obs_idx out of range")
    rng = np.random.default_rng(seed)

    def finish(A1, ev):
        return OseenModel(
            n=n, A=A0 + A1, A0=A0, A1=A1,
            relative_bound_b=float(b),
            obs_idx=obs_idx,
            spectrum_cache=_spectrum_cache(ev),
            spectrum=spec,
            seed=seed,
        )

    if b == 0.0:
        ev = np.linalg.eigvals(A0)
        count = int(np.sum(ev.real < sigma))
        if count != n_unstable:
            raise ConstructionFailed(
                f"b=0 leaves {count} eigenvalues below sigma, "
                f"wanted {n_unstable}", attempts=1)
        return finish(np.zeros((n, n)), ev)

    shift = np.zeros((n, n))
    if n_unstable > 0:
        shift[:n_unstable, :n_unstable] = -np.eye(n_unstable)

    eigensolves = 0

    def probe(B_rand, w):
        """(A1, ev) when blend weight w accepts, else None."""
        nonlocal eigensolves
        M = (1.0 - w) * B_rand + w * shift
        nrm = _spectral_norm(M)
        if nrm == 0.0:
            return None
        A1 = (b / nrm) * M @ A0h
        eigensolves += 1
        ev = np.linalg.eigvals(A0 + A1)
        if int(np.sum(ev.real < sigma)) == n_unstable and np.min(np.abs(ev.real - sigma)) > gap_tol:
            return A1, ev
        return None

    weights = [0.0] if n_unstable == 0 else np.linspace(0.0, 1.0, n_weights)
    for _ in range(max_attempts):
        B_rand = rng.standard_normal((n, n))
        B_rand /= _spectral_norm(B_rand)
        # invariant: index lo rejects (lo = -1 is virtual), hi accepts with probe `best`
        lo, hi = -1, len(weights) - 1
        best = probe(B_rand, weights[hi])
        if best is None:
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            found = probe(B_rand, weights[mid])
            if found is None:
                lo = mid
            else:
                hi, best = mid, found
        return finish(*best)
    raise ConstructionFailed(
        f"could not realize {n_unstable} unstable eigenvalues at sigma={sigma} "
        f"with b={b}", attempts=eigensolves)
