"""Ergodicity verification: hypothesis checks, mixing decay, SLLN averaging.

The chain w^{k+1} = S w^k + Pi phi^{k+1} on X_sigma is expected to have a
unique stationary law with exponential mixing once three ingredients hold:
the restricted contraction gamma_0 < 1, tail contractions gamma_k that
decay along the sigma ladder, and a total-variation Lipschitz bound for
the projected kick density.  This module measures all three and then
observes the conclusions directly on ensembles: decay of dual-Lipschitz
distances between two initial states, and convergence of running averages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import stdtrit

from . import chain
from .chain import burn_in_floor, ensemble_blocks, run_chain
from .density import (
    QuadratureSpec,
    build_pi_decomposition,
    projected_law,
    tv_lipschitz_ratio,
)
from .errors import BurnInBelowFloor
from .spectral import contraction_certificate, tail_contraction

__all__ = [
    "ObservableSet",
    "MixingReport",
    "make_observables",
    "mixing_decay",
    "slln_average",
    "stationary_stats",
    "condition_check",
    "alpha_from_projection",
    "projected_kick_covariance",
    "stable_state",
]


@dataclass(frozen=True)
class ObservableSet:
    """Lipschitz-1, sup-norm-1 test functions: clipped linear and radial."""

    U: np.ndarray        # (n_linear, n) unit rows; f = clip(<u, w>)
    centers: np.ndarray  # (n_radial, n); f = clip(a - ||w - c||)
    offsets: np.ndarray  # (n_radial,)

    @property
    def size(self) -> int:
        return self.U.shape[0] + self.centers.shape[0]

    def evaluate(self, states) -> np.ndarray:
        """Evaluate all observables; output shape states.shape[:-1] + (size,).

        The radial distances are taken in blocks of rows, each with at most
        ``chain.BLOCK_ENTRIES`` entries of (rows, n_radial, n) differences.
        Each row's distances are a reduction over that row alone, so the
        block size does not reach the result.
        """
        states = np.asarray(states, dtype=float)
        lin = np.clip(states @ self.U.T, -1.0, 1.0)
        rows = states.reshape(-1, states.shape[-1])
        rad = np.empty((len(rows), len(self.offsets)))
        step = max(1, chain.BLOCK_ENTRIES // max(1, self.centers.size))
        for lo in range(0, len(rows), step):
            diff = rows[lo:lo + step, None, :] - self.centers
            rad[lo:lo + step] = self.offsets - np.linalg.norm(diff, axis=-1)
        rad = np.clip(rad, -1.0, 1.0).reshape(states.shape[:-1] + (-1,))
        return np.concatenate([lin, rad], axis=-1)


def make_observables(n, n_linear=20, n_radial=10, seed=0, radial_scale=1.0) -> ObservableSet:
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(101,)))
    U = rng.standard_normal((n_linear, n))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    centers = radial_scale * rng.standard_normal((n_radial, n))
    offsets = rng.uniform(0.2, 1.0, n_radial)
    return ObservableSet(U=U, centers=centers, offsets=offsets)


def stable_state(dich, scale=1.0, seed=0) -> np.ndarray:
    """A deterministic state of the requested norm inside X_sigma."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7,)))
    coeffs = rng.standard_normal(dich.stable_basis.shape[1])
    v = dich.stable_basis @ coeffs
    return scale * v / np.linalg.norm(v)


@dataclass
class MixingReport:
    d_k: np.ndarray
    noise_floor: float
    window: tuple            # (k_lo, k_hi) inclusive; empty -> (2, 1)
    c_fit: float | None
    gamma_fit: float | None
    r2: float | None
    conclusive: bool
    note: str = ""

    def to_json_dict(self) -> dict:
        return {
            "d_k": self.d_k.tolist(),
            "noise_floor": self.noise_floor,
            "window": list(self.window),
            "c_fit": self.c_fit,
            "gamma_fit": self.gamma_fit,
            "r2": self.r2,
            "conclusive": self.conclusive,
            "note": self.note,
        }


def _ensemble_obs_means(S, pi, law, w0, n_chains, n_steps, seed_seq, observables):
    """Per-step means over chains of the observables, shape (steps+1, size).

    Each block of ``chain.ensemble_blocks`` is evaluated step by step and
    its values are added to the running sums one chain after another, in
    chain order, before the next block is stepped.
    """
    sums = np.zeros((n_steps + 1, observables.size))
    for states in ensemble_blocks(S, pi, law, w0, n_chains, n_steps, seed_seq):
        for k in range(n_steps + 1):
            vals = observables.evaluate(states[:, k])
            vals[0] += sums[k]
            sums[k] = vals.sum(axis=0)
    return sums / n_chains


def mixing_decay(S, pi, law, w0_A, w0_B, n_chains, n_steps, observables,
                 seed) -> MixingReport:
    """Dual-Lipschitz distance decay between two ensembles.

    d_k is the maximum over the observable set of the difference of
    ensemble means.  The noise floor is the same statistic for two
    ensembles started from the same state (same budget, fresh streams).
    The exponential fit runs from k = 2 to the last k with
    d_k > 3 * noise_floor and is flagged inconclusive when that window is
    shorter than 5 steps or fits poorly.
    """
    if n_chains < 2:
        raise ValueError("n_chains must be at least 2")
    root = np.random.SeedSequence(seed)
    sA, sB, sN1, sN2 = root.spawn(4)
    mA = _ensemble_obs_means(S, pi, law, w0_A, n_chains, n_steps, sA, observables)
    mB = _ensemble_obs_means(S, pi, law, w0_B, n_chains, n_steps, sB, observables)
    d_k = np.max(np.abs(mA - mB), axis=1)
    m1 = _ensemble_obs_means(S, pi, law, w0_A, n_chains, n_steps, sN1, observables)
    m2 = _ensemble_obs_means(S, pi, law, w0_A, n_chains, n_steps, sN2, observables)
    d_null = np.max(np.abs(m1 - m2), axis=1)
    floor = float(np.mean(d_null[2:])) if len(d_null) > 2 else float(np.mean(d_null))
    above = np.nonzero(d_k > 3.0 * floor)[0]
    above = above[above >= 2]
    if len(above) == 0:
        return MixingReport(d_k=d_k, noise_floor=floor, window=(2, 1), c_fit=None,
                            gamma_fit=None, r2=None, conclusive=False,
                            note="InconclusiveFit: no step exceeds 3x noise floor")
    k_hi = int(above.max())
    ks = np.arange(2, k_hi + 1)
    if len(ks) < 5:
        return MixingReport(d_k=d_k, noise_floor=floor, window=(2, k_hi), c_fit=None,
                            gamma_fit=None, r2=None, conclusive=False,
                            note="InconclusiveFit: window shorter than 5 steps")
    logd = np.log(np.maximum(d_k[ks], 1e-300))
    slope, intercept = np.polyfit(ks, logd, 1)
    resid = logd - (slope * ks + intercept)
    ss = float(np.sum((logd - logd.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss if ss > 0 else 1.0
    conclusive = r2 > 0.9
    return MixingReport(
        d_k=d_k, noise_floor=floor, window=(2, k_hi),
        c_fit=float(np.exp(intercept)),
        gamma_fit=float(np.exp(slope)) if conclusive else None,
        r2=float(r2), conclusive=conclusive,
        note="" if conclusive else "InconclusiveFit: R^2 <= 0.9")


def _batch_ci(series, n_batches=30, level=0.95):
    """Batch-means confidence interval for the mean of a (steps,) or (steps, d) series."""
    series = np.asarray(series, dtype=float)
    series = series.reshape(len(series), -1)
    usable = (len(series) // n_batches) * n_batches
    batches = series[:usable].reshape(n_batches, -1, series.shape[1]).mean(axis=1)
    mean = batches.mean(axis=0)
    se = batches.std(axis=0, ddof=1) / np.sqrt(n_batches)
    tq = stdtrit(n_batches - 1, 0.5 + level / 2)
    return mean, mean - tq * se, mean + tq * se


def slln_average(S, pi, law, w0, n_steps, observables, seed,
                 n_batches=30, checkpoints=None) -> dict:
    """Running averages along one trajectory with batch-means intervals.

    The trajectory is ``chain.run_chain``'s, stepped in X_sigma coordinates.
    """
    states = run_chain(S, pi, law, w0, n_steps, seed)
    fv = observables.evaluate(states)
    if checkpoints is None:
        checkpoints = sorted({n_steps // 100, n_steps // 10, n_steps} - {0})
    running_state = {int(N): states[:N + 1].mean(axis=0).tolist() for N in checkpoints}
    running_obs = {int(N): fv[:N + 1].mean(axis=0).tolist() for N in checkpoints}
    sm, slo, shi = _batch_ci(states, n_batches)
    om, olo, ohi = _batch_ci(fv, n_batches)
    return {
        "checkpoints": [int(N) for N in checkpoints],
        "running_state_mean": running_state,
        "running_obs_mean": running_obs,
        "state_mean": sm.tolist(), "state_ci_low": slo.tolist(), "state_ci_high": shi.tolist(),
        "obs_mean": om.tolist(), "obs_ci_low": olo.tolist(), "obs_ci_high": ohi.tolist(),
        "n_batches": n_batches,
    }


def stationary_stats(S, pi, law, w0, n_steps, burn_in, seed, gamma0=None) -> dict:
    """Post-burn-in moments of one long trajectory (``chain.run_chain``).

    burn_in must dominate the deterministic transient
    ceil(log(eps_hat/||w0||)/log gamma0) when gamma0 is supplied; below it
    raises BurnInBelowFloor.
    """
    if gamma0 is not None:
        floor = burn_in_floor(law.eps_hat, float(np.linalg.norm(w0)), gamma0)
        if burn_in < floor:
            raise BurnInBelowFloor(f"burn_in {burn_in} below the transient floor {floor}")
    states = run_chain(S, pi, law, w0, n_steps, seed)
    post = states[burn_in:]
    norms = np.linalg.norm(post, axis=1)
    counts, edges = np.histogram(norms, bins=40)
    return {
        "mean": post.mean(axis=0),
        "cov": np.cov(post.T, ddof=1),
        "norm_hist_counts": counts,
        "norm_hist_edges": edges,
        "n_post": len(post),
        "burn_in": burn_in,
    }


def alpha_from_projection(pi, ladder, level=1) -> np.ndarray:
    """Matrix of Q Pi restricted to X_sigma^perp, in the ladder bases."""
    E1 = ladder.E_all[:, :ladder.m]
    E2 = ladder.mid_basis(level)
    return E2.T @ pi.Pi_mat @ E1


def projected_kick_covariance(K, ladder, level=1) -> np.ndarray:
    """Kick covariance restricted to X_{sigma_level}^perp (ladder coordinates)."""
    H = ladder.head_basis(level)
    return H.T @ np.asarray(K, dtype=float) @ H


def _tv_statistics(dec, plaw, rng, n_pairs, sep_range, quad):
    seps = np.geomspace(sep_range[0], sep_range[1], n_pairs)
    ratios = np.empty(n_pairs)
    for i, sep in enumerate(seps):
        direction = rng.standard_normal(dec.nm)
        direction /= np.linalg.norm(direction)
        delta = sep * direction
        ratios[i] = tv_lipschitz_ratio(dec, plaw, 0.5 * delta, -0.5 * delta, quad)
    return seps, ratios


def condition_check(dich, ladder, pi, law, S,
                    tv_level=1, tv_pairs=12, tv_sep_range=(1e-3, 1e-1),
                    tv_quad=None, seed=0) -> dict:
    """Verify the three ergodicity hypotheses for the step S = S(tau).

    Returns a report with one entry per hypothesis: restricted contraction
    (gamma_0 < 1), tail contraction (strictly decreasing with the last
    level below 0.5 * gamma_0), and boundedness/stability of the projected
    total-variation ratio.  Failures are reported, not raised.
    """
    gamma0, ok = contraction_certificate(dich, S)
    gammas = tail_contraction(ladder, S)
    strictly_dec = bool(np.all(np.diff(gammas) < 0))
    tail_ok = strictly_dec and bool(gammas[-1] < 0.5 * gamma0)
    report = {
        "contraction": {"gamma0": float(gamma0), "pass": bool(ok)},
        "tail": {"gamma_k": gammas.tolist(), "strictly_decreasing": strictly_dec,
                 "last_below_half_gamma0": bool(gammas[-1] < 0.5 * gamma0),
                 "pass": tail_ok},
    }
    if law.eps_hat == 0.0:
        report["tv"] = {"applicable": False, "pass": None,
                        "note": "degenerate kick law (eps_hat = 0); density condition not applicable"}
    else:
        alpha = alpha_from_projection(pi, ladder, tv_level)
        K_proj = projected_kick_covariance(law.K, ladder, tv_level)
        dec = build_pi_decomposition(alpha)
        plaw = projected_law(K_proj, law.eps_hat)
        quad = tv_quad or QuadratureSpec(mc_nodes=4000, radial=32)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(31,)))
        # ratios depend only on the separation vector, so centering at 0 loses nothing
        seps, ratios = _tv_statistics(dec, plaw, rng, tv_pairs, tv_sep_range, quad)
        mid = np.sqrt(seps.min() * seps.max())
        small = ratios[seps <= mid]
        large = ratios[seps > mid]
        stable = bool(small.max() <= 2.0 * max(large.max(), 1e-300)) and np.all(np.isfinite(ratios))
        report["tv"] = {
            "applicable": True,
            "separations": seps.tolist(),
            "ratios": ratios.tolist(),
            "max_ratio": float(ratios.max()),
            "stable_within_2x": stable,
            "pass": stable,
        }
    checks = [v["pass"] for v in report.values() if v.get("pass") is not None]
    report["all_pass"] = bool(all(checks))
    return report
