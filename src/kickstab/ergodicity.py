"""Ergodicity verification: the TV hypothesis check, mixing decay, SLLN averaging.

The chain w^{k+1} = S w^k + Pi phi^{k+1} on X_sigma, stepped by its
``spectral.StableStep`` T = e^{-tau A_sigma}, is expected to have a unique
stationary law with exponential mixing once three ingredients hold: the
contraction gamma_0 = ||T||_2 < 1, tail contractions gamma_k that decay
along the sigma ladder, and a total-variation Lipschitz bound for the
projected kick density.  The first two are the certify stage's
(``spectral.contraction_certificate`` and ``spectral.tail_contraction``);
this module measures the third and then observes the conclusions directly
on ensembles: decay of dual-Lipschitz distances between two initial states
stepped on shared kicks, and convergence of running averages.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

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
from .errors import BurnInBelowFloor, BurnInExceedsChain

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


@dataclass(frozen=True)
class MixingReport:
    """Mixing from two starts, stepped on shared kicks (``mixing_decay``).

    d_k is max over the observables of |mean over chains of f(w_A^k) - f(w_B^k)|,
    se_k the standard error of that mean for the observable attaining the
    maximum, and b_k = ||U T^k (c_A - c_B)||, which bounds d_k chain by chain.
    The window (k_lo, k_hi), inclusive, is the run of steps k >= 2 with
    d_k > 3 se_k and d_k > 0; an empty one reads (2, 1).  The fit
    d_k ~ c_fit gamma_fit^k is taken over the window.
    """

    d_k: np.ndarray
    se_k: np.ndarray
    b_k: np.ndarray
    window: tuple
    c_fit: float | None
    gamma_fit: float | None
    r2: float | None
    conclusive: bool
    note: str = ""

    def to_json_dict(self) -> dict:
        return asdict(self)   # canonical_json lists the arrays and the window


def _coupling_bound(step, w0_A, w0_B, n_steps) -> np.ndarray:
    """b_k = ||U T^k (c_A - c_B)|| for k = 0..n_steps, from the step T alone."""
    v = (np.asarray(w0_A, dtype=float) - np.asarray(w0_B, dtype=float)) @ step.U
    b = np.empty(n_steps + 1)
    for k in range(n_steps + 1):
        b[k] = np.linalg.norm(step.U @ v)
        v = step.T @ v
    return b


def mixing_decay(step, pi, law, w0_A, w0_B, n_chains, n_steps, observables,
                 seed) -> MixingReport:
    """Dual-Lipschitz distance decay between two starts on coupled chains.

    Chain c draws its kicks once, on child c of ``seed``, and both starts
    are stepped on them (synchronous coupling): one ``chain.ensemble_blocks``
    ensemble with starts (w0_A, w0_B).  The kicks cancel from each chain's
    difference f(w_A^k) - f(w_B^k), so for the Lipschitz-1 observables
    |f(w_A^k) - f(w_B^k)| <= ||w_A^k - w_B^k|| = b_k holds chain by chain,
    and d_k <= b_k up to roundoff.  Each block is evaluated step by step;
    the differences, less chain 0's at that step (so the sum of squares
    does not cancel), and their squares are added to running sums one chain
    after another, in chain order, before the next block is stepped.

    The exponential fit runs over the window (``MixingReport``) and is
    flagged inconclusive when the window is shorter than 5 steps or the fit
    has R^2 <= 0.9.
    """
    if n_chains < 2:
        raise ValueError("n_chains must be at least 2")
    ref = np.empty((n_steps + 1, observables.size))
    sums = np.zeros((n_steps + 1, 2, observables.size))   # sum of x and of x^2
    first = True
    for states in ensemble_blocks(step, pi, law, np.stack([w0_A, w0_B]), n_chains, n_steps,
                                  seed):
        half = len(states) // 2   # rows: start A for each chain, then start B
        for k in range(n_steps + 1):
            vals = observables.evaluate(states[:, k])
            diff = vals[:half] - vals[half:]
            if first:
                ref[k] = diff[0]
            x = diff - ref[k]
            terms = np.stack([x, x * x], axis=1)
            terms[0] += sums[k]
            sums[k] = terms.sum(axis=0)
        first = False
        del states   # else the loop holds this block while the next is stepped
    mean = sums[:, 0] / n_chains
    var = np.maximum((sums[:, 1] - n_chains * mean * mean) / (n_chains - 1), 0.0)
    mean += ref
    best = np.argmax(np.abs(mean), axis=1)
    ks_all = np.arange(n_steps + 1)
    d_k = np.abs(mean[ks_all, best])
    se_k = np.sqrt(var[ks_all, best] / n_chains)
    b_k = _coupling_bound(step, w0_A, w0_B, n_steps)
    report = dict(d_k=d_k, se_k=se_k, b_k=b_k)
    resolved = (d_k > 3.0 * se_k) & (d_k > 0.0)
    k_hi = 1
    while k_hi + 1 <= n_steps and resolved[k_hi + 1]:
        k_hi += 1
    if k_hi < 2:
        return MixingReport(**report, window=(2, 1), c_fit=None, gamma_fit=None, r2=None,
                            conclusive=False,
                            note="InconclusiveFit: d_2 is not above 3 standard errors")
    ks = np.arange(2, k_hi + 1)
    if len(ks) < 5:
        return MixingReport(**report, window=(2, k_hi), c_fit=None, gamma_fit=None, r2=None,
                            conclusive=False,
                            note="InconclusiveFit: window shorter than 5 steps")
    logd = np.log(d_k[ks])
    slope, intercept = np.polyfit(ks, logd, 1)
    resid = logd - (slope * ks + intercept)
    ss = float(np.sum((logd - logd.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss if ss > 0 else 1.0
    conclusive = r2 > 0.9
    return MixingReport(
        **report, window=(2, k_hi),
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


def slln_average(step, pi, law, w0, n_steps, observables, seed,
                 n_batches=30, checkpoints=None) -> dict:
    """Running averages along one trajectory with batch-means intervals.

    The trajectory is ``chain.run_chain``'s, stepped in X_sigma coordinates.
    """
    states = run_chain(step, pi, law, w0, n_steps, seed)
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


def stationary_stats(step, pi, law, w0, n_steps, burn_in, seed, gamma0=None) -> dict:
    """Post-burn-in moments of one long trajectory (``chain.run_chain``).

    burn_in must dominate the deterministic transient
    ceil(log(eps_hat/||w0||)/log gamma0) when gamma0 is supplied; below it
    raises BurnInBelowFloor.  It must also leave two of the n_steps + 1 states
    for the covariance: burn_in >= n_steps raises BurnInExceedsChain.
    """
    if gamma0 is not None:
        floor = burn_in_floor(law.eps_hat, float(np.linalg.norm(w0)), gamma0)
        if burn_in < floor:
            raise BurnInBelowFloor(f"burn_in {burn_in} below the transient floor {floor}")
    if burn_in >= n_steps:
        raise BurnInExceedsChain(f"burn_in {burn_in} leaves fewer than two states of the "
                                 f"{n_steps}-step chain")
    states = run_chain(step, pi, law, w0, n_steps, seed)
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
    E1 = ladder.completion[:, :ladder.m]
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


def condition_check(ladder, pi, law, tv_level=1, tv_pairs=12, tv_sep_range=(1e-3, 1e-1),
                    tv_quad=None, seed=0) -> dict:
    """Check the total-variation hypothesis on the level-``tv_level`` fiber.

    The projected TV ratio must stay bounded and stable: the largest ratio
    at the small separations is at most twice the largest at the large ones.
    A failure is reported, not raised; a degenerate kick law (eps_hat = 0)
    has no density, and the result says so with ``pass`` None.
    """
    if law.eps_hat == 0.0:
        return {"applicable": False, "pass": None,
                "note": "degenerate kick law (eps_hat = 0); density condition not applicable"}
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
    return {
        "applicable": True,
        "separations": seps.tolist(),
        "ratios": ratios.tolist(),
        "max_ratio": float(ratios.max()),
        "stable_within_2x": stable,
        "pass": stable,
    }
