"""The controlled kicked process w^{k+1} = S w^k + Pi phi^{k+1}.

Every trajectory is stepped by one kernel, ``propagate``: a chain's kicks
are drawn in one ``sample_kicks`` call on its own stream, pushed through
Pi once, and a block of chains is stepped together.  A call's kicks are a
prefix of a longer call's on the same stream (``kicks.sample_kicks``), so a
chain's first k kicks are those of a k-step run on the same stream.  Every
controlled chain steps in X_sigma coordinates c = U^T w, U the stable basis
(``controlled_states``), so roundoff has no component along the unstable
mode to amplify, however long the run.

Also provides the uncontrolled blow-up demonstration (no projection, full
space) and the per-trajectory envelope certificate
||w^k|| <= gamma0^k ||w0|| + ||Pi|| eps_hat / (1 - gamma0), which is provable
for the measured restricted norm gamma0 and therefore admits zero
violations beyond float roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifacts import hash_arrays
from .errors import NotUnstable
from .kicks import sample_kicks

__all__ = [
    "ChainConfig",
    "Trajectory",
    "step",
    "propagate",
    "controlled_states",
    "run_chain",
    "run_ensemble",
    "envelope_check",
    "uncontrolled_demo",
    "burn_in_floor",
]


@dataclass(frozen=True)
class ChainConfig:
    tau: float
    n_steps: int
    w0: np.ndarray
    seed: int
    record_kicks: bool = False


@dataclass
class Trajectory:
    states: np.ndarray          # (n_steps+1, n)
    norms: np.ndarray           # (n_steps+1,)
    kicks: np.ndarray | None
    manifest: dict
    r0: float = np.inf
    first_entry: int | None = None


def step(S_mat, pi, law, w, rng) -> np.ndarray:
    """One transition: S w + Pi phi with a freshly sampled kick."""
    return controlled_states(S_mat, pi, w, sample_kicks(law, rng, 1))[1]


def propagate(S_mat, B, w0, kicks) -> np.ndarray:
    """States of w^{k+1} = S w^k + B phi^{k+1} from w0, for a block of chains.

    kicks has shape (..., steps, d) and w0 broadcasts to (..., n); the
    result has shape (..., steps+1, n).  The kicks are pushed through B in
    one product, then each step advances the whole block at once.
    """
    kicks = np.asarray(kicks, dtype=float)
    steps = kicks.shape[-2]
    states = np.empty(kicks.shape[:-2] + (steps + 1, S_mat.shape[0]))
    states[..., 0, :] = w0
    np.matmul(kicks, B.T, out=states[..., 1:, :])
    ST = S_mat.T
    for k in range(steps):
        states[..., k + 1, :] += states[..., k, :] @ ST
    return states


def controlled_states(S_mat, pi, w0, kicks) -> np.ndarray:
    """``propagate`` for the controlled chain, stepped in X_sigma coordinates.

    Raises ValueError unless w0 lies in X_sigma: ||D^T w0|| < 1e-10 max(1, ||w0||).
    """
    w0 = np.asarray(w0, dtype=float)
    D, U = pi.dichotomy.D, pi.dichotomy.stable_basis
    if D.size and np.linalg.norm(D.T @ w0) >= 1e-10 * max(1.0, np.linalg.norm(w0)):
        raise ValueError("w0 must lie in X_sigma (adjoint residual too large)")
    c = propagate(U.T @ S_mat @ U, U.T @ pi.Pi_mat, w0 @ U, kicks)
    del kicks   # run_ensemble passes its kicks inline: free them before w = U c
    return c @ U.T


def run_chain(config, S_mat, pi, law, gamma0=None) -> Trajectory:
    """Run one controlled trajectory from config.w0 (must lie in X_sigma).

    Reports the stage threshold r0 = ||Pi|| eps_hat / (1 - gamma0) and the
    first entry time into the ball of that radius.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    kicks = sample_kicks(law, rng, config.n_steps)
    states = controlled_states(S_mat, pi, config.w0, kicks)
    norms = np.linalg.norm(states, axis=1)
    r0 = np.inf
    first_entry = None
    if gamma0 is not None and gamma0 < 1.0:
        r0 = pi.norm_Pi * law.eps_hat / (1.0 - gamma0)
        inside = np.nonzero(norms <= r0)[0]
        first_entry = int(inside[0]) if inside.size else None
    manifest = {
        "S_hash": hash_arrays(S_mat),
        "pi_hash": hash_arrays(pi.Pi_mat),
        "law_hash": hash_arrays(law.K, law.eps_hat),
        "seed": config.seed,
        "tau": config.tau,
        "n_steps": config.n_steps,
    }
    return Trajectory(states=states, norms=norms,
                      kicks=kicks if config.record_kicks else None,
                      manifest=manifest, r0=r0, first_entry=first_entry)


def run_ensemble(S_mat, pi, law, w0, n_chains, n_steps, seed) -> np.ndarray:
    """States of n_chains independent trajectories, shape (chains, steps+1, n).

    Chain c draws its n_steps kicks in one ``sample_kicks`` call on a
    private stream, spawned as child c of ``seed``.  A chain's trajectory
    therefore does not depend on how many chains run beside it, and its
    first k steps are those of a k-step run.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return controlled_states(S_mat, pi, w0, np.stack(
        [sample_kicks(law, np.random.default_rng(s), n_steps) for s in ss.spawn(n_chains)]))


def envelope_check(norms, w0_norm, gamma0, norm_Pi, eps_hat, tol=1e-9) -> dict:
    """Check ||w^k|| <= gamma0^k ||w0|| + ||Pi|| eps_hat/(1-gamma0) per step.

    ``norms`` may be a single trajectory (steps+1,) or an ensemble
    (chains, steps+1).  Violations are reported, never raised.
    """
    norms = np.atleast_2d(np.asarray(norms, dtype=float))
    report = {"certificate_valid": bool(gamma0 < 1.0), "gamma0": float(gamma0)}
    if not report["certificate_valid"]:
        report.update({"n_violations": None, "max_residual": None,
                       "note": "gamma0 >= 1: envelope not applicable"})
        return report
    k = np.arange(norms.shape[1])
    bound = gamma0 ** k * w0_norm + norm_Pi * eps_hat / (1.0 - gamma0)
    resid = norms - bound[None, :]
    report["max_residual"] = float(resid.max())
    report["n_violations"] = int(np.sum(resid > tol))
    report["bound_tail"] = float(norm_Pi * eps_hat / (1.0 - gamma0))
    return report


def fit_log_growth(norms, tail_frac=0.5) -> float:
    """Least-squares slope of log ||w^k|| over the trailing fraction of steps."""
    norms = np.asarray(norms, dtype=float)
    k0 = int(len(norms) * (1 - tail_frac))
    ks = np.arange(k0, len(norms))
    vals = np.log(np.maximum(norms[k0:], 1e-300))
    slope = np.polyfit(ks, vals, 1)[0]
    return float(slope)


def uncontrolled_demo(S, law, w0, n_steps, seed):
    """Run the raw process w~^{k+1} = S w~^k + phi^{k+1} on the full space.

    Requires S = S(tau) to have spectral radius above 1 (A has an eigenvalue
    with Re < 0); returns the trajectory and the fitted per-step growth rate.
    """
    if np.max(np.abs(np.linalg.eigvals(S))) <= 1.0:
        raise NotUnstable("no eigenvalue with negative real part")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    kicks = sample_kicks(law, rng, n_steps)
    states = propagate(S, np.eye(law.n), np.asarray(w0, dtype=float), kicks)
    norms = np.linalg.norm(states, axis=1)
    manifest = {"S_hash": hash_arrays(S), "seed": seed,
                "law_hash": hash_arrays(law.K, law.eps_hat)}
    traj = Trajectory(states=states, norms=norms, kicks=None, manifest=manifest)
    return traj, fit_log_growth(norms)


def burn_in_floor(eps_hat, w0_norm, gamma0) -> int:
    """Smallest burn-in with gamma0^k ||w0|| below the kick scale eps_hat."""
    if w0_norm <= eps_hat or w0_norm == 0.0 or not (0 < gamma0 < 1):
        return 0
    return int(np.ceil(np.log(eps_hat / w0_norm) / np.log(gamma0)))
