"""The controlled kicked process w^{k+1} = S(tau) w^k + Pi phi^{k+1} on X_sigma.

Every controlled chain steps in X_sigma coordinates c = U^T w by the
``spectral.StableStep`` T = e^{-tau A_sigma}, the restriction of S(tau) to
X_sigma formed from its own generator: c^{k+1} = T c^k + U^T Pi phi^{k+1}.
Nothing in T grows, so roundoff has no unstable component to amplify,
however long the run.  One kernel, ``propagate``, steps every trajectory:
a chain's kicks are drawn in one ``sample_kicks`` call on its own stream,
pushed through U^T Pi once, and a block of chains is stepped together.

A single chain, ``run_chain``, returns its (n_steps+1, n) states, drawn on
the one stream SeedSequence(seed).  A call's kicks are a prefix of a longer
call's on the same stream (``kicks.sample_kicks``), so a k-step chain is
the first k steps of a longer one, up to roundoff: the kicks are pushed
through U^T Pi, and the states mapped back by U, in one product over all
steps, which BLAS can round differently with the number of rows.  At
n = 20, chains of 100 and 200 steps agree bit for bit.

An ensemble is stepped in bounded blocks of whole chains by
``ensemble_blocks``: one ``run_ensemble`` call per block, each block yielded
to its caller to reduce before the next is stepped.  A block holds at most
BLOCK_ENTRIES ambient state entries, (starts x chains x (steps+1) x n).
Only this module knows the block size.  Chain c always draws on child c of
the ensemble's seed, so its kicks do not depend on the block size.  Its
states can, in the last bits only: the thread split is fixed (a
``cli.Pipeline`` pins OpenBLAS to one thread), but BLAS still picks its
kernels by shape, so a row of the step product can round differently with
the number of rows (a one-chain block takes the matrix-vector path).  At
n = 20, blocks of 8 or more rows match one block bit for bit.  The kick
map U^T Pi is formed once per ensemble.

Several starts can share one ensemble's kicks (synchronous coupling): with
w0 of shape (s, n), every start is stepped on chain c's kicks, drawn once.
The s trajectories of a chain then differ by U T^k (c_A - c_B) only, up to
roundoff, since the kicks cancel from their difference.

Also provides the uncontrolled blow-up demonstration, the one user of the
growing S(tau) = e^{-tau A}, and the envelope certificate ||w^k|| <=
gamma0^k ||w0|| + ||Pi|| eps_hat / (1 - gamma0) for gamma0 = ||T||_2, which
is provable and so admits no violation beyond float roundoff.
"""

from __future__ import annotations

import numpy as np

from .errors import BlowupOverflow, NotUnstable
from .kicks import sample_kicks
from .spectral import _eigvals, semigroup

__all__ = [
    "propagate",
    "controlled_states",
    "run_chain",
    "run_ensemble",
    "ensemble_blocks",
    "envelope_bound",
    "envelope_check",
    "uncontrolled_demo",
    "burn_in_floor",
]

BLOCK_ENTRIES = 1 << 20    # state entries (starts x chains x (steps+1) x n) of one ensemble block


def propagate(M, B, w0, kicks) -> np.ndarray:
    """States of w^{k+1} = M w^k + B phi^{k+1} from w0, for a block of chains.

    kicks has shape (..., steps, d).  With w0 of shape (n,) the result has
    shape (..., steps+1, n).  With w0 of shape (s, n), s starts, every start
    is stepped on the same kicks and the result has shape
    (s, ..., steps+1, n).  The kicks are pushed through B in one product,
    then each step advances the whole block, every start at once.
    """
    kicks = np.asarray(kicks, dtype=float)
    w0 = np.asarray(w0, dtype=float)
    steps, starts = kicks.shape[-2], w0.shape[:-1]
    full = np.empty(starts + kicks.shape[:-2] + (steps + 1, M.shape[0]))
    full[..., 0, :] = w0.reshape(starts + (1,) * (kicks.ndim - 2) + w0.shape[-1:])
    np.matmul(kicks, B.T, out=full[(0,) * len(starts)][..., 1:, :])
    states = full
    if starts:   # copy the pushed kicks to every start; step all starts in one product
        full[1:, ..., 1:, :] = full[0, ..., 1:, :]
        states = full.reshape((-1,) + full.shape[-2:])
    MT = M.T
    for k in range(steps):
        states[..., k + 1, :] += states[..., k, :] @ MT
    return full


def controlled_states(step, pi, w0, kicks, kick_map=None) -> np.ndarray:
    """``propagate`` for the controlled chain: ambient states, stepped by T in X_sigma.

    w0 is one start (n,) or several (s, n) that share the kicks.
    ``kick_map`` is U^T Pi; it is formed here unless the caller passes it.
    Raises ValueError unless every start lies in X_sigma:
    ||D^T w0|| < 1e-10 max(1, ||w0||).
    """
    w0 = np.asarray(w0, dtype=float)
    D, U = pi.dichotomy.D, step.U
    if D.size and np.any(np.linalg.norm(w0 @ D, axis=-1)
                         >= 1e-10 * np.maximum(1.0, np.linalg.norm(w0, axis=-1))):
        raise ValueError("w0 must lie in X_sigma (adjoint residual too large)")
    if kick_map is None:
        kick_map = U.T @ pi.Pi_mat
    c = propagate(step.T, kick_map, w0 @ U, kicks)
    del kicks   # run_ensemble passes its kicks inline: free them before w = U c
    return c @ U.T


def run_chain(step, pi, law, w0, n_steps, seed) -> np.ndarray:
    """States (n_steps+1, n) of one controlled chain from w0 (must lie in X_sigma).

    Its n_steps kicks are one ``sample_kicks`` call on the stream
    SeedSequence(seed).
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return controlled_states(step, pi, w0, sample_kicks(law, rng, n_steps))


def _streams(seed, n_chains):
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return ss.spawn(n_chains)


def run_ensemble(step, pi, law, w0, n_chains, n_steps, seed, kick_map=None) -> np.ndarray:
    """States of n_chains independent trajectories, shape (chains, steps+1, n).

    Chain c draws its n_steps kicks in one ``sample_kicks`` call on a
    private stream: child c of ``seed`` (an int or a SeedSequence, spawned
    into n_chains children), or entry c of ``seed`` when it is a list of
    n_chains SeedSequences, such as one block of a parent's children
    (``ensemble_blocks``).  A chain's kicks therefore do not depend on how
    many chains run beside it, and its first k steps are those of a k-step
    run.  With w0 of shape (s, n) each start is stepped on every chain's
    kicks: the result has shape (s*chains, steps+1, n), and row
    i*chains + c is start i driven by chain c.  All chains are stepped as
    one block; see the module docstring for how the block size can reach
    the last bits of the states.  ``kick_map`` is passed on to
    ``controlled_states``.
    """
    if isinstance(seed, list):
        if len(seed) != n_chains:
            raise ValueError(f"{len(seed)} streams for {n_chains} chains")
        streams = seed
    else:
        streams = _streams(seed, n_chains)
    states = controlled_states(step, pi, w0, np.stack(
        [sample_kicks(law, np.random.default_rng(s), n_steps) for s in streams]), kick_map)
    return states.reshape((-1,) + states.shape[-2:])


def ensemble_blocks(step, pi, law, w0, n_chains, n_steps, seed):
    """The chains of run_ensemble(..., n_chains, n_steps, seed), block by block.

    Splits the children of ``seed`` (an int or a SeedSequence) in chain
    order into the fewest blocks of at most BLOCK_ENTRIES state entries over
    all starts of w0 (at least one chain each), of equal size but for a
    shorter last one, and yields the states of one
    ``run_ensemble`` call per block, up to the roundoff of the step product
    (module docstring): (chains, n_steps+1, n), or (s*chains, n_steps+1, n)
    in start-major rows for s starts.  U^T Pi is formed once, for every block.
    """
    streams = _streams(seed, n_chains)
    starts = 1 if np.ndim(w0) == 1 else len(w0)
    size = max(1, BLOCK_ENTRIES // (starts * (n_steps + 1) * step.U.shape[0]))
    size = -(-n_chains // -(-n_chains // size))   # as many blocks, as even as they can be
    kick_map = step.U.T @ pi.Pi_mat
    for lo in range(0, n_chains, size):
        block = streams[lo:lo + size]
        yield run_ensemble(step, pi, law, w0, len(block), n_steps, block, kick_map=kick_map)


def envelope_bound(n_steps, w0_norm, gamma0, norm_Pi, eps_hat) -> np.ndarray:
    """gamma0^k ||w0|| + ||Pi|| eps_hat / (1 - gamma0) for k = 0..n_steps.

    From w0 = 0 it is the constant stage threshold r0 = ||Pi|| eps_hat / (1 - gamma0).
    """
    return gamma0 ** np.arange(n_steps + 1) * w0_norm + norm_Pi * eps_hat / (1.0 - gamma0)


def envelope_check(norms, w0_norm, gamma0, norm_Pi, eps_hat, tol=1e-9) -> dict:
    """Check ``envelope_bound`` per step; report r0 as ``bound_tail``.

    ``norms`` may be a single trajectory (steps+1,) or an ensemble
    (chains, steps+1).  Violations are reported, never raised.
    """
    norms = np.atleast_2d(np.asarray(norms, dtype=float))
    report = {"certificate_valid": bool(gamma0 < 1.0), "gamma0": float(gamma0)}
    if not report["certificate_valid"]:
        report.update({"n_violations": None, "max_residual": None,
                       "note": "gamma0 >= 1: envelope not applicable"})
        return report
    bound = envelope_bound(norms.shape[1] - 1, w0_norm, gamma0, norm_Pi, eps_hat)
    resid = norms - bound[None, :]
    report["max_residual"] = float(resid.max())
    report["n_violations"] = int(np.sum(resid > tol))
    report["bound_tail"] = float(envelope_bound(0, 0.0, gamma0, norm_Pi, eps_hat)[0])
    return report


def fit_log_growth(norms, tail_frac=0.5) -> float:
    """Least-squares slope of log ||w^k|| over the trailing fraction of steps."""
    norms = np.asarray(norms, dtype=float)
    k0 = int(len(norms) * (1 - tail_frac))
    ks = np.arange(k0, len(norms))
    vals = np.log(np.maximum(norms[k0:], 1e-300))
    slope = np.polyfit(ks, vals, 1)[0]
    return float(slope)


def uncontrolled_demo(model_or_A, tau, law, w0, n_steps, seed):
    """Run the raw process w~^{k+1} = S w~^k + phi^{k+1} with the full, growing
    S = S(tau) = e^{-tau A}.

    Requires S's spectral radius e^{-tau min Re lambda(A)} (the model's cached
    spectrum) above 1; returns the (n_steps+1,) norms ||w~^k|| and their
    fitted per-step growth rate.  Raises BlowupOverflow if a norm overflows.
    """
    if -tau * _eigvals(model_or_A).real.min() <= 0:
        raise NotUnstable("no eigenvalue with negative real part")
    kicks = sample_kicks(law, np.random.default_rng(np.random.SeedSequence(seed)), n_steps)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(propagate(semigroup(model_or_A, tau), np.eye(law.n),
                                         np.asarray(w0, dtype=float), kicks), axis=1)
    if not np.all(np.isfinite(norms)):
        raise BlowupOverflow(f"uncontrolled norms overflow within {n_steps} steps at tau = {tau}")
    return norms, fit_log_growth(norms)


def burn_in_floor(eps_hat, w0_norm, gamma0) -> int:
    """Smallest burn-in with gamma0^k ||w0|| below the kick scale eps_hat."""
    if w0_norm <= eps_hat or w0_norm == 0.0 or not (0 < gamma0 < 1):
        return 0
    return int(np.ceil(np.log(eps_hat / w0_norm) / np.log(gamma0)))
