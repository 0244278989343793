"""Ergodicity hypotheses and conclusions on the assembled reference system."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import solve_discrete_lyapunov
from scipy.stats import norm
from scipy.stats import t as t_dist

import kickstab as ks
import kickstab.chain as kc
import kickstab.kicks as kk
from kickstab.artifacts import canonical_json
from kickstab.chain import run_chain, run_ensemble
from kickstab.ergodicity import (
    condition_check,
    make_observables,
    mixing_decay,
    slln_average,
    stable_state,
    stationary_stats,
)
from kickstab.kicks import make_kick_law
from kickstab.spectral import semigroup
from tests.conftest import REF

MIX_TAU = 0.25


@pytest.fixture(scope="module")
def mix_S(ref_model):
    return semigroup(ref_model, MIX_TAU)


@pytest.fixture(scope="module")
def observables():
    return make_observables(REF["n"], 20, 10, seed=9, radial_scale=0.3)


def fresh_law(ref_kick_matrix, eps=REF["eps_hat"]):
    return make_kick_law(ref_kick_matrix, eps, seed=REF["kick_seed"], norm_samples=0)


def test_observables_certified(observables):
    rng = np.random.default_rng(0)
    for _ in range(1000):
        w1, w2 = rng.standard_normal((2, REF["n"])) * 0.5
        f1, f2 = observables.evaluate(w1), observables.evaluate(w2)
        assert np.all(np.abs(f1) <= 1.0)
        assert np.all(np.abs(f1 - f2) <= np.linalg.norm(w1 - w2) + 1e-12)


def test_condition_check_reference_passes(ref_S, ref_dichotomy, ref_ladder,
                                          ref_pi, ref_kick_matrix):
    law = fresh_law(ref_kick_matrix)
    report = condition_check(ref_dichotomy, ref_ladder, ref_pi, law, ref_S, seed=5)
    assert report["contraction"]["pass"]
    assert report["tail"]["pass"]
    assert report["tv"]["pass"]
    assert report["all_pass"]


def test_condition_check_small_tau_fails_contraction():
    # the reference model's stable restriction is accretive (gamma0 < 1 at
    # every tau), so the small-tau failure is exercised on a toy operator
    # with strong transient growth on X_sigma
    class Toy:
        A = np.array([[0.2, 0.0, 0.0], [0.0, 1.0, 60.0], [0.0, 0.0, 1.2]])
        d = 2

    model = Toy()
    dich = ks.spectral.eig_split(model, 0.5)
    S_small = semigroup(model, 0.01)
    g0_small, ok = ks.spectral.contraction_certificate(dich, S_small)
    assert g0_small >= 1.0 and not ok
    ladder = ks.spectral.sigma_ladder(model, 0.5, 2)
    from kickstab.feedback import build_pi, make_control_geometry
    geo = make_control_geometry(dich, (1, 2), seed=0)
    pi = build_pi(dich, geo)
    law = make_kick_law(np.diag([4e-4, 1e-4, 4e-5]), 0.05, seed=0, norm_samples=0)
    report = condition_check(dich, ladder, pi, law, S_small, tv_pairs=2, seed=5)
    assert not report["contraction"]["pass"]
    assert report["contraction"]["gamma0"] >= 1.0
    assert not report["all_pass"]
    # at a long enough horizon the same system certifies
    g0_big, ok_big = ks.spectral.contraction_certificate(dich, semigroup(model, 8.0))
    assert ok_big and g0_big < 1.0


def test_condition_check_degenerate_law_flagged(ref_S, ref_dichotomy,
                                                ref_ladder, ref_pi, ref_kick_matrix):
    law = fresh_law(ref_kick_matrix, eps=0.0)
    report = condition_check(ref_dichotomy, ref_ladder, ref_pi, law, ref_S, seed=5)
    assert report["tv"]["applicable"] is False
    assert report["tv"]["pass"] is None
    assert "degenerate" in report["tv"]["note"]


def test_mixing_same_start_is_noise(mix_S, ref_pi, ref_kick_matrix, ref_dichotomy,
                                    observables):
    law = fresh_law(ref_kick_matrix)
    w0 = stable_state(ref_dichotomy, 0.5, seed=3)
    root = np.random.SeedSequence(99)
    sA, sB = root.spawn(2)
    from kickstab.ergodicity import _ensemble_obs_means
    mA = _ensemble_obs_means(mix_S, ref_pi, law, w0, 200, 20, sA, observables)
    mB = _ensemble_obs_means(mix_S, ref_pi, law, w0, 200, 20, sB, observables)
    # per-observable MC error of the difference of means
    law2 = fresh_law(ref_kick_matrix)
    states = run_ensemble(mix_S, ref_pi, law2, w0, 200, 20, np.random.SeedSequence(98))
    vals = observables.evaluate(states.reshape(-1, REF["n"])).reshape(200, 21, -1)
    se = np.sqrt(2.0) * vals.std(axis=0, ddof=1) / np.sqrt(200)
    # one z statistic per step k >= 1 and observable (step 0 is the shared
    # start); their max is held to a Bonferroni bound at family-wise level
    # alpha, since the max of 600 uncorrected |z| values exceeds a fixed 3.0
    # for most correct ensembles
    z = (np.abs(mA - mB) / np.maximum(se, 1e-6))[1:]
    alpha = 0.01
    assert z.max() <= norm.ppf(1 - alpha / (2 * z.size))


@pytest.mark.parametrize("rows", [1, 8, 16])
def test_block_size_does_not_change_mixing_or_slln(monkeypatch, mix_S, ref_S, ref_pi,
                                                    ref_law, ref_dichotomy, observables, rows):
    from kickstab.ergodicity import _ensemble_obs_means
    w0 = stable_state(ref_dichotomy, 0.5, seed=3)
    n_chains, n_steps = 48, 20

    def run():
        means = _ensemble_obs_means(mix_S, ref_pi, ref_law, w0, n_chains, n_steps,
                                    np.random.SeedSequence(4), observables)
        return means, slln_average(ref_S, ref_pi, ref_law, w0, 3000, observables, seed=6)

    means, slln = run()
    # blocks of `rows` chains, kick rounds of 3 rows
    monkeypatch.setattr(kc, "BLOCK_ENTRIES", rows * (n_steps + 1) * REF["n"])
    monkeypatch.setattr(kk, "_ROUND_ENTRIES", 3 * REF["n"])
    assert kc.BLOCK_ENTRIES // observables.centers.size < 3001   # several radial blocks
    means_b, slln_b = run()
    assert canonical_json(slln_b) == canonical_json(slln)
    if rows >= 8:
        assert np.array_equal(means_b, means)
    else:
        # one-row step products take BLAS's matrix-vector path
        np.testing.assert_allclose(means_b, means, rtol=1e-12, atol=0)


def test_mixing_deterministic_bound_without_kicks(mix_S, ref_pi, ref_kick_matrix,
                                                  ref_dichotomy, observables):
    law = fresh_law(ref_kick_matrix, eps=0.0)
    g0, _ = ks.spectral.contraction_certificate(ref_dichotomy, mix_S)
    w0a = stable_state(ref_dichotomy, 0.5, seed=3)
    w0b = -w0a
    wa, wb = w0a.copy(), w0b.copy()
    for k in range(1, 15):
        wa, wb = mix_S @ wa, mix_S @ wb
        d_k = np.max(np.abs(observables.evaluate(wa) - observables.evaluate(wb)))
        assert d_k <= g0 ** k * np.linalg.norm(w0a - w0b) + 1e-12


def test_mixing_reference_fit(mix_S, ref_pi, ref_kick_matrix, ref_dichotomy,
                              observables):
    law = fresh_law(ref_kick_matrix)
    w0 = stable_state(ref_dichotomy, 0.5, seed=3)
    rep = mixing_decay(mix_S, ref_pi, law, w0, -w0, 500, 100, observables,
                       seed=21)
    assert rep.conclusive
    assert rep.gamma_fit is not None and rep.gamma_fit < 1.0
    assert rep.r2 > 0.9
    g0, _ = ks.spectral.contraction_certificate(ref_dichotomy, mix_S)
    assert rep.gamma_fit <= g0 + 0.05


def test_mixing_report_bitwise_reproducible(mix_S, ref_pi, ref_kick_matrix,
                                            ref_dichotomy, observables):
    w0 = stable_state(ref_dichotomy, 0.5, seed=3)
    reps = []
    for _ in range(2):
        law = fresh_law(ref_kick_matrix)
        reps.append(mixing_decay(mix_S, ref_pi, law, w0, -w0, 60, 30, observables,
                                 seed=22))
    assert canonical_json(reps[0].to_json_dict()) == canonical_json(reps[1].to_json_dict())


def test_mixing_inconclusive_when_window_short(mix_S, ref_pi, ref_kick_matrix,
                                               ref_dichotomy, observables):
    # identical initial states: every d_k sits at the noise floor
    law = fresh_law(ref_kick_matrix)
    w0 = stable_state(ref_dichotomy, 0.5, seed=3)
    rep = mixing_decay(mix_S, ref_pi, law, w0, w0, 50, 20, observables, seed=23)
    assert not rep.conclusive
    assert rep.gamma_fit is None
    assert "InconclusiveFit" in rep.note


def test_slln_running_averages_converge(ref_S, ref_pi, ref_kick_matrix,
                                        ref_dichotomy, observables):
    law = fresh_law(ref_kick_matrix)
    w0 = stable_state(ref_dichotomy, 0.5, seed=3)
    rep = slln_average(ref_S, ref_pi, law, w0, 100_000, observables, seed=31,
                       checkpoints=(1000, 10_000, 100_000))
    norms = [np.linalg.norm(rep["running_state_mean"][N]) for N in (1000, 10_000, 100_000)]
    assert norms[0] > norms[1] > norms[2]


def test_slln_two_seeds_agree(ref_S, ref_pi, ref_kick_matrix, ref_dichotomy, observables):
    w0 = stable_state(ref_dichotomy, 0.5, seed=3)
    out = []
    for seed in (31, 32):
        law = fresh_law(ref_kick_matrix)
        out.append(slln_average(ref_S, ref_pi, law, w0, 40_000, observables, seed=seed))
    lo = np.maximum(np.array(out[0]["state_ci_low"]), np.array(out[1]["state_ci_low"]))
    hi = np.minimum(np.array(out[0]["state_ci_high"]), np.array(out[1]["state_ci_high"]))
    assert np.all(lo <= hi)


def test_slln_symmetric_law_zero_mean(ref_S, ref_pi, ref_kick_matrix,
                                      ref_dichotomy, observables):
    # chain is invariant under w -> -w, so the stationary mean vanishes;
    # simultaneous (Bonferroni-adjusted) batch intervals must cover zero
    law = fresh_law(ref_kick_matrix)
    w0 = stable_state(ref_dichotomy, 0.5, seed=3)
    from kickstab.ergodicity import _batch_ci
    states = run_chain(ref_S, ref_pi, law, w0, 60_000, 33)
    _, lo, hi = _batch_ci(states[100:], n_batches=30, level=1 - 0.05 / REF["n"])
    assert np.all((lo <= 0) & (0 <= hi))


def test_stationary_stats_reference(ref_S, ref_pi, ref_kick_matrix, ref_dichotomy,
                                    ref_gamma0):
    law = fresh_law(ref_kick_matrix)
    w0 = stable_state(ref_dichotomy, 1.0, seed=3)
    stats = stationary_stats(ref_S, ref_pi, law, w0, 20_000, burn_in=20, seed=41,
                             gamma0=ref_gamma0)
    assert np.linalg.eigvalsh(stats["cov"]).min() >= -1e-10
    post_norm_max = stats["norm_hist_edges"][-1]
    bound = ref_pi.norm_Pi * law.eps_hat / (1 - ref_gamma0) + 1e-9
    assert post_norm_max <= bound
    assert stats["n_post"] == 20_001 - 20


def test_stationary_burn_in_floor_enforced(ref_S, ref_pi, ref_kick_matrix,
                                           ref_dichotomy):
    law = fresh_law(ref_kick_matrix)
    w0 = stable_state(ref_dichotomy, 1.0, seed=3)
    with pytest.raises(ValueError):
        stationary_stats(ref_S, ref_pi, law, w0, 1000, burn_in=0, seed=1, gamma0=0.999)


def test_stationary_covariance_matches_lyapunov(ref_model, ref_S, ref_pi,
                                                ref_kick_matrix, ref_dichotomy):
    # near-untruncated regime: the stationary covariance solves
    # Sigma = T Sigma T^T + Pi K Pi^T
    K = ref_kick_matrix
    eps_big = 10 * np.sqrt(np.trace(ref_pi.Pi_mat @ K @ ref_pi.Pi_mat.T))
    law = make_kick_law(K, eps_big, seed=REF["kick_seed"], norm_samples=0)
    D = ref_dichotomy.D
    T = ref_S @ (np.eye(REF["n"]) - D @ D.T)   # S on X_sigma, zero on span D
    Q = ref_pi.Pi_mat @ K @ ref_pi.Pi_mat.T
    Sigma = solve_discrete_lyapunov(T, Q)
    nrep, nsteps, burn = 24, 600, 40
    states = run_ensemble(ref_S, ref_pi, law, np.zeros(REF["n"]), nrep, nsteps,
                          seed=41)
    covs = np.array([np.cov(states[c, burn:, :].T, ddof=1) for c in range(nrep)])
    cmean = covs.mean(axis=0)
    cse = covs.std(axis=0, ddof=1) / np.sqrt(nrep)
    z = np.abs(cmean - Sigma) / np.maximum(cse, 1e-18)
    # one t statistic (nrep - 1 df) per distinct entry of the symmetric
    # matrix; their max is held to a Bonferroni bound at family-wise level
    # alpha, since the max of many uncorrected |t| values exceeds a fixed
    # 3.0 for most correct chains
    iu = np.triu_indices(REF["n"])
    alpha = 0.01
    assert z[iu].max() <= t_dist.ppf(1 - alpha / (2 * len(iu[0])), nrep - 1)


def energy_distance_test(X, Y, n_permutations=200, seed=0):
    """Two-sample energy-distance permutation test; returns (stat, p_value)."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    Z = np.vstack([X, Y])
    nx = len(X)
    D = np.linalg.norm(Z[:, None, :] - Z[None, :, :], axis=-1)

    def estat(idx):
        a = idx[:nx]
        b = idx[nx:]
        ab = D[np.ix_(a, b)].mean()
        aa = D[np.ix_(a, a)].mean()
        bb = D[np.ix_(b, b)].mean()
        return 2 * ab - aa - bb

    base = np.arange(len(Z))
    stat = estat(base)
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(n_permutations):
        perm = rng.permutation(len(Z))
        if estat(perm) >= stat:
            hits += 1
    p = (hits + 1) / (n_permutations + 1)
    return float(stat), float(p)


def test_stationarity_energy_distance(ref_S, ref_pi, ref_kick_matrix, ref_dichotomy):
    law = fresh_law(ref_kick_matrix)
    w0 = stable_state(ref_dichotomy, 0.5, seed=3)
    states = run_ensemble(ref_S, ref_pi, law, w0, 400, 60, seed=77)
    stat, p = energy_distance_test(states[:200, 40, :], states[:200, 50, :],
                                   n_permutations=200, seed=3)
    assert p > 0.01


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs about 0.8 s and 40 MB at import; no stage needs it
    src = os.path.dirname(os.path.dirname(ks.__file__))
    code = "import sys, kickstab.cli; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


def test_batch_ci_quantile_is_student_t():
    from kickstab.ergodicity import _batch_ci
    series = np.random.default_rng(0).standard_normal((300, 2))
    mean, lo, hi = _batch_ci(series, n_batches=30)
    batches = series.reshape(30, 10, 2).mean(axis=1)
    se = batches.std(axis=0, ddof=1) / np.sqrt(30)
    tq = t_dist.ppf(0.975, 29)
    assert np.array_equal(lo, mean - tq * se)
    assert np.array_equal(hi, mean + tq * se)
    # a 1-D series is one column
    m1, lo1, hi1 = _batch_ci(series[:, 0], n_batches=30)
    assert m1.shape == (1,)
    np.testing.assert_allclose(np.stack([m1, lo1, hi1]), np.stack([mean, lo, hi])[:, :1], rtol=1e-13)
