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
from kickstab.errors import BurnInExceedsChain
from kickstab.kicks import make_kick_law
from kickstab.spectral import semigroup, stable_step
from tests.conftest import REF

MIX_TAU = 0.25


@pytest.fixture(scope="module")
def mix_step(ref_model, ref_dichotomy):
    return stable_step(ref_model, ref_dichotomy, MIX_TAU)


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


def test_condition_check_reference_passes(ref_ladder, ref_pi, ref_kick_matrix):
    # the TV hypothesis alone: contraction and the tail gammas are the
    # certificate's, judged by the report
    law = fresh_law(ref_kick_matrix)
    report = condition_check(ref_ladder, ref_pi, law, seed=5)
    assert report["applicable"]
    assert report["pass"] and report["stable_within_2x"]
    assert len(report["ratios"]) == len(report["separations"]) == 12
    assert report["max_ratio"] == max(report["ratios"])
    assert np.all(np.isfinite(report["ratios"]))


def test_condition_check_small_tau_fails_contraction():
    # the reference model's stable restriction is accretive (gamma0 < 1 at
    # every tau), so the small-tau failure is exercised on a toy operator
    # with strong transient growth on X_sigma
    class Toy:
        A = np.array([[0.2, 0.0, 0.0], [0.0, 1.0, 60.0], [0.0, 0.0, 1.2]])
        d = 2

    model = Toy()
    dich = ks.spectral.eig_split(model, 0.5)
    step_small = stable_step(model, dich, 0.01)
    g0_small, ok = ks.spectral.contraction_certificate(step_small)
    assert g0_small >= 1.0 and not ok
    # at a long enough horizon the same system certifies
    g0_big, ok_big = ks.spectral.contraction_certificate(stable_step(model, dich, 8.0))
    assert ok_big and g0_big < 1.0
    # the TV hypothesis takes no step: it reads the kick law projected by Pi
    ladder = ks.spectral.sigma_ladder(model, 0.5, 2)
    from kickstab.feedback import build_pi, make_control_geometry
    geo = make_control_geometry(dich, (1, 2), seed=0)
    pi = build_pi(dich, geo)
    law = make_kick_law(np.diag([4e-4, 1e-4, 4e-5]), 0.05, seed=0, norm_samples=0)
    report = condition_check(ladder, pi, law, tv_pairs=2, seed=5)
    assert set(report) == {"applicable", "separations", "ratios", "max_ratio",
                           "stable_within_2x", "pass"}
    assert report["applicable"] and len(report["ratios"]) == 2


def test_condition_check_degenerate_law_flagged(ref_ladder, ref_pi, ref_kick_matrix):
    law = fresh_law(ref_kick_matrix, eps=0.0)
    report = condition_check(ref_ladder, ref_pi, law, seed=5)
    assert report["applicable"] is False
    assert report["pass"] is None
    assert "degenerate" in report["note"]


def test_mixing_same_start_is_noise(mix_step, ref_pi, ref_kick_matrix, ref_dichotomy,
                                    observables):
    # two ensembles from one start on independent kick streams differ only by
    # Monte-Carlo error
    law = fresh_law(ref_kick_matrix)
    w0 = stable_state(ref_dichotomy, 0.5, seed=3)
    root = np.random.SeedSequence(99)
    sA, sB = root.spawn(2)

    def obs_means(seed_seq):
        states = run_ensemble(mix_step, ref_pi, law, w0, 200, 20, seed_seq)
        return observables.evaluate(states.reshape(-1, REF["n"])).reshape(200, 21, -1).mean(0)

    mA, mB = obs_means(sA), obs_means(sB)
    # per-observable MC error of the difference of means
    law2 = fresh_law(ref_kick_matrix)
    states = run_ensemble(mix_step, ref_pi, law2, w0, 200, 20, np.random.SeedSequence(98))
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
def test_block_size_does_not_change_mixing_or_slln(monkeypatch, mix_step, ref_step, ref_pi,
                                                    ref_law, ref_dichotomy, observables, rows):
    w0 = stable_state(ref_dichotomy, 0.5, seed=3)
    n_chains, n_steps = 48, 20

    def run():
        rep = mixing_decay(mix_step, ref_pi, ref_law, w0, -w0, n_chains, n_steps, observables,
                           seed=4)
        return rep, slln_average(ref_step, ref_pi, ref_law, w0, 3000, observables, seed=6)

    rep, slln = run()
    # blocks of `rows` state rows (rows // 2 chains, two starts each), kick
    # rounds of 3 rows
    monkeypatch.setattr(kc, "BLOCK_ENTRIES", rows * (n_steps + 1) * REF["n"])
    monkeypatch.setattr(kk, "_ROUND_ENTRIES", 3 * REF["n"])
    assert kc.BLOCK_ENTRIES // observables.centers.size < 3001   # several radial blocks
    rep_b, slln_b = run()
    assert canonical_json(slln_b) == canonical_json(slln)
    if rows >= 8:
        assert canonical_json(rep_b.to_json_dict()) == canonical_json(rep.to_json_dict())
    else:
        # one-chain blocks: the step product of two rows rounds differently
        for name in ("d_k", "se_k", "b_k"):
            np.testing.assert_allclose(getattr(rep_b, name), getattr(rep, name),
                                       rtol=1e-9, atol=1e-15)
        assert rep_b.window == rep.window


def test_mixing_deterministic_bound_without_kicks(ref_model, mix_step, ref_pi,
                                                  ref_kick_matrix, ref_dichotomy, observables):
    # gamma0 of the X_sigma step bounds the full S(tau) on X_sigma
    law = fresh_law(ref_kick_matrix, eps=0.0)
    g0, _ = ks.spectral.contraction_certificate(mix_step)
    S = semigroup(ref_model, MIX_TAU)
    w0a = stable_state(ref_dichotomy, 0.5, seed=3)
    w0b = -w0a
    wa, wb = w0a.copy(), w0b.copy()
    for k in range(1, 15):
        wa, wb = S @ wa, S @ wb
        d_k = np.max(np.abs(observables.evaluate(wa) - observables.evaluate(wb)))
        assert d_k <= g0 ** k * np.linalg.norm(w0a - w0b) + 1e-12


def test_mixing_reference_fit(mix_step, ref_pi, ref_kick_matrix, ref_dichotomy,
                              observables):
    law = fresh_law(ref_kick_matrix)
    w0 = stable_state(ref_dichotomy, 0.5, seed=3)
    rep = mixing_decay(mix_step, ref_pi, law, w0, -w0, 500, 100, observables,
                       seed=21)
    assert rep.conclusive
    assert rep.gamma_fit is not None and rep.gamma_fit < 1.0
    assert rep.r2 > 0.9
    g0, _ = ks.spectral.contraction_certificate(mix_step)
    assert rep.gamma_fit <= g0 + 0.05


def test_mixing_report_bitwise_reproducible(mix_step, ref_pi, ref_kick_matrix,
                                            ref_dichotomy, observables):
    w0 = stable_state(ref_dichotomy, 0.5, seed=3)
    reps = []
    for _ in range(2):
        law = fresh_law(ref_kick_matrix)
        reps.append(mixing_decay(mix_step, ref_pi, law, w0, -w0, 60, 30, observables,
                                 seed=22))
    assert canonical_json(reps[0].to_json_dict()) == canonical_json(reps[1].to_json_dict())


def test_mixing_inconclusive_when_window_short(mix_step, ref_pi, ref_kick_matrix,
                                               ref_dichotomy, observables):
    # identical starts on shared kicks are the same chain: every difference,
    # and so every d_k and its standard error, is exactly 0
    law = fresh_law(ref_kick_matrix)
    w0 = stable_state(ref_dichotomy, 0.5, seed=3)
    rep = mixing_decay(mix_step, ref_pi, law, w0, w0, 50, 20, observables, seed=23)
    assert np.all(rep.d_k == 0.0) and np.all(rep.se_k == 0.0) and np.all(rep.b_k == 0.0)
    assert rep.window == (2, 1)
    assert not rep.conclusive
    assert rep.gamma_fit is None
    assert "InconclusiveFit" in rep.note


def _coupling_excess(rep):
    # the report's mixing_coupling_bound predicate is excess <= 1e-12 b_0
    return float(np.max(rep.d_k - rep.b_k)) - 1e-12 * rep.b_k[0]


@pytest.mark.parametrize("scale", [1.0, 1.5])
def test_mixing_coupling_bound_has_power(monkeypatch, mix_step, ref_pi, ref_kick_matrix,
                                         ref_dichotomy, observables, scale):
    # a kernel that steps with 1.5 M still mixes, so the fit passes, but its
    # chains separate faster than the true step T allows
    propagate = kc.propagate
    monkeypatch.setattr(kc, "propagate",
                        lambda M, B, w0, kicks: propagate(scale * M, B, w0, kicks))
    law = fresh_law(ref_kick_matrix)
    w0 = stable_state(ref_dichotomy, 0.5, seed=3)
    rep = mixing_decay(mix_step, ref_pi, law, w0, -w0, 100, 60, observables, seed=12)
    assert rep.conclusive and rep.gamma_fit < 1.0          # mixing_fit passes
    assert (_coupling_excess(rep) > 0.0) == (scale != 1.0)  # mixing_coupling_bound


def test_mixing_linear_observables_exact(mix_step, ref_pi, ref_kick_matrix, ref_dichotomy):
    # with no clipping, each chain's difference <u, w_A - w_B> is exactly
    # <u, U T^k (c_A - c_B)>: the kicks cancel
    linear = make_observables(REF["n"], 20, 0, seed=9)
    law = fresh_law(ref_kick_matrix)
    w0 = stable_state(ref_dichotomy, 0.5, seed=3)
    n_chains, n_steps = 100, 60
    rep = mixing_decay(mix_step, ref_pi, law, w0, -w0, n_chains, n_steps, linear, seed=12)
    states = run_ensemble(mix_step, ref_pi, law, np.stack([w0, -w0]), n_chains, n_steps, 12)
    assert np.max(np.abs(states @ linear.U.T)) < 1.0   # no observable clips
    c, exact = (2 * w0) @ mix_step.U, np.empty(n_steps + 1)
    for k in range(n_steps + 1):
        exact[k] = np.max(np.abs(linear.U @ (mix_step.U @ c)))
        c = mix_step.T @ c
    assert np.max(np.abs(rep.d_k - exact)) <= 1e-12 * rep.b_k[0]
    assert np.all(rep.se_k < 1e-12)
    # b_k is ||U T^k (c_A - c_B)||: 2 ||w0|| at k = 0, contracting by gamma0 per step
    assert rep.b_k[0] == pytest.approx(np.linalg.norm(2 * w0), rel=1e-14)
    g0, _ = ks.spectral.contraction_certificate(mix_step)
    assert np.all(rep.b_k[1:] <= g0 * rep.b_k[:-1] * (1 + 1e-12))


@pytest.mark.parametrize("seed_override", [11, 25, 101])
def test_mixing_fit_does_not_depend_on_the_frame_of_w0(tmp_path, seed_override):
    # w0's coefficients drawn in the Schur frame Z[:, m:] of X_sigma, not in
    # stable_basis; under the former noise-floor window the fit was inconclusive here
    from kickstab.cli import Pipeline
    from kickstab.config import config_from_dict
    from kickstab.spectral import _ordered_schur

    pipe = Pipeline(config_from_dict({"kick": {"eps_hat": 0.01}}), str(tmp_path),
                    seed_override=seed_override)
    cfg, mix = pipe.cfg, pipe.cfg.mixing
    _, Z, (m,) = _ordered_schur(pipe.model(), [cfg.model.sigma])
    frame = Z[:, m:]
    rng = np.random.default_rng(np.random.SeedSequence(cfg.run.w0_seed, spawn_key=(7,)))
    v = frame @ rng.standard_normal(frame.shape[1])
    w0 = mix.w0_scale * v / np.linalg.norm(v)
    step = pipe.step(mix.tau)
    obs = make_observables(cfg.model.n, mix.n_linear, mix.n_radial, seed=mix.obs_seed,
                           radial_scale=mix.radial_scale)
    rep = mixing_decay(step, pipe.controller(), pipe.law(), w0, -w0, mix.n_chains,
                       mix.n_steps, obs, mix.seed)
    assert rep.conclusive and rep.gamma_fit < 1.0    # mixing_fit passes
    assert _coupling_excess(rep) <= 0.0
    # the fit starts at k = 2, where this start's faster modes still pull
    # d_k down: gamma_fit reads 0.475 against rho = 0.490 at these seeds
    rho = np.max(np.abs(np.linalg.eigvals(step.T)))
    assert abs(rep.gamma_fit - rho) < 0.025


def test_slln_running_averages_converge(ref_step, ref_pi, ref_kick_matrix,
                                        ref_dichotomy, observables):
    law = fresh_law(ref_kick_matrix)
    w0 = stable_state(ref_dichotomy, 0.5, seed=3)
    rep = slln_average(ref_step, ref_pi, law, w0, 100_000, observables, seed=31,
                       checkpoints=(1000, 10_000, 100_000))
    norms = [np.linalg.norm(rep["running_state_mean"][N]) for N in (1000, 10_000, 100_000)]
    assert norms[0] > norms[1] > norms[2]


def test_slln_two_seeds_agree(ref_step, ref_pi, ref_kick_matrix, ref_dichotomy, observables):
    w0 = stable_state(ref_dichotomy, 0.5, seed=3)
    out = []
    for seed in (31, 32):
        law = fresh_law(ref_kick_matrix)
        out.append(slln_average(ref_step, ref_pi, law, w0, 40_000, observables, seed=seed))
    lo = np.maximum(np.array(out[0]["state_ci_low"]), np.array(out[1]["state_ci_low"]))
    hi = np.minimum(np.array(out[0]["state_ci_high"]), np.array(out[1]["state_ci_high"]))
    assert np.all(lo <= hi)


def test_slln_symmetric_law_zero_mean(ref_step, ref_pi, ref_kick_matrix,
                                      ref_dichotomy, observables):
    # chain is invariant under w -> -w, so the stationary mean vanishes;
    # simultaneous (Bonferroni-adjusted) batch intervals must cover zero
    law = fresh_law(ref_kick_matrix)
    w0 = stable_state(ref_dichotomy, 0.5, seed=3)
    from kickstab.ergodicity import _batch_ci
    states = run_chain(ref_step, ref_pi, law, w0, 60_000, 33)
    _, lo, hi = _batch_ci(states[100:], n_batches=30, level=1 - 0.05 / REF["n"])
    assert np.all((lo <= 0) & (0 <= hi))


def test_stationary_stats_reference(ref_step, ref_pi, ref_kick_matrix, ref_dichotomy,
                                    ref_gamma0):
    law = fresh_law(ref_kick_matrix)
    w0 = stable_state(ref_dichotomy, 1.0, seed=3)
    stats = stationary_stats(ref_step, ref_pi, law, w0, 20_000, burn_in=20, seed=41,
                             gamma0=ref_gamma0)
    assert np.linalg.eigvalsh(stats["cov"]).min() >= -1e-10
    post_norm_max = stats["norm_hist_edges"][-1]
    bound = ref_pi.norm_Pi * law.eps_hat / (1 - ref_gamma0) + 1e-9
    assert post_norm_max <= bound
    assert stats["n_post"] == 20_001 - 20


def test_stationary_burn_in_floor_enforced(ref_step, ref_pi, ref_kick_matrix,
                                           ref_dichotomy):
    law = fresh_law(ref_kick_matrix)
    w0 = stable_state(ref_dichotomy, 1.0, seed=3)
    with pytest.raises(ValueError):
        stationary_stats(ref_step, ref_pi, law, w0, 1000, burn_in=0, seed=1, gamma0=0.999)
    # run.tau = 1e-9 put the transient floor at 1.4e9 steps: a burn-in that
    # long left no state, and eigvalsh failed on the empty covariance
    for burn_in in (200, 1_408_278_407):
        with pytest.raises(BurnInExceedsChain, match=f"burn_in {burn_in} .* 200-step"):
            stationary_stats(ref_step, ref_pi, law, w0, 200, burn_in=burn_in, seed=1)
    stats = stationary_stats(ref_step, ref_pi, law, w0, 200, burn_in=199, seed=1)
    assert stats["n_post"] == 2 and np.all(np.isfinite(stats["cov"]))


def test_stationary_covariance_matches_lyapunov(ref_model, ref_step, ref_pi,
                                                ref_kick_matrix, ref_dichotomy):
    # near-untruncated regime: the stationary covariance solves
    # Sigma = T Sigma T^T + Pi K Pi^T
    K = ref_kick_matrix
    eps_big = 10 * np.sqrt(np.trace(ref_pi.Pi_mat @ K @ ref_pi.Pi_mat.T))
    law = make_kick_law(K, eps_big, seed=REF["kick_seed"], norm_samples=0)
    D = ref_dichotomy.D
    # S on X_sigma, zero on span D
    T = semigroup(ref_model, REF["tau"]) @ (np.eye(REF["n"]) - D @ D.T)
    Q = ref_pi.Pi_mat @ K @ ref_pi.Pi_mat.T
    Sigma = solve_discrete_lyapunov(T, Q)
    nrep, nsteps, burn = 24, 600, 40
    states = run_ensemble(ref_step, ref_pi, law, np.zeros(REF["n"]), nrep, nsteps,
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


def test_stationarity_energy_distance(ref_step, ref_pi, ref_kick_matrix, ref_dichotomy):
    law = fresh_law(ref_kick_matrix)
    w0 = stable_state(ref_dichotomy, 0.5, seed=3)
    states = run_ensemble(ref_step, ref_pi, law, w0, 400, 60, seed=77)
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
