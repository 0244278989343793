"""Controlled process, envelope certificate, uncontrolled blow-up."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import kickstab as ks
import kickstab.chain as kc
import kickstab.kicks as kk
from kickstab.chain import (
    burn_in_floor,
    controlled_states,
    ensemble_blocks,
    envelope_check,
    fit_log_growth,
    run_chain,
    run_ensemble,
    uncontrolled_demo,
)
from kickstab.errors import NotUnstable
from kickstab.kicks import make_kick_law, sample_kicks
from kickstab.spectral import semigroup
from tests.conftest import REF


def test_step_degenerate_law_is_pure_semigroup(ref_model, ref_step, ref_pi, ref_kick_matrix,
                                               ref_w0):
    law0 = make_kick_law(ref_kick_matrix, 0.0)
    out = run_chain(ref_step, ref_pi, law0, ref_w0, 1, 0)[1]
    expected = semigroup(ref_model, REF["tau"]) @ ref_w0
    assert_allclose(out, expected, rtol=0, atol=1e-13 * np.linalg.norm(expected))


def test_step_stays_in_stable_subspace(ref_step, ref_pi, ref_law, ref_dichotomy, ref_w0):
    states = run_chain(ref_step, ref_pi, ref_law, ref_w0, 20, 1)
    assert np.abs(states @ ref_dichotomy.D).max() < 1e-8


def test_step_deterministic_given_stream_state(ref_step, ref_pi, ref_law, ref_w0):
    # a chain's k-th state depends on its stream's first k kicks only, up to
    # the roundoff of products whose BLAS kernel depends on the step count
    out1 = run_chain(ref_step, ref_pi, ref_law, ref_w0, 1, 7)
    out2 = run_chain(ref_step, ref_pi, ref_law, ref_w0, 1, 7)
    assert np.array_equal(out1, out2)
    assert_allclose(run_chain(ref_step, ref_pi, ref_law, ref_w0, 30, 7)[:2], out1,
                    rtol=1e-12, atol=1e-15)


def test_chain_requires_stable_initial_state(ref_step, ref_pi, ref_law):
    with pytest.raises(ValueError):
        run_chain(ref_step, ref_pi, ref_law, np.ones(REF["n"]), 5, 0)


def test_chain_pure_contraction_without_kicks(ref_step, ref_pi, ref_kick_matrix,
                                              ref_w0, ref_gamma0):
    law0 = make_kick_law(ref_kick_matrix, 0.0)
    norms = np.linalg.norm(run_chain(ref_step, ref_pi, law0, ref_w0, 30, 0), axis=1)
    k = np.arange(31)
    assert np.all(norms <= ref_gamma0 ** k * norms[0] * (1 + 1e-9) + 1e-12)


def test_threshold_formula():
    # r0 = ||Pi|| eps / (1 - gamma0) = 2 * 0.01 / 0.5
    rep = envelope_check(np.zeros((1, 3)), 0.0, 0.5, 2.0, 0.01)
    assert abs(rep["bound_tail"] - 0.04) < 1e-15


def test_chain_determinism(ref_step, ref_pi, ref_law, ref_kick_matrix, ref_w0):
    t1 = run_chain(ref_step, ref_pi, ref_law, ref_w0, 40, 9)
    law2 = make_kick_law(ref_kick_matrix, REF["eps_hat"])
    assert np.array_equal(run_chain(ref_step, ref_pi, law2, ref_w0, 40, 9), t1)


def test_zero_start_stays_below_tail(ref_step, ref_pi, ref_law, ref_gamma0):
    states = run_chain(ref_step, ref_pi, ref_law, np.zeros(REF["n"]), 100, 13)
    tail = ref_pi.norm_Pi * ref_law.eps_hat / (1 - ref_gamma0)
    assert np.all(np.linalg.norm(states, axis=1) <= tail + 1e-9)


def test_envelope_ensemble_zero_violations(ref_step, ref_pi, ref_law, ref_w0, ref_gamma0):
    states = run_ensemble(ref_step, ref_pi, ref_law, ref_w0, 50, 100, seed=3)
    norms = np.linalg.norm(states, axis=2)
    rep = envelope_check(norms, float(np.linalg.norm(ref_w0)), ref_gamma0,
                         ref_pi.norm_Pi, ref_law.eps_hat)
    assert rep["certificate_valid"]
    assert rep["n_violations"] == 0


def test_long_ensemble_stays_in_stable_subspace(ref_step, ref_pi, ref_law, ref_dichotomy,
                                                ref_w0, ref_gamma0):
    # stepped with the raw S, roundoff along the unstable mode grows by
    # e^{0.084} per step: 8e-7 at step 300 and 6e4 at step 599 on this run
    states = run_ensemble(ref_step, ref_pi, ref_law, ref_w0, 24, 600, seed=41)
    assert np.abs(states @ ref_dichotomy.D).max() <= 1e-15
    rep = envelope_check(np.linalg.norm(states, axis=2), float(np.linalg.norm(ref_w0)),
                         ref_gamma0, ref_pi.norm_Pi, ref_law.eps_hat)
    assert rep["n_violations"] == 0


def test_envelope_invalid_certificate_flagged():
    rep = envelope_check(np.ones((2, 5)), 1.0, 1.2, 2.0, 0.01)
    assert not rep["certificate_valid"]
    assert rep["n_violations"] is None


def test_ensemble_stream_contract(ref_step, ref_pi, ref_law, ref_kick_matrix, ref_w0):
    # chain c draws from child c of the seed: a chain does not depend on
    # how many chains run beside it
    s8 = run_ensemble(ref_step, ref_pi, ref_law, ref_w0, 8, 20, seed=5)
    s3 = run_ensemble(ref_step, ref_pi, ref_law, ref_w0, 3, 20, seed=5)
    assert np.array_equal(s8[:3], s3)
    # the law holds no sampling state: one that has drawn kicks gives the
    # same ensemble as a fresh one
    fresh = make_kick_law(ref_kick_matrix, REF["eps_hat"])
    assert np.array_equal(run_ensemble(ref_step, ref_pi, fresh, ref_w0, 8, 20, seed=5), s8)
    # a single chain's kicks are one bulk draw on its seed's stream
    rng = np.random.default_rng(np.random.SeedSequence(9))
    assert np.array_equal(run_chain(ref_step, ref_pi, ref_law, ref_w0, 40, 9),
                          controlled_states(ref_step, ref_pi, ref_w0,
                                            sample_kicks(ref_law, rng, 40)))


@pytest.mark.parametrize("rows", [1, 8, 16])
def test_ensemble_blocks_match_one_block(monkeypatch, ref_step, ref_pi, ref_law, ref_w0, rows):
    # the simulate stage's reduction, per-chain norms, from blocks of `rows`
    # state rows whose kicks are drawn a few rows per round; with two starts
    # a block holds rows // 2 chains, each stepped from both
    n_chains, n_steps = 48, 20
    starts_w0 = (ref_w0, np.stack([ref_w0, -ref_w0]))
    wholes = [np.linalg.norm(run_ensemble(ref_step, ref_pi, ref_law, w0, n_chains, n_steps, 5),
                             axis=2).reshape(-1, n_chains, n_steps + 1) for w0 in starts_w0]
    monkeypatch.setattr(kc, "BLOCK_ENTRIES", rows * (n_steps + 1) * REF["n"])
    monkeypatch.setattr(kk, "_ROUND_ENTRIES", 3 * REF["n"])
    for w0, whole in zip(starts_w0, wholes):
        starts = len(whole)
        blocks = list(ensemble_blocks(ref_step, ref_pi, ref_law, w0, n_chains, n_steps, 5))
        chains = max(1, rows // starts)
        assert [len(b) for b in blocks] == [starts * chains] * (n_chains // chains)
        # start-major rows within each block
        norms = np.concatenate([np.linalg.norm(b, axis=2).reshape(starts, chains, -1)
                                for b in blocks], axis=1)
        if rows >= 8:
            assert np.array_equal(norms, whole)
        else:
            # a one-row step product takes BLAS's matrix-vector path, which rounds differently
            assert_allclose(norms, whole, rtol=1e-12, atol=0)


def test_run_ensemble_takes_a_block_of_streams(ref_step, ref_pi, ref_law, ref_w0):
    streams = np.random.SeedSequence(5).spawn(8)
    part = run_ensemble(ref_step, ref_pi, ref_law, ref_w0, 3, 20, streams[5:])
    whole = run_ensemble(ref_step, ref_pi, ref_law, ref_w0, 8, 20, seed=5)
    assert_allclose(part, whole[5:], rtol=1e-12, atol=1e-15)
    with pytest.raises(ValueError):
        run_ensemble(ref_step, ref_pi, ref_law, ref_w0, 4, 20, streams[5:])


def test_starts_share_kicks(ref_step, ref_pi, ref_law, ref_w0):
    # row i*chains + c is start i on chain c's kicks: each start matches its
    # own ensemble, and the kicks cancel from the difference of two starts
    n_chains, n_steps = 8, 20
    w0_B = 0.3 * ref_w0
    both = run_ensemble(ref_step, ref_pi, ref_law, np.stack([ref_w0, w0_B]), n_chains,
                        n_steps, 5)
    assert both.shape == (2 * n_chains, n_steps + 1, REF["n"])
    for i, w0 in enumerate((ref_w0, w0_B)):
        assert_allclose(both[i * n_chains:(i + 1) * n_chains],
                        run_ensemble(ref_step, ref_pi, ref_law, w0, n_chains, n_steps, 5),
                        rtol=1e-12, atol=1e-15)
    c = (ref_w0 - w0_B) @ ref_step.U
    for k in range(n_steps + 1):
        assert_allclose(both[:n_chains, k] - both[n_chains:, k],
                        np.broadcast_to(ref_step.U @ c, (n_chains, REF["n"])), rtol=0, atol=1e-15)
        c = ref_step.T @ c
    # every start must lie in X_sigma
    outside = ref_pi.dichotomy.D[:, 0]
    with pytest.raises(ValueError):
        run_ensemble(ref_step, ref_pi, ref_law, np.stack([ref_w0, outside]), 2, 3, 5)


def test_uncontrolled_requires_instability(ref_law):
    A = np.diag([1.0, 2.0])
    with pytest.raises(NotUnstable):
        uncontrolled_demo(A, 1.0, ref_law, np.zeros(2), 10, seed=0)


def test_uncontrolled_pure_mode_growth():
    # diagonal model, eigenvalue -1, no kicks: exact growth e^{tau k}
    A = np.diag([-1.0, 2.0])
    law0 = make_kick_law(np.eye(2), 0.0)
    w0 = np.array([1.0, 0.0])
    norms, rate = uncontrolled_demo(A, 0.5, law0, w0, 30, seed=0)
    assert_allclose(norms, np.exp(0.5 * np.arange(31)), rtol=1e-12)
    assert abs(rate - 0.5) < 1e-12


def test_uncontrolled_fitted_rate(ref_model, ref_law, ref_w0):
    _, rate = uncontrolled_demo(ref_model, REF["tau"], ref_law, ref_w0, 100, seed=11)
    expected = -2.0 * np.linalg.eigvals(ref_model.A).real.min()
    assert abs(rate - expected) / expected < 0.10


def test_controlled_vs_uncontrolled_divergence(ref_model, ref_step, ref_pi, ref_law,
                                               ref_kick_matrix, ref_w0):
    law2 = make_kick_law(ref_kick_matrix, REF["eps_hat"])
    norms_u, _ = uncontrolled_demo(ref_model, REF["tau"], ref_law, ref_w0, 100, seed=11)
    states_c = run_chain(ref_step, ref_pi, law2, ref_w0, 100, 11)
    assert norms_u[-1] / np.linalg.norm(states_c[-1]) > 1e3


def test_growth_fit_helper():
    norms = 0.3 * np.exp(0.07 * np.arange(200))
    assert abs(fit_log_growth(norms) - 0.07) < 1e-9


def test_burn_in_floor_values():
    assert burn_in_floor(0.01, 1.0, 0.5) == int(np.ceil(np.log(0.01) / np.log(0.5)))
    assert burn_in_floor(0.01, 0.0, 0.5) == 0
    assert burn_in_floor(0.5, 0.1, 0.5) == 0
