"""Model construction: spectrum law, relative bound, unstable count."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import kickstab as ks
from kickstab.artifacts import canonical_json, hash_arrays
from kickstab.errors import ConstructionFailed
from kickstab.model_builder import build_oseen, synth_stokes_spectrum
from tests.conftest import REF


def test_zero_remainder_d2_gives_integers():
    spec = synth_stokes_spectrum(4, 2, 1.0, 0.0, seed=0)
    assert_allclose(spec.mu, [1.0, 2.0, 3.0, 4.0])


def test_zero_remainder_d3_leading_term():
    spec = synth_stokes_spectrum(3, 3, 2.0, 0.0, seed=0)
    assert_allclose(spec.mu, [2.0, 2 * 2 ** (2 / 3), 2 * 3 ** (2 / 3)])


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_synth_output_sorted_and_in_envelope(seed):
    spec = synth_stokes_spectrum(30, 2, 1.3, 0.9, seed=seed)
    assert np.all(np.diff(spec.mu) >= 0)
    j = np.arange(1, 31)
    bound = 0.9 * j / np.log(j + 2)
    assert np.all(np.abs(spec.mu - 1.3 * j) <= bound + 1e-12)


def test_synth_deterministic():
    a = synth_stokes_spectrum(12, 3, 0.7, 0.5, seed=42)
    b = synth_stokes_spectrum(12, 3, 0.7, 0.5, seed=42)
    assert np.array_equal(a.mu, b.mu)


def test_build_b_zero_is_stokes_diagonal():
    spec = synth_stokes_spectrum(6, 2, 1.0, 0.0, seed=1)
    model = build_oseen(spec, 0.0, 0, 0.5, obs_idx=(3, 4, 5), seed=5)
    assert_allclose(model.A, np.diag(spec.mu))
    ev = np.sort(np.linalg.eigvals(model.A).real)
    assert_allclose(ev, spec.mu, atol=1e-10)


def test_build_realizes_one_unstable_eigenvalue():
    spec = synth_stokes_spectrum(6, 2, 0.35, 0.0, seed=1)
    model = build_oseen(spec, 0.5, 1, 0.5, obs_idx=(3, 4, 5), seed=2)
    ev = np.linalg.eigvals(model.A)
    assert int(np.sum(ev.real < 0.5)) == 1
    assert np.all(np.isreal(model.A))


def test_build_relative_bound_exact():
    spec = synth_stokes_spectrum(8, 2, 0.9, 0.3, seed=3)
    model = build_oseen(spec, 0.7, 0, 0.4, obs_idx=(4, 5, 6, 7), seed=9)
    # independent computation through singular values
    A1 = model.A - np.diag(spec.mu)
    recomputed = np.linalg.svd(A1 @ np.diag(spec.mu ** -0.5), compute_uv=False)[0]
    assert abs(recomputed - 0.7) < 1e-10
    assert abs(model.relative_bound_b - recomputed) < 1e-10


def test_build_reports_attempts_on_failure():
    spec = synth_stokes_spectrum(5, 2, 2.0, 0.0, seed=0)
    # smallest eigenvalue 2.0 cannot be pushed below 0.1 with b = 0.1
    with pytest.raises(ConstructionFailed) as exc:
        build_oseen(spec, 0.1, 1, 0.1, obs_idx=(3, 4), seed=0, max_attempts=2)
    # each attempt stops after its last weight rejects: one eigensolve apiece
    assert exc.value.attempts == 2


def test_eigenvalues_conjugate_or_real(ref_model):
    ev = np.linalg.eigvals(ref_model.A)
    complex_ev = ev[np.abs(ev.imag) > 1e-9]
    for lam in complex_ev:
        assert np.min(np.abs(complex_ev - np.conj(lam))) < 1e-8


def test_rebuild_same_seed_bitwise(ref_spectrum, ref_model):
    again = build_oseen(ref_spectrum, 0.5, 1, 0.0, tuple(range(10, 20)), 0, gap_tol=0.04)
    assert np.array_equal(again.A, ref_model.A)
    assert again.spectrum_cache == ref_model.spectrum_cache


def test_spectrum_cache_matches_dense_eigensolve(ref_model):
    ev = np.sort_complex(np.linalg.eigvals(ref_model.A))
    cached = np.sort_complex(ref_model.eigvals())
    assert np.max(np.abs(ev - cached)) < 1e-8


def test_json_roundtrip(ref_spectrum, ref_model):
    # model.json records the operator by checksum: the hash of A, and the hash
    # of a rebuild from the same inputs, read back from the written document
    doc = json.loads(canonical_json(ref_model.to_json_dict()))
    assert "A" not in doc
    assert doc["n"] == ref_model.n
    assert doc["A_sha256"] == hash_arrays(ref_model.A)
    again = build_oseen(ref_spectrum, REF["b"], REF["n_unstable"], REF["build_sigma"],
                        REF["obs_idx"], REF["build_seed"], gap_tol=REF["build_gap_tol"])
    assert hash_arrays(again.A) == doc["A_sha256"]
    assert np.array_equal(np.array(doc["mu"]), ref_model.mu)
    assert tuple(doc["obs_idx"]) == ref_model.obs_idx
    assert (doc["seed"], doc["spectrum_seed"]) == (ref_model.seed, ref_model.spectrum.seed)


# -- bisection over the blend-weight grid ------------------------------------------

def _attempt_grids(spec, b, n_unstable, sigma, seed, gap_tol, max_attempts=8, n_weights=41):
    """Reference: per attempt, (A1, ev, accepts) at every grid weight, built as build_oseen builds them."""
    n = spec.n
    A0h = np.diag(np.sqrt(spec.mu))
    shift = np.zeros((n, n))
    shift[:n_unstable, :n_unstable] = -np.eye(n_unstable)
    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        B = rng.standard_normal((n, n))
        B /= np.linalg.svd(B, compute_uv=False)[0]
        grid = []
        for w in np.linspace(0.0, 1.0, n_weights):
            M = (1.0 - w) * B + w * shift
            A1 = (b / np.linalg.svd(M, compute_uv=False)[0]) * M @ A0h
            ev = np.linalg.eigvals(np.diag(spec.mu) + A1)
            ok = int(np.sum(ev.real < sigma)) == n_unstable and np.min(np.abs(ev.real - sigma)) > gap_tol
            grid.append((A1, ev, ok))
        yield grid


def _build_counting_eigvals(monkeypatch, spec, b, n_unstable, sigma, seed, gap_tol):
    """build_oseen's model (None on ConstructionFailed) and the eigensolves it ran."""
    calls = []
    real = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape) or real(a))
    try:
        model = build_oseen(spec, b, n_unstable, sigma, (spec.n - 1,), seed, gap_tol=gap_tol)
    except ConstructionFailed:
        model = None
    finally:
        monkeypatch.undo()
    return model, len(calls)


_MAX_SOLVES = int(np.ceil(np.log2(41))) + 1  # 7 eigensolves per accepting attempt


@pytest.mark.parametrize("n,d,spectrum_seed,b,n_unstable,seed", [
    (20, 2, 34, 0.5, 1, 0),       # the default model
    (20, 2, 18, 2.0, 2, 0),       # the density-m2 model
    (150, 2, 34, 0.5, 1, 0),
    *[(24, 2, 30 + s, b, k, s) for s in (0, 1, 2) for b in (1.5, 3.0) for k in (1, 2, 3)],
])
def test_bisection_matches_linear_scan(monkeypatch, n, d, spectrum_seed, b, n_unstable, seed):
    spec = synth_stokes_spectrum(n, d, 1.05, 1.1, spectrum_seed)
    model, solves = _build_counting_eigvals(monkeypatch, spec, b, n_unstable, 0.0, seed, 0.04)
    ref = None
    for attempt, grid in enumerate(_attempt_grids(spec, b, n_unstable, 0.0, seed, 0.04)):
        k = next((k for k, (_, _, ok) in enumerate(grid) if ok), None)
        if k is not None:
            ref = attempt, grid[k]
            break
    if ref is None:
        assert model is None
        return
    attempt, (A1, ev, _) = ref
    # the same grid weight: A and its cached spectrum are identical bit for bit
    assert np.array_equal(model.A, np.diag(spec.mu) + A1)
    assert model.spectrum_cache == ks.model_builder._spectrum_cache(ev)
    # every earlier attempt rejected its last weight with one eigensolve
    assert solves <= attempt + _MAX_SOLVES


def test_bisection_non_monotone_acceptance(monkeypatch):
    spec = synth_stokes_spectrum(40, 3, 1.05, 1.1, 34)
    model, solves = _build_counting_eigvals(monkeypatch, spec, 6.0, 2, 0.0, 0, 0.04)
    for attempt, grid in enumerate(_attempt_grids(spec, 6.0, 2, 0.0, 0, 0.04)):
        hit = [k for k, (A1, _, _) in enumerate(grid) if np.array_equal(np.diag(spec.mu) + A1, model.A)]
        if hit:
            break
    assert hit
    ok = [acc for _, _, acc in grid]
    k = hit[0]
    # acceptance on this grid is not monotone: some weight accepts before a rejecting one
    assert any(ok[i] and not ok[j] for i in range(len(ok)) for j in range(i + 1, len(ok)))
    assert ok[k] and k > 0 and not ok[k - 1]
    assert solves <= attempt + _MAX_SOLVES
