"""Feedback projection against the Gram system.

Pi is applied as the assembled matrix ``Pi_mat``, which is what the chain
steps with (``chain.controlled_states``).
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kickstab.errors import SingularGram
from kickstab.feedback import ControlGeometry, build_pi, make_control_geometry


class TinyDich:
    """Two-dimensional instance: d1 = (1,1)/sqrt(2), X_sigma = span{(1,-1)}."""

    D = np.array([[1.0], [1.0]]) / np.sqrt(2)


def tiny_geometry(g=np.array([[0.0], [1.0]])):
    d = TinyDich()
    M = d.D.T @ g
    return d, ControlGeometry(obs_idx=(0,), G_mat=g, M=M, cond_M=float(np.linalg.cond(M)))


def test_hand_solved_projection():
    # c = -<d, phi>/<d, g> = -1, so Pi(1,0) = (1,0) - (0,1) = (1,-1)
    d, geo = tiny_geometry()
    pi = build_pi(d, geo)
    assert_allclose(pi.Pi_mat @ [1.0, 0.0], [1.0, -1.0], atol=1e-14)


def test_hand_solved_extension_matches():
    # the extension of observable data v0 = 1 is Pi of its zero lift (1, 0)
    d, geo = tiny_geometry()
    ext = build_pi(d, geo).Pi_mat @ [1.0, 0.0]
    assert_allclose(ext, [1.0, -1.0], atol=1e-14)
    assert ext[0] == 1.0


def test_orthogonal_direction_singular_gram():
    d, geo = tiny_geometry(g=np.array([[1.0], [-1.0]]))  # g orthogonal to d1
    with pytest.raises(SingularGram):
        build_pi(d, geo)


def test_identity_on_stable_subspace(ref_dichotomy, ref_pi):
    rng = np.random.default_rng(2)
    U = ref_dichotomy.stable_basis
    for _ in range(20):
        v = U @ (U.T @ rng.standard_normal(ref_pi.n))
        assert np.linalg.norm(ref_pi.Pi_mat @ v - v) < 1e-10 * max(1, np.linalg.norm(v))


def test_observable_coordinates_untouched(ref_pi):
    rng = np.random.default_rng(3)
    obs = list(ref_pi.geometry.obs_idx)
    for _ in range(20):
        phi = rng.standard_normal(ref_pi.n)
        out = ref_pi.Pi_mat @ phi
        assert np.array_equal(out[obs], phi[obs])


def test_idempotent_and_range(ref_dichotomy, ref_pi):
    rng = np.random.default_rng(4)
    assert np.linalg.norm(ref_pi.Pi_mat @ ref_pi.Pi_mat - ref_pi.Pi_mat) < 1e-10
    assert np.linalg.norm(ref_dichotomy.D.T @ ref_pi.Pi_mat) < 1e-10
    phi = rng.standard_normal(ref_pi.n)
    once = ref_pi.Pi_mat @ phi
    assert np.linalg.norm(ref_pi.Pi_mat @ once - once) < 1e-12
    assert_allclose(ref_pi.Pi_mat @ np.zeros(ref_pi.n), np.zeros(ref_pi.n))


def test_linearity(ref_pi):
    rng = np.random.default_rng(5)
    phi, psi = rng.standard_normal((2, ref_pi.n))
    a, b = 0.7, -1.3
    lhs = ref_pi.Pi_mat @ (a * phi + b * psi)
    rhs = a * (ref_pi.Pi_mat @ phi) + b * (ref_pi.Pi_mat @ psi)
    assert np.linalg.norm(lhs - rhs) < 1e-12


def test_norm_matches_randomized_oracle(ref_pi):
    rng = np.random.default_rng(6)
    best = 0.0
    for _ in range(10_000):
        phi = rng.standard_normal(ref_pi.n)
        phi /= np.linalg.norm(phi)
        best = max(best, np.linalg.norm(ref_pi.Pi_mat @ phi))
    assert best <= ref_pi.norm_Pi * (1 + 1e-12)
    assert best >= ref_pi.norm_Pi * 0.99


def test_extension_lands_in_stable_subspace(ref_dichotomy, ref_pi):
    # Pi of the zero lift of observable data keeps the data and lands in X_sigma
    rng = np.random.default_rng(7)
    obs = list(ref_pi.geometry.obs_idx)
    for _ in range(10):
        v0 = rng.standard_normal(len(obs))
        lift = np.zeros(ref_pi.n)
        lift[obs] = v0
        ext = ref_pi.Pi_mat @ lift
        assert np.linalg.norm(ref_dichotomy.D.T @ ext) < 1e-10
        assert np.array_equal(ext[obs], v0)


def test_geometry_all_observable_is_singular(ref_dichotomy):
    # with every coordinate observable the control directions must vanish
    # identically, so no Gram system can be invertible
    with pytest.raises(SingularGram):
        make_control_geometry(ref_dichotomy, tuple(range(20)), seed=0, max_retries=2)


def test_default_geometry_well_conditioned(ref_pi):
    assert ref_pi.geometry.cond_M < 1e3
    mask = np.zeros(ref_pi.n, dtype=bool)
    mask[list(ref_pi.geometry.obs_idx)] = True
    assert np.all(ref_pi.geometry.G_mat[mask] == 0.0)
