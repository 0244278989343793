"""Shared fixtures (the reference model and its assembled components) and
the support-ellipsoid reference shared by the kick and density tests.

Reference configuration (n = 20, d = 2, one unstable eigenvalue, sigma = 0.5,
b = 0.5, eps_hat = 0.01, K following the j^-2 trace-class pattern scaled so
rejection sampling stays feasible).  The spectrum/build seeds are frozen;
the model has exactly one eigenvalue with negative real part (~ -0.042) so
the uncontrolled process genuinely blows up.
"""

import numpy as np
import pytest

import kickstab as ks
from kickstab import ergodicity as erg
from kickstab import feedback as fb

REF = {
    "n": 20,
    "d": 2,
    "beta0": 1.05,
    "remainder_scale": 1.1,
    "spectrum_seed": 34,
    "b": 0.5,
    "n_unstable": 1,
    "build_sigma": 0.0,
    "build_gap_tol": 0.04,
    "sigma": 0.5,
    "obs_idx": tuple(range(10, 20)),
    "build_seed": 0,
    "eps_hat": 0.01,
    "kick_seed": 7,
    "tau": 2.0,
}


def support_ellipsoid_membership(alpha_op, eps_hat, x) -> bool:
    """Membership of x in the pushforward support ellipsoid, by its definition.

    Reference for ``density.slice_geometry`` and
    ``PiDecomposition.support_quadform``.  alpha_op maps the unstable block
    to the target block; x is a member when the minimal preimage norm
    ||x - A y_hat||^2 + ||y_hat||^2, with y_hat = (A^T A + I)^{-1} A^T x,
    does not exceed eps_hat^2 (boundary points count as members).
    """
    A = np.asarray(alpha_op, dtype=float)
    x = np.asarray(x, dtype=float)
    if A.size == 0 or np.all(A == 0.0):
        return float(x @ x) <= eps_hat ** 2
    yhat = np.linalg.solve(A.T @ A + np.eye(A.shape[1]), A.T @ x)
    resid = x - A @ yhat
    return float(resid @ resid + yhat @ yhat) <= eps_hat ** 2


@pytest.fixture(scope="session")
def ref_spectrum():
    return ks.model_builder.synth_stokes_spectrum(
        REF["n"], REF["d"], REF["beta0"], REF["remainder_scale"], REF["spectrum_seed"])


@pytest.fixture(scope="session")
def ref_model(ref_spectrum):
    return ks.model_builder.build_oseen(
        ref_spectrum, REF["b"], REF["n_unstable"], REF["build_sigma"],
        REF["obs_idx"], REF["build_seed"], gap_tol=REF["build_gap_tol"])


@pytest.fixture(scope="session")
def ref_dichotomy(ref_model):
    return ks.spectral.eig_split(ref_model, REF["sigma"])


@pytest.fixture(scope="session")
def ref_pi(ref_dichotomy):
    geo = fb.make_control_geometry(ref_dichotomy, REF["obs_idx"], seed=1)
    return fb.build_pi(ref_dichotomy, geo)


@pytest.fixture(scope="session")
def ref_kick_matrix():
    j = np.arange(1, REF["n"] + 1, dtype=float)
    return np.diag((REF["eps_hat"] ** 2 / np.sum(j ** -2.0)) * j ** -2.0)


@pytest.fixture()
def ref_law(ref_kick_matrix):
    # norm_samples=0: no test that uses it reads the lazy ball-mass estimate
    return ks.kicks.make_kick_law(ref_kick_matrix, REF["eps_hat"], seed=REF["kick_seed"],
                                  norm_samples=0)


@pytest.fixture(scope="session")
def ref_S(ref_model):
    return ks.spectral.semigroup(ref_model, REF["tau"])


@pytest.fixture(scope="session")
def ref_gamma0(ref_dichotomy, ref_S):
    g0, ok = ks.spectral.contraction_certificate(ref_dichotomy, ref_S)
    assert ok
    return g0


@pytest.fixture(scope="session")
def ref_ladder(ref_model):
    return ks.spectral.sigma_ladder(ref_model, REF["sigma"], 3)


@pytest.fixture(scope="session")
def ref_w0(ref_dichotomy):
    return erg.stable_state(ref_dichotomy, scale=1.0, seed=3)
