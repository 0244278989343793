"""Config loading/validation and the staged pipeline runner."""

import json
import math
import os
import shutil
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kickstab.artifacts import emit_series, file_checksum, write_json
from kickstab.cli import Pipeline, main
from kickstab.config import ExperimentConfig, config_from_dict, load_config, save_config
from kickstab.errors import (
    DegenerateCovariance,
    EmptyMiddleBlock,
    ParseError,
    StaleArtifact,
    ValidationError,
)
from tests.conftest import length_split_counts


def small_config(tmp_path, **overrides):
    """A fast, fully-valid config on a 10-dimensional model."""
    doc = {
        "model": {"n": 10, "beta0": 1.3, "remainder_scale": 0.9, "spectrum_seed": 3,
                  "b": 0.4, "n_unstable": 0, "build_sigma": 0.5, "build_gap_tol": 1e-6,
                  "sigma": 0.5, "obs_idx": list(range(5, 10)), "seed": 1},
        "kick": {"eps_hat": 0.01},
        "run": {"tau": 1.0, "n_steps": 50, "n_chains": 40, "ladder_levels": 2,
                "uncontrolled_steps": 40},
        "density": {"grid_points": 64, "probe_points": 2, "mc_oracle_samples": 60_000},
        "mixing": {"n_chains": 60, "n_steps": 30, "slln_steps": 3000},
    }
    for key, val in overrides.items():
        doc.setdefault(key, {}).update(val)
    path = os.path.join(tmp_path, "config.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def test_defaults_filled(tmp_path):
    path = os.path.join(tmp_path, "c.json")
    with open(path, "w") as fh:
        json.dump({"model": {}, "kick": {"eps_hat": 0.01}}, fh)
    cfg = load_config(path)
    assert cfg.density.radial == 64 and cfg.density.angular == 256
    assert cfg.run.burn_in is None  # resolved from the transient floor at run time
    assert cfg.model.n == 20


def test_missing_eps_hat_rejected():
    with pytest.raises(ValidationError) as exc:
        config_from_dict({"model": {}, "kick": {}})
    assert "kick.eps_hat" in str(exc.value)


def test_unknown_keys_rejected():
    with pytest.raises(ValidationError):
        config_from_dict({"model": {"n": 5, "bogus": 1}, "kick": {"eps_hat": 0.1}})
    with pytest.raises(ValidationError):
        config_from_dict({"extra_section": {}, "kick": {"eps_hat": 0.1}})


def test_cross_field_validation():
    with pytest.raises(ValidationError):
        config_from_dict({"model": {"n": 5, "n_unstable": 5}, "kick": {"eps_hat": 0.1}})
    with pytest.raises(ValidationError):
        config_from_dict({"model": {}, "kick": {"eps_hat": -1.0}})


@pytest.mark.parametrize("field, value", [("n_chains", 1), ("slln_steps", 29),
                                          ("tau", 0.0), ("tau", -0.25)])
def test_mixing_section_validated(field, value):
    # n_chains = 1 leaves no pair of chains to compare, and fewer steps than
    # the 30 batch means leave the SLLN intervals NaN
    with pytest.raises(ValidationError) as exc:
        config_from_dict({"kick": {"eps_hat": 0.01}, "mixing": {field: value}})
    assert f"mixing.{field}" in str(exc.value)


_DENSE = {"kick": {"K": "dense"}}
_EXPLICIT = {"density": {"alpha_source": "explicit"}}
_ASYMMETRIC, _INDEFINITE, _SPD = np.eye(20), np.eye(20), 0.01 * np.eye(20)
_ASYMMETRIC[0, 1] = 0.5
_INDEFINITE[0, 0] = -1.0


def _case(field, value, others=None, name=None):
    return pytest.param(field, value, others or {}, id=name or f"{field}-{value}")


@pytest.mark.parametrize("field, value, others", [
    _case("run.ladder_levels", 0), _case("density.level", 0), _case("density.level", 4),
    _case("run.uncontrolled_steps", 0), _case("run.uncontrolled_steps", 1),
    _case("density.grid_points", 0), _case("density.probe_points", 0),
    _case("density.mc_oracle_samples", 9_999), _case("run.burn_in", -5),
    _case("run.burn_in", 20_000), _case("run.burn_in", 30_000),
    _case("kick.entries", [1.0] * 19, name="kick.entries-diag_short"),
    _case("kick.entries", [1.0] * 20, _DENSE, name="kick.entries-dense_short"),
    _case("kick.entries", [1.0] * 19 + [0.0], name="kick.entries-diag_zero"),
    _case("kick.scale", 0.0), _case("kick.scale", -1.0),
    _case("kick.entries", _ASYMMETRIC.ravel().tolist(), _DENSE, name="kick.entries-asymmetric"),
    _case("kick.entries", _INDEFINITE.ravel().tolist(), _DENSE, name="kick.entries-indefinite"),
    _case("density.radial", 0), _case("density.angular", 0),
    _case("mixing.n_linear", -1), _case("mixing.n_radial", -1),
    _case("mixing.n_radial", 0, {"mixing": {"n_linear": 0}}, name="mixing.n_radial-0-no_linear"),
    _case("density.alpha", [1.0, 2.0, 3.0], {"density": {"alpha_source": "explicit",
                                                          "alpha_shape": [2, 2]}},
          name="density.alpha-size_not_shape"),
    _case("density.alpha", [1.0, 2.0], _EXPLICIT, name="density.alpha-flat_no_shape"),
    _case("kick.power", 800), _case("kick.power", 2000), _case("kick.power", -2000),
    _case("kick.scale", 50.0, {"kick": {"K": "dense", "entries": _SPD.ravel().tolist()}},
          name="kick.scale-dense"),
    _case("run.seed", -1), _case("mixing.obs_seed", -1), _case("run.tau", float("nan")),
    _case("run.tau", float("inf")), _case("model.beta0", float("nan")),
    _case("mixing.w0_scale", float("nan")), _case("model.n", 20.5), _case("run.n_steps", 2.5),
    _case("run.n_steps", True), _case("model.remainder_scale", -0.1),
    _case("model.remainder_scale", 5.0), _case("model.beta0", 1e-9), _case("model.sigma", 1e6),
    _case("kick.eps_hat", 1e300), _case("kick.eps_hat", 1e-200), _case("mixing.n_steps", -1),
    _case("model.obs_idx", [1.5]), _case("model.obs_idx", [10, 10]), _case("model.obs_idx", [True]),
    _case("model.beta0", 10 ** 400, name="model.beta0-int_past_float_range"),
    _case("model.n", 10 ** 6), _case("kick.entries", ["1.0"] * 20, name="kick.entries-strings"),
    _case("density.alpha", [[0.5], None], _EXPLICIT, name="density.alpha-null_row"),
    _case("density.alpha_shape", [2.0, 1.0], {"density": {"alpha_source": "explicit",
                                                           "alpha": [0.5, -0.2]}},
          name="density.alpha_shape-floats"),
    _case("output.dir", 5), _case("run.w0_scale", 1e300), _case("mixing.w0_scale", 1e200)])
def test_crashing_values_rejected_at_load(field, value, others):
    # each of these once passed validation and then crashed a stage with an
    # IndexError, TypeError, ValueError, ZeroDivisionError or LinAlgError (or,
    # for density.level = 0, silently read the top ladder level, for a dense
    # K, silently ignored kick.scale, and run.n_steps = true loaded as 1);
    # kick.eps_hat = 1e300, model.n = 10^6, an integer past the float range and
    # the non-numeric list entries crashed the validation itself (eps_hat^2
    # overflowed, and the n x n kick matrix did not fit in memory); a w0_scale
    # whose square overflows made ||w0|| inf, so w0 read as outside X_sigma;
    # kick.eps_hat = 1e-200, whose square underflows, was rejected as kick.power
    doc = {"kick": {"eps_hat": 0.01}}
    for sec, vals in others.items():
        doc.setdefault(sec, {}).update(vals)
    section, key = field.split(".")
    doc.setdefault(section, {})[key] = value
    with pytest.raises(ValidationError) as exc:
        config_from_dict(doc)
    assert field in str(exc.value)


def test_edge_values_accepted_at_load():
    cfg = config_from_dict({"kick": {"eps_hat": 0.01},
                            "run": {"ladder_levels": 1, "uncontrolled_steps": 2,
                                    "burn_in": 19_999},
                            "density": {"level": 1, "grid_points": 1, "probe_points": 1,
                                        "mc_oracle_samples": 10_000}})
    assert cfg.run.burn_in == 19_999
    assert config_from_dict({"kick": {"eps_hat": 0.01}, "run": {"burn_in": 0},
                             "density": {"level": 3}}).density.level == 3
    # one-node slice rules, one observable, a flat alpha with its shape, and
    # an SPD dense K given entry by entry
    cfg = config_from_dict({"kick": {"eps_hat": 0.01, "K": "dense",
                                     "entries": (0.01 * np.eye(20)).ravel().tolist()},
                            "density": {"radial": 1, "angular": 1, "alpha_source": "explicit",
                                        "alpha": [0.5, -0.2], "alpha_shape": [2, 1]},
                            "mixing": {"n_linear": 0, "n_radial": 1}})
    assert cfg.explicit_alpha().shape == (2, 1)
    # a spectrum with no remainder, sigma just below the first ladder segment
    # e^(2/d) in both dimensions, and no observed coordinate
    for d in (2, 3):
        below = float(np.nextafter(np.exp(2.0 / d), 0.0))
        cfg = config_from_dict({"kick": {"eps_hat": 0.01},
                                "model": {"d": d, "remainder_scale": 0.0, "sigma": below,
                                          "obs_idx": []}})
        assert (cfg.model.sigma, cfg.model.obs_idx) == (below, [])
    with pytest.raises(ValidationError, match="model.sigma"):
        config_from_dict({"kick": {"eps_hat": 0.01}, "model": {"sigma": float(np.e)}})


_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-3, 40),
                     st.floats(), st.floats(0.01, 2.0), st.text(max_size=3))
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=4), st.lists(st.integers(0, 25)),
                    st.lists(st.lists(_SCALARS, max_size=3), max_size=3))
_FIELDS = [(sec.name, f.name) for sec in fields(ExperimentConfig)
           for f in fields(sec.default_factory())]
_KINDS = {"int": (int,), "float": (int, float), "str": (str,), "list": (list,)}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_FIELDS), _VALUES), max_size=3))
def test_config_loads_or_raises_validation_error(changes):
    # any value in up to three fields of a loadable config: it either loads,
    # with every field of its declared type and every float field finite, or
    # raises ValidationError, and nothing else
    doc = {"kick": {"eps_hat": 0.01}}
    for (section, key), value in changes:
        doc.setdefault(section, {})[key] = value
    try:
        cfg = config_from_dict(doc)
    except ValidationError:
        return
    for sec in fields(cfg):
        for f in fields(getattr(cfg, sec.name)):
            kind, _, optional = f.type.partition(" | ")
            value = getattr(getattr(cfg, sec.name), f.name)
            assert (value is None and optional) or type(value) in _KINDS[kind]
            if kind == "float" and value is not None:
                assert math.isfinite(value)


def test_parse_error_reports_location(tmp_path):
    path = os.path.join(tmp_path, "broken.json")
    with open(path, "w") as fh:
        fh.write("{ not json")
    with pytest.raises(ParseError) as exc:
        load_config(path)
    assert ":1:" in str(exc.value)


def test_load_save_load_roundtrip(tmp_path):
    path = small_config(tmp_path)
    cfg = load_config(path)
    out = os.path.join(tmp_path, "resaved.json")
    save_config(cfg, out)
    again = load_config(out)
    assert again.to_dict() == cfg.to_dict()


def test_emit_series_contract(tmp_path):
    path = os.path.join(tmp_path, "series.csv")
    emit_series(path, ["a", "b"], [[1, 0.1], [2, 1 / 3]])
    lines = open(path, "rb").read().decode().split("\n")
    assert lines[0] == "a,b"
    assert len([ln for ln in lines if ln]) == 3
    assert float(lines[2].split(",")[1]) == 1 / 3  # full-precision round trip
    # header-only for empty rows
    emit_series(path, ["a", "b"], [])
    assert open(path).read() == "a,b\n"
    # byte-identical re-emission
    emit_series(path, ["a", "b"], [[1, 0.1]])
    c1 = file_checksum(path)
    emit_series(path, ["a", "b"], [[1, 0.1]])
    assert file_checksum(path) == c1
    with pytest.raises(ValueError):
        emit_series(path, ["a", "b"], [[1]])


def test_unknown_subcommand_exits_2(tmp_path):
    path = small_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", path])
    assert exc.value.code == 2


def test_negative_seed_override_exits_2(tmp_path):
    # a negative seed once reached SeedSequence in simulate and crashed it
    path = small_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["all", "--config", path, "--out", str(tmp_path), "--seed-override", "-1"])
    assert exc.value.code == 2


def test_stage_crash_exits_3_with_traceback(tmp_path, monkeypatch, capsys):
    # exit 1 means a verification check failed; a crash is a runtime error
    from kickstab.cli import Pipeline

    def crash(self):
        raise ValueError("boom")

    monkeypatch.setattr(Pipeline, "stage_synth", crash)
    path = small_config(tmp_path)
    assert main(["all", "--config", path, "--out", os.path.join(tmp_path, "out")]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "ValueError: boom" in err


def test_stage_order_enforced(tmp_path):
    path = small_config(tmp_path)
    out = os.path.join(tmp_path, "out")
    assert main(["simulate", "--config", path, "--out", out]) == 3


def test_full_pipeline_and_determinism(tmp_path):
    path = small_config(tmp_path)
    out1 = os.path.join(tmp_path, "out1")
    out2 = os.path.join(tmp_path, "out2")
    assert main(["all", "--config", path, "--out", out1]) == 0
    assert main(["all", "--config", path, "--out", out2]) == 0
    man1 = json.load(open(os.path.join(out1, "manifest.json")))
    man2 = json.load(open(os.path.join(out2, "manifest.json")))
    a1 = {s: v["artifacts"] for s, v in man1["stages"].items()}
    a2 = {s: v["artifacts"] for s, v in man2["stages"].items()}
    assert a1 == a2
    report = json.load(open(os.path.join(out1, "report.json")))
    assert set(report["checks"]) >= {"contraction_gamma0", "tail_strictly_decreasing",
                                     "tv_ratio_stable", "mixing_fit",
                                     "envelope_zero_violations", "density_probe_slope"}
    # every stage's artifacts are checksummed in the manifest
    for stage in ("synth", "dichotomy", "certify", "simulate", "density", "mixing"):
        assert man1["stages"][stage]["artifacts"]
    # report references those checksums
    assert report["artifact_checksums"]["synth"] == man1["stages"]["synth"]["artifacts"]


def test_stage_incremental_rerun(tmp_path):
    path = small_config(tmp_path)
    out = os.path.join(tmp_path, "stagewise")
    for stage in ("synth", "dichotomy", "certify"):
        assert main([stage, "--config", path, "--out", out]) == 0
    cert = json.load(open(os.path.join(out, "certificate.json")))
    assert cert["gamma0"] < 1.0
    assert list(map(float, cert["gamma0_grid"].keys())) == [1.0, 2.0, 4.0, 8.0]


def _write_config(tmp_path, doc):
    path = os.path.join(tmp_path, "config.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def test_fast_unstable_mode_gamma0_decreasing_in_tau(tmp_path):
    # model.b = 50 moves the unstable eigenvalue to about -11.8.  Projecting
    # the full S(tau) read gamma0 = 7.7e4 at tau = 4 and 2.4e25 at tau = 8
    # (roundoff of 1e-16 e^{11.8 tau}); the X_sigma step reads 0.0137 and 1.2e-4
    path = _write_config(tmp_path, {"model": {"b": 50.0}, "kick": {"eps_hat": 0.01}})
    out = os.path.join(tmp_path, "out")
    for stage in ("synth", "dichotomy", "certify"):
        assert main([stage, "--config", path, "--out", out]) == 0
    cert = json.load(open(os.path.join(out, "certificate.json")))
    grid = [cert["gamma0_grid"][k] for k in ("1.0", "2.0", "4.0", "8.0")]
    assert all(b < a for a, b in zip(grid, grid[1:]))   # the report's predicate
    assert grid[-1] < 1e-3


def test_long_tau_stops_with_a_named_error(tmp_path, capsys):
    # run.tau = 1000: the X_sigma step is 0 to the last bit, while the
    # uncontrolled demonstration grows by e^{42} per step and overflows.  That
    # stops simulate with BlowupOverflow, not a traceback, before it writes an
    # artifact; mixing, which projected the full S(1000) into NaN states, runs
    # on the step
    path = _write_config(tmp_path, {
        "kick": {"eps_hat": 0.01},
        "run": {"tau": 1000.0, "n_steps": 20, "n_chains": 10},
        "mixing": {"n_chains": 20, "n_steps": 20, "slln_steps": 600}})
    out = os.path.join(tmp_path, "out")
    assert main(["all", "--config", path, "--out", out]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and "uncontrolled norms overflow" in err
    cert = json.load(open(os.path.join(out, "certificate.json")))
    assert cert["gamma0"] == 0.0 and cert["contraction_ok"]
    assert main(["mixing", "--config", path, "--out", out]) == 0
    assert not os.path.exists(os.path.join(out, "trajectory.csv"))
    assert main(["report", "--config", path, "--out", out]) == 3
    assert "requires artifact envelope.json" in capsys.readouterr().err


def test_all_builds_each_semigroup_once(tmp_path, monkeypatch):
    # one expm per distinct tau of the run: the X_sigma steps T(run.tau),
    # T(mixing.tau) and T(1); the certify grid squares T(1) for 2, 4 and 8.
    # This model has no unstable mode, so no blow-up demonstration runs
    import scipy.linalg
    real_expm = scipy.linalg.expm
    calls = []

    def counting_expm(M):
        calls.append(M)
        return real_expm(M)

    monkeypatch.setattr(scipy.linalg, "expm", counting_expm)
    path = small_config(tmp_path)
    cfg = load_config(path)
    assert main(["all", "--config", path, "--out", os.path.join(tmp_path, "out")]) == 0
    assert len(calls) == len({cfg.run.tau, cfg.mixing.tau, 1.0})


def test_pipeline_semigroup_is_expm(tmp_path):
    # the semigroup the chains step with is the scaling-and-squaring
    # exponential of A_sigma = U^T A U, bit for bit, once per tau
    import scipy.linalg
    from kickstab.cli import Pipeline

    cfg = config_from_dict({"kick": {"eps_hat": 0.01}})
    pipe = Pipeline(cfg, os.path.join(tmp_path, "out"))
    U = pipe.dichotomy().stable_basis
    A_sigma = U.T @ pipe.model().A @ U
    for tau in (cfg.run.tau, cfg.mixing.tau):
        step = pipe.step(tau)
        assert step.U is U and step.tau == tau and pipe.step(tau) is step
        assert np.array_equal(step.T, scipy.linalg.expm(-tau * A_sigma))


def test_squared_semigroup_is_expm_bit_for_bit(tmp_path, ref_model, ref_dichotomy):
    # the certify grid squares T(1): each square is the expm at twice the
    # time, bit for bit, so gamma0_grid keeps the per-tau expm's values
    import scipy.linalg
    from kickstab.cli import Pipeline
    from kickstab.spectral import StableStep, contraction_certificate

    U = ref_dichotomy.stable_basis
    A_sigma = U.T @ ref_model.A @ U
    for t in (0.25, 0.5, 1.0, 2.0, 4.0):
        T = scipy.linalg.expm(-t * A_sigma)
        assert np.array_equal(T @ T, scipy.linalg.expm(-2 * t * A_sigma))
    out = os.path.join(tmp_path, "out")
    pipe = Pipeline(config_from_dict({"kick": {"eps_hat": 0.01}}), out)
    assert np.array_equal(pipe.model().A, ref_model.A)
    for stage in ("synth", "dichotomy", "certify"):
        assert pipe.run_stage(stage) == 0
    grid = json.load(open(os.path.join(out, "certificate.json")))["gamma0_grid"]
    for t in (1.0, 2.0, 4.0, 8.0):
        T = scipy.linalg.expm(-t * A_sigma)
        assert grid[str(t)] == contraction_certificate(StableStep(t, U, T))[0]


def test_certify_factors_A_once(tmp_path, monkeypatch):
    # one real Schur form of A^T per model serves the dichotomy, the ladder,
    # the Schur projector, the Riesz quadrature and the contour resolvent
    # norms: no complex Schur form, no Sylvester solver that factors again,
    # and no node takes a dense complex SVD
    import scipy.linalg

    path = os.path.join(tmp_path, "config.json")
    with open(path, "w") as fh:
        json.dump({"kick": {"eps_hat": 0.01}}, fh)
    out = os.path.join(tmp_path, "out")
    for stage in ("synth", "dichotomy"):
        assert main([stage, "--config", path, "--out", out]) == 0
    real_schur, real_sylvester, real_svd = (scipy.linalg.schur, scipy.linalg.solve_sylvester,
                                            np.linalg.svd)
    schurs, sylvesters, svds = [], [], []

    def counting_schur(a, *args, **kwargs):
        output = kwargs.get("output", args[0] if args else "real")
        schurs.append((output, np.shape(a), np.iscomplexobj(a)))
        return real_schur(a, *args, **kwargs)

    def counting_sylvester(*args, **kwargs):
        sylvesters.append(len(args))
        return real_sylvester(*args, **kwargs)

    def counting_svd(a, *args, **kwargs):
        if np.iscomplexobj(a):
            svds.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", counting_schur)
    monkeypatch.setattr(scipy.linalg, "solve_sylvester", counting_sylvester)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    assert main(["certify", "--config", path, "--out", out]) == 0
    n = load_config(path).model.n
    assert schurs == [("real", (n, n), False)]
    assert sylvesters == []
    assert svds == []


def test_certificate_records_riesz_schur_residual(tmp_path):
    # default model (one unstable mode): quadrature and sorted Schur form
    # are two independent constructions of the same spectral projector
    path = os.path.join(tmp_path, "config.json")
    with open(path, "w") as fh:
        json.dump({"kick": {"eps_hat": 0.01}}, fh)
    out = os.path.join(tmp_path, "out")
    for stage in ("synth", "dichotomy", "certify"):
        assert main([stage, "--config", path, "--out", out]) == 0
    assert json.load(open(os.path.join(out, "dichotomy.json")))["m"] == 1
    cert = json.load(open(os.path.join(out, "certificate.json")))
    assert cert["riesz_schur_residual"] <= 1e-10
    # per-edge Gauss-Legendre counts (right, top, left, bottom) from the spectrum
    assert cert["riesz_nodes"] == [13, 29, 21, 29] and cert["riesz_capped"] is False


def test_riesz_cross_check_fails_a_length_split_rule(tmp_path, monkeypatch, capsys):
    # b = 50 makes the Riesz rectangle long and thin (12.6 x 0.69).  256
    # nodes split by edge length leave 7 on each short edge, where the left
    # one needs 21, and the report names the check
    path = small_config(tmp_path, run={"uncontrolled_steps": 10})
    with open(path) as fh:
        doc = json.load(fh)
    doc["model"] = {"b": 50.0}
    with open(path, "w") as fh:
        json.dump(doc, fh)
    out = os.path.join(tmp_path, "out")

    def failing(argv):
        capsys.readouterr()
        main(argv)
        line = capsys.readouterr().out.splitlines()[-1]
        return line.split(": ", 1)[1].split(", ") if ": " in line else []

    assert "riesz_cross_check" not in failing(["all", "--config", path, "--out", out])
    monkeypatch.setattr("kickstab.spectral._bernstein_counts",
                        lambda ev, *rect: (length_split_counts(*rect, 256), False))
    main(["certify", "--config", path, "--out", out])
    assert json.load(open(os.path.join(out, "certificate.json")))["riesz_nodes"] == [7, 121, 7, 121]
    assert "riesz_cross_check" in failing(["report", "--config", path, "--out", out])


def test_report_names_failing_checks(tmp_path, capsys):
    # each verdict is read from an artifact: a tampered artifact fails its
    # check alone.  Reversed tail gammas increase along the ladder
    path = small_config(tmp_path)
    out = os.path.join(tmp_path, "out")
    assert main(["all", "--config", path, "--out", out]) == 0
    cases = [
        ("envelope.json", lambda doc: doc.update(n_violations=1), "envelope_zero_violations"),
        ("certificate.json", lambda doc: doc["tail_gammas"].reverse(),
         "tail_strictly_decreasing"),
        ("tv.json", lambda doc: doc.update({"pass": False}), "tv_ratio_stable"),
        ("certificate.json", lambda doc: doc.update(riesz_schur_residual=1.9e-6),
         "riesz_cross_check"),
    ]
    for name, edit, check in cases:
        artifact = os.path.join(out, name)
        with open(artifact, "rb") as fh:
            original = fh.read()
        doc = json.loads(original)
        edit(doc)
        with open(artifact, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        assert main(["report", "--config", path, "--out", out]) == 1
        assert capsys.readouterr().out == f"[report] CHECK FAILED: {check}\n"
        with open(artifact, "wb") as fh:
            fh.write(original)


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """Config path and output dir of one complete ``all`` run."""
    tmp = tmp_path_factory.mktemp("finished")
    path = small_config(tmp)
    out = os.path.join(tmp, "out")
    assert main(["all", "--config", path, "--out", out]) == 0
    return path, out


def test_report_runs_on_artifacts_alone(finished_run, tmp_path, monkeypatch, capsys):
    # report builds no model and no kick law, and a rerun rewrites its
    # report.json byte for byte
    path, done = finished_run
    out = os.path.join(tmp_path, "out")
    shutil.copytree(done, out)

    def unavailable(*args, **kwargs):
        raise AssertionError("report must not build pipeline components")

    monkeypatch.setattr("kickstab.cli.build_oseen", unavailable)
    monkeypatch.setattr("kickstab.cli.make_kick_law", unavailable)
    capsys.readouterr()
    assert main(["report", "--config", path, "--out", out]) == 0
    assert capsys.readouterr().out == "[report] ok\n"
    assert file_checksum(os.path.join(out, "report.json")) == \
        file_checksum(os.path.join(done, "report.json"))
    report = json.load(open(os.path.join(out, "report.json")))
    assert "condition_check" not in report
    assert json.load(open(os.path.join(out, "tv.json")))["pass"]


def test_report_requires_tv_json(finished_run, tmp_path, capsys):
    # an output dir written before mixing wrote tv.json stops report with a
    # named error, not a traceback
    path, done = finished_run
    out = os.path.join(tmp_path, "out")
    shutil.copytree(done, out)
    os.remove(os.path.join(out, "tv.json"))
    capsys.readouterr()
    assert main(["report", "--config", path, "--out", out]) == 3
    err = capsys.readouterr().err
    assert "requires artifact tv.json" in err and "Traceback" not in err


def _records(manifest_path):
    """The manifest's stage records without their wall times."""
    with open(manifest_path) as fh:
        stages = json.load(fh)["stages"]
    return {s: {k: v for k, v in rec.items() if k != "elapsed_s"} for s, rec in stages.items()}


def test_stage_under_another_config_stops_with_stale_artifact(finished_run, tmp_path, capsys):
    # after 'all' under config A, report and mixing under config B once exited
    # 0: report judged A's artifacts and stamped B's hash on the manifest.  Each
    # now stops before it writes, naming the artifact; 'all' under B then
    # rebuilds the dir as it builds a fresh one
    _, done = finished_run
    path_b = small_config(tmp_path, kick={"eps_hat": 0.02}, run={"n_steps": 60})
    out, fresh = os.path.join(tmp_path, "out"), os.path.join(tmp_path, "fresh")
    shutil.copytree(done, out)
    manifest = file_checksum(os.path.join(out, "manifest.json"))
    for stage in ("report", "mixing"):
        capsys.readouterr()
        assert main([stage, "--config", path_b, "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: artifact model.json ") and "Traceback" not in err
        assert file_checksum(os.path.join(out, "manifest.json")) == manifest
    with pytest.raises(StaleArtifact):
        Pipeline(load_config(path_b), out).run_stage("report")
    # a model of B's, beside A's certificate: report reads no artifact of A's,
    # and once B has rerun every stage report reads, lists no checksum of A's
    assert main(["synth", "--config", path_b, "--out", out]) == 0
    capsys.readouterr()
    assert main(["report", "--config", path_b, "--out", out]) == 3
    assert capsys.readouterr().err.startswith("error: artifact certificate.json ")
    for stage in ("certify", "simulate", "density", "mixing", "report"):
        main([stage, "--config", path_b, "--out", out])
    with open(os.path.join(out, "report.json")) as fh:
        assert set(json.load(fh)["artifact_checksums"]) == \
            {"synth", "certify", "simulate", "density", "mixing"}

    assert main(["all", "--config", path_b, "--out", out]) == \
        main(["all", "--config", path_b, "--out", fresh])
    for name in os.listdir(fresh):
        if name != "manifest.json":
            assert file_checksum(os.path.join(out, name)) == \
                file_checksum(os.path.join(fresh, name)), name
    assert _records(os.path.join(out, "manifest.json")) == \
        _records(os.path.join(fresh, "manifest.json"))
    report = file_checksum(os.path.join(out, "report.json"))
    main(["report", "--config", path_b, "--out", out])
    assert file_checksum(os.path.join(out, "report.json")) == report


def test_manifest_holds_one_record_per_stage(finished_run, tmp_path, capsys):
    # each stage's checksums, config hash and wall time sit in one record.  A
    # manifest of the earlier format, with one top-level config_hash and
    # timings and records of checksums alone, names no stage's config: the
    # next stage after synth stops with a named error, and 'all' rewrites it
    path, done = finished_run
    with open(os.path.join(done, "manifest.json")) as fh:
        man = json.load(fh)
    config_hash = Pipeline(load_config(path), done).config_hash()
    assert set(man) == {"version", "threads", "stages"}
    for rec in man["stages"].values():
        assert set(rec) == {"artifacts", "config_hash", "elapsed_s"}
        assert rec["config_hash"] == config_hash and rec["elapsed_s"] >= 0.0

    out = os.path.join(tmp_path, "out")
    shutil.copytree(done, out)
    write_json(os.path.join(out, "manifest.json"), {
        "config_hash": config_hash, "version": man["version"], "threads": man["threads"],
        "stages": {s: {"artifacts": rec["artifacts"]} for s, rec in man["stages"].items()},
        "timings": {s: rec["elapsed_s"] for s, rec in man["stages"].items()}})
    with pytest.raises(StaleArtifact):
        Pipeline(load_config(path), out).run_stage("certify")
    capsys.readouterr()
    assert main(["report", "--config", path, "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: artifact model.json ") and "Traceback" not in err

    assert main(["all", "--config", path, "--out", out]) == 0
    with open(os.path.join(out, "manifest.json")) as fh:
        assert set(json.load(fh)) == {"version", "threads", "stages"}
    assert _records(os.path.join(out, "manifest.json")) == \
        _records(os.path.join(done, "manifest.json"))
    for name in os.listdir(done):
        if name != "manifest.json":
            assert file_checksum(os.path.join(out, name)) == \
                file_checksum(os.path.join(done, name)), name


def test_burn_in_below_floor_stops_mixing_with_named_error(tmp_path, capsys):
    # an explicit burn-in is checked against the transient floor, which is
    # known only after certify: the mixing stage stops with exit code 3
    path = small_config(tmp_path, run={"burn_in": 0}, mixing={"w0_scale": 5.0})
    out = os.path.join(tmp_path, "out")
    for stage in ("synth", "dichotomy", "certify"):
        assert main([stage, "--config", path, "--out", out]) == 0
    capsys.readouterr()
    assert main(["mixing", "--config", path, "--out", out]) == 3
    assert "below the transient floor" in capsys.readouterr().err


@pytest.mark.parametrize("doc, error", [
    pytest.param({"kick": {"power": 50.0}}, DegenerateCovariance, id="kick.power-50"),
    pytest.param({"model": {"n_unstable": 3, "b": 2.0}}, EmptyMiddleBlock, id="empty_middle_block"),
])
def test_density_stops_with_named_error(tmp_path, capsys, doc, error):
    # kick.power = 50: roundoff leaves the projected kick covariance an
    # eigenvalue of -1.5e-23, which ball_mass raised on as a bare ValueError.
    # n_unstable = 3 with b = 2: no eigenvalue has its real part in
    # [sigma, sigma_1), so the level-1 middle block is empty (nm = 0), which
    # the mass quadrature reported as "implemented for nm <= 2, got nm=0"
    doc = dict(doc, kick=dict(doc.get("kick", {}), eps_hat=0.01))
    path = _write_config(tmp_path, doc)
    out = os.path.join(tmp_path, "out")
    for stage in ("synth", "dichotomy"):
        assert main([stage, "--config", path, "--out", out]) == 0
    pipe = Pipeline(load_config(path), out)
    with pytest.raises(error):
        pipe.run_stage("density")
    capsys.readouterr()
    assert main(["density", "--config", path, "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_explicit_alpha_density_at_small_eps_hat(tmp_path):
    # an explicit alpha takes K = (eps_hat^2 / n) I, the kick section's trace
    # rule; with K = I the eps_hat = 0.01 ball held a draw with probability
    # ~3e-7, and the Monte Carlo oracle stopped the stage with RejectionCap
    path = _write_config(tmp_path, {"kick": {"eps_hat": 0.01},
                                    "density": {"alpha_source": "explicit",
                                                "alpha": [[0.8], [-0.5]]}})
    out = os.path.join(tmp_path, "out")
    for stage in ("synth", "dichotomy", "density"):
        assert main([stage, "--config", path, "--out", out]) == 0
    with open(os.path.join(out, "density.json")) as fh:
        dens = json.load(fh)
    assert (dens["m"], dens["nm"]) == (1, 2)
    assert dens["mc_max_rel_dev"] < 0.05


def test_seed_override_leaves_caller_config(tmp_path):
    from kickstab.artifacts import canonical_json, hash_arrays
    from kickstab.cli import Pipeline

    cfg = config_from_dict({"kick": {"eps_hat": 0.01}})
    before = cfg.to_dict()
    pipe = Pipeline(cfg, os.path.join(tmp_path, "out"), seed_override=5)
    assert cfg.to_dict() == before
    assert (pipe.cfg.run.seed, pipe.cfg.mixing.seed) == (5, 6)
    # the manifest hashes the config the pipeline runs, seeds overridden,
    # less its output section
    expected = dict(before, run=dict(before["run"], seed=5),
                    mixing=dict(before["mixing"], seed=6))
    del expected["output"]
    assert pipe.config_hash() == hash_arrays(canonical_json(expected))


def test_output_dir_is_not_part_of_the_experiment(tmp_path, capsys):
    # two configs that differ only in output.dir describe one experiment: a
    # stage of one runs on the other's artifacts in a shared --out; a changed
    # kick.eps_hat is another experiment and still stops with StaleArtifact
    shared = os.path.join(tmp_path, "shared")
    for name in "abc":
        (tmp_path / name).mkdir()
    path_a = small_config(tmp_path / "a", output={"dir": "runA"})
    path_b = small_config(tmp_path / "b", output={"dir": "runB"})
    path_c = small_config(tmp_path / "c", output={"dir": "runB"}, kick={"eps_hat": 0.02})
    assert main(["synth", "--config", path_a, "--out", shared]) == 0
    assert main(["dichotomy", "--config", path_b, "--out", shared]) == 0
    assert Pipeline(load_config(path_a), shared).config_hash() == \
        Pipeline(load_config(path_b), shared).config_hash()
    with pytest.raises(StaleArtifact):
        Pipeline(load_config(path_c), shared).run_stage("dichotomy")
    capsys.readouterr()
    assert main(["dichotomy", "--config", path_c, "--out", shared]) == 3
    assert capsys.readouterr().err.startswith("error: artifact model.json ")


def _simulate(tmp_path, name, **run):
    from kickstab.cli import Pipeline

    cfg = config_from_dict({"kick": {"eps_hat": 0.01},
                            "run": dict({"n_steps": 60, "n_chains": 10}, **run)})
    pipe = Pipeline(cfg, os.path.join(tmp_path, name))
    for stage in ("synth", "dichotomy", "certify", "simulate"):
        pipe.run_stage(stage)
    return pipe


@pytest.fixture(scope="module")
def simulate_pair(tmp_path_factory):
    # default model (n = 20, one unstable mode), blow-up chain shorter and
    # longer than the trajectory
    tmp = tmp_path_factory.mktemp("simulate")
    return _simulate(tmp, "short", uncontrolled_steps=40), \
        _simulate(tmp, "long", uncontrolled_steps=90)


def test_simulate_trajectory_independent_of_blowup_steps(simulate_pair):
    short, long_ = simulate_pair
    assert file_checksum(short.path("trajectory.csv")) == \
        file_checksum(long_.path("trajectory.csv"))


def test_simulate_blowup_reads_a_separate_chain_bit_for_bit(simulate_pair):
    from kickstab.chain import run_chain, uncontrolled_demo
    from kickstab.ergodicity import stable_state

    for pipe in simulate_pair:
        run = pipe.cfg.run
        step, law = pipe.step(run.tau), pipe.law()
        w0 = stable_state(pipe.dichotomy(), run.w0_scale, run.w0_seed)
        ctrl = np.linalg.norm(run_chain(step, pipe.controller(), law, w0,
                                        run.uncontrolled_steps, run.seed), axis=1)
        norms_u, _ = uncontrolled_demo(pipe.model(), run.tau, law, w0,
                                       run.uncontrolled_steps, run.seed)
        blow = json.load(open(pipe.path("blowup.json")))
        assert blow["applicable"]
        assert blow["ratio_uncontrolled_controlled"] == float(norms_u[-1] / ctrl[-1])


def _openblas_fns(kind):
    """(package, function) for the thread-count getter or setter of each OpenBLAS
    bundled with numpy and scipy."""
    import ctypes
    import glob
    import sys

    fns = []
    for pkg, symbol in (("numpy", f"scipy_openblas_{kind}_num_threads64_"),
                        ("scipy", f"scipy_openblas_{kind}_num_threads")):
        libs = os.path.join(os.path.dirname(sys.modules[pkg].__file__), os.pardir, f"{pkg}.libs")
        for path in glob.glob(os.path.join(libs, "*openblas*")):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                if kind == "get":
                    fn.argtypes, fn.restype = [], ctypes.c_int
                else:
                    fn.argtypes, fn.restype = [ctypes.c_int], None
                fns.append((pkg, fn))
    return fns


def test_pipeline_pins_both_openblas_pools_and_records_it(tmp_path):
    getters = _openblas_fns("get")
    if {pkg for pkg, _ in getters} != {"numpy", "scipy"}:
        pytest.skip("numpy and scipy do not each bundle an OpenBLAS here")
    for _, fn in _openblas_fns("set"):
        fn(2)
    pipe = Pipeline(config_from_dict({"kick": {"eps_hat": 0.01}}), str(tmp_path))
    assert pipe.threads == 1
    assert [(pkg, fn()) for pkg, fn in getters] == [("numpy", 1), ("scipy", 1)]
    pipe.run_stage("synth")
    assert json.load(open(pipe.path("manifest.json")))["threads"] == 1


def test_no_openblas_found_records_null_threads(tmp_path, monkeypatch):
    import glob

    from kickstab import cli

    monkeypatch.setattr(glob, "glob", lambda pattern: [])
    assert cli.pin_blas_threads() is None
    pipe = Pipeline(config_from_dict({"kick": {"eps_hat": 0.01}}), str(tmp_path))
    pipe.run_stage("synth")
    man = json.load(open(pipe.path("manifest.json")))
    assert "threads" in man and man["threads"] is None


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at n = 150 the eigensolve rounds differently on one and on two OpenBLAS
    # threads unless the pipeline pins the count itself
    import subprocess
    import sys

    import kickstab

    path = _write_config(tmp_path, {"model": {"n": 150}, "kick": {"eps_hat": 0.01}})
    src = os.path.dirname(os.path.dirname(kickstab.__file__))
    script = ("import sys; from kickstab.cli import main\n"
              "for st in ('synth', 'dichotomy'):\n"
              "    assert main([st, '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n")
    checksums = []
    for threads in ("1", "2"):
        out = os.path.join(tmp_path, f"threads{threads}")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                                              if p))
        subprocess.run([sys.executable, "-c", script, path, out], env=env, check=True,
                       capture_output=True)
        checksums.append(file_checksum(os.path.join(out, "dichotomy.json")))
    assert checksums[0] == checksums[1]
