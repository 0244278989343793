"""Config loading/validation and the staged pipeline runner."""

import json
import os

import numpy as np
import pytest

from kickstab.artifacts import emit_series, file_checksum
from kickstab.cli import main
from kickstab.config import config_from_dict, load_config, save_config
from kickstab.errors import ParseError, ValidationError


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
_ASYMMETRIC, _INDEFINITE = np.eye(20), np.eye(20)
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
    _case("density.alpha", [1.0, 2.0], _EXPLICIT, name="density.alpha-flat_no_shape")])
def test_crashing_values_rejected_at_load(field, value, others):
    # each of these once passed validation and then crashed a stage with an
    # IndexError, ValueError, ZeroDivisionError or LinAlgError (or, for
    # density.level = 0, silently read the top ladder level)
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


def test_all_builds_each_semigroup_once(tmp_path, monkeypatch):
    # one expm per distinct tau of the run: run.tau, mixing.tau and S(1);
    # the certify grid squares S(1) for 2, 4 and 8
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
    # the S(tau) the chains step with is scaling-and-squaring, bit for bit
    import scipy.linalg
    from kickstab.cli import Pipeline

    cfg = config_from_dict({"kick": {"eps_hat": 0.01}})
    pipe = Pipeline(cfg, os.path.join(tmp_path, "out"))
    A = pipe.model().A
    for tau in (cfg.run.tau, cfg.mixing.tau):
        assert np.array_equal(pipe.semigroup(tau), scipy.linalg.expm(-tau * A))


def test_squared_semigroup_is_expm_bit_for_bit(tmp_path, ref_model, ref_dichotomy):
    # the certify grid squares S(1): each square is the expm at twice the
    # time, bit for bit, so gamma0_grid keeps the per-tau expm's values
    import scipy.linalg
    from kickstab.cli import Pipeline
    from kickstab.spectral import contraction_certificate

    A = ref_model.A
    for t in (0.25, 0.5, 1.0, 2.0, 4.0):
        S = scipy.linalg.expm(-t * A)
        assert np.array_equal(S @ S, scipy.linalg.expm(-2 * t * A))
    out = os.path.join(tmp_path, "out")
    pipe = Pipeline(config_from_dict({"kick": {"eps_hat": 0.01}}), out)
    assert np.array_equal(pipe.model().A, A)
    for stage in ("synth", "dichotomy", "certify"):
        assert pipe.run_stage(stage) == 0
    grid = json.load(open(os.path.join(out, "certificate.json")))["gamma0_grid"]
    for t in (1.0, 2.0, 4.0, 8.0):
        S = scipy.linalg.expm(-t * A)
        assert grid[str(t)] == contraction_certificate(ref_dichotomy, S)[0]


def test_certify_takes_one_complex_schur_and_no_complex_svd(tmp_path, monkeypatch):
    # one complex Schur form per model serves the Riesz quadrature and the
    # contour resolvent norms; no node takes a dense complex SVD
    import scipy.linalg

    path = os.path.join(tmp_path, "config.json")
    with open(path, "w") as fh:
        json.dump({"kick": {"eps_hat": 0.01}}, fh)
    out = os.path.join(tmp_path, "out")
    for stage in ("synth", "dichotomy"):
        assert main([stage, "--config", path, "--out", out]) == 0
    real_schur, real_svd = scipy.linalg.schur, np.linalg.svd
    schurs, svds = [], []

    def counting_schur(a, *args, **kwargs):
        if kwargs.get("output", args[0] if args else "real") == "complex":
            schurs.append(np.shape(a))
        return real_schur(a, *args, **kwargs)

    def counting_svd(a, *args, **kwargs):
        if np.iscomplexobj(a):
            svds.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", counting_schur)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    assert main(["certify", "--config", path, "--out", out]) == 0
    n = load_config(path).model.n
    assert schurs == [(n, n)]
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


def test_report_names_failing_checks(tmp_path, capsys):
    path = small_config(tmp_path)
    out = os.path.join(tmp_path, "out")
    assert main(["all", "--config", path, "--out", out]) == 0
    env_path = os.path.join(out, "envelope.json")
    env = json.load(open(env_path))
    env["n_violations"] = 1
    with open(env_path, "w") as fh:
        json.dump(env, fh)
    capsys.readouterr()
    assert main(["report", "--config", path, "--out", out]) == 1
    assert capsys.readouterr().out == "[report] CHECK FAILED: envelope_zero_violations\n"


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


def test_seed_override_leaves_caller_config(tmp_path):
    from kickstab.artifacts import canonical_json, hash_arrays
    from kickstab.cli import Pipeline

    cfg = config_from_dict({"kick": {"eps_hat": 0.01}})
    before = cfg.to_dict()
    pipe = Pipeline(cfg, os.path.join(tmp_path, "out"), seed_override=5)
    assert cfg.to_dict() == before
    assert (pipe.cfg.run.seed, pipe.cfg.mixing.seed) == (5, 6)
    # the manifest hashes the config the pipeline runs, seeds overridden
    expected = dict(before, run=dict(before["run"], seed=5),
                    mixing=dict(before["mixing"], seed=6))
    assert pipe.config_hash() == hash_arrays(canonical_json(expected))


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
        S, law = pipe.semigroup(run.tau), pipe.law()
        w0 = stable_state(pipe.dichotomy(), run.w0_scale, run.w0_seed)
        ctrl = np.linalg.norm(run_chain(S, pipe.controller(), law, w0,
                                        run.uncontrolled_steps, run.seed), axis=1)
        norms_u, _ = uncontrolled_demo(S, law, w0, run.uncontrolled_steps, run.seed)
        blow = json.load(open(pipe.path("blowup.json")))
        assert blow["applicable"]
        assert blow["ratio_uncontrolled_controlled"] == float(norms_u[-1] / ctrl[-1])
