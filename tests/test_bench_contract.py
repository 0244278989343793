"""What the benchmark's harness and layer tracer need from kickstab.

``perfbench/run.py`` runs each workload's stage list in a fresh directory
and reads each stage's artifact checksums and ``threads`` from its manifest.
``perfbench/layertrace.py`` rebinds every ``(module, function)`` in its
TARGETS and records per-call information from the arguments and results of
some of them.  A traced run that cannot find or bind one of these counts
as failed operations, so a change that breaks this contract shows here,
not first in a benchmark run.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import kickstab.chain as kc
from kickstab.chain import ensemble_blocks, run_ensemble
from kickstab.cli import Pipeline
from kickstab.config import config_from_dict, load_config
from kickstab.density import (
    DEFAULT_QUAD,
    QuadratureSpec,
    _unit_ball_rule,
    build_pi_decomposition,
    density_batch,
    projected_law,
)
from kickstab.ergodicity import make_observables, slln_average, stationary_stats
from kickstab.kicks import KickLaw, ball_mass, make_kick_law
from tests.conftest import REF
from tests.test_config_cli import small_config


def _load_perfbench(name):
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod    # its dataclasses resolve annotations through sys.modules
    spec.loader.exec_module(mod)
    return mod


lt = _load_perfbench("layertrace")
wl = _load_perfbench("workloads")


def test_trace_targets_exist():
    for mod_name, fn_name, _ in lt.TARGETS:
        mod = importlib.import_module(f"kickstab.{mod_name}")
        assert callable(getattr(mod, fn_name, None)), f"kickstab.{mod_name}.{fn_name}"


def test_density_batch_binds_dec_and_quad():
    params = inspect.signature(density_batch).parameters
    assert "dec" in params and "quad" in params
    hook = lt._info_hook("density_batch", density_batch)
    dec = build_pi_decomposition(np.array([[0.8], [-0.5]]))
    law = projected_law(0.35 * np.eye(3), 1.0)
    xs = np.array([[0.1, 0.2], [0.0, 0.0], [3.0, 3.0]])
    args = (dec, law, xs, DEFAULT_QUAD)
    info = hook(args, {}, density_batch(*args))
    assert info == {"points": 3, "point_nodes": 3 * lt.slice_nodes(1, DEFAULT_QUAD)}


def test_slice_nodes_match_unit_ball_rule():
    # points_nodes_per_s counts slice_nodes(m, quad) nodes per point; that is
    # the node count of the rule density_batch integrates each slice with.
    # At m = 0 the rule has one node and the tracer counts quad.radial.
    for quad in (DEFAULT_QUAD, QuadratureSpec(radial=5, angular=7, polar=3, mc_nodes=11)):
        for m in range(1, 5):
            assert lt.slice_nodes(m, quad) == len(_unit_ball_rule(m, quad)[1])


def test_kick_law_exposes_norm_const_est():
    # the tracer reads the acceptance rate as norm_const_est[0]: the exact
    # ball mass of the one truncated-Gaussian law, which projected_law builds too
    hook = lt._info_hook("kick_law", make_kick_law)
    law = make_kick_law(np.eye(2), 1.0)
    info = hook((np.eye(2), 1.0), {}, law)
    assert info["accept_prob"] == ball_mass(np.linalg.eigvalsh(law.K), law.eps_hat)
    assert 0.0 < info["accept_prob"] < 1.0
    plaw = projected_law(np.eye(2), 1.0)
    assert type(plaw) is type(law) is KickLaw
    with pytest.raises(dataclasses.FrozenInstanceError):
        plaw.eps_hat = 2.0
    assert make_kick_law(np.eye(2), 0.0).norm_const_est == (0.0, 0.0)


def test_chain_hooks_read_step_counts(ref_step, ref_pi, ref_law, ref_w0, ref_gamma0):
    # the ensemble hook reads (chains, steps + 1, n) states; the n_steps
    # hook binds the argument by name, as the pipeline passes it
    hook = lt._info_hook("ensemble", run_ensemble)
    args = (ref_step, ref_pi, ref_law, ref_w0, 3, 7, 5)
    assert hook(args, {}, run_ensemble(*args)) == {"steps": 3 * 7}
    obs = make_observables(REF["n"], 4, 2, seed=0)
    calls = ((slln_average, (ref_step, ref_pi, ref_law, ref_w0, 60, obs, 1), {}),
             (stationary_stats, (ref_step, ref_pi, ref_law, ref_w0, 60, 20, 2),
              {"gamma0": ref_gamma0}))
    for fn, args, kwargs in calls:
        hook = lt._info_hook("n_steps", fn)
        assert hook(args, kwargs, fn(*args, **kwargs)) == {"steps": 60}


def test_ensemble_blocks_trace_one_run_ensemble_per_block(monkeypatch, ref_step, ref_pi,
                                                          ref_law, ref_w0):
    # the ensemble metrics count run_ensemble calls and their states, so
    # every block must be one call through the rebindable chain.run_ensemble;
    # with two starts on shared kicks each chain is two trajectories
    n_chains, n_steps = 7, 5
    monkeypatch.setattr(kc, "BLOCK_ENTRIES", 3 * (n_steps + 1) * REF["n"])
    for w0, starts in ((ref_w0, 1), (np.stack([ref_w0, -ref_w0]), 2)):
        tracer = lt.Tracer()
        tracer.install()
        try:
            blocks = list(ensemble_blocks(ref_step, ref_pi, ref_law, w0, n_chains, n_steps, 5))
        finally:
            tracer.uninstall()
        assert len(blocks) >= 3
        rec = tracer.summary()["chain.run_ensemble"]
        assert rec["calls"] == len(blocks)
        assert rec["steps"] == starts * n_chains * n_steps


def test_pipeline_dichotomy_exposes_stable_basis(tmp_path):
    # perfbench/selftest.py starts its traced chains at
    # Pipeline.dichotomy().stable_basis[:, 0]
    pipe = Pipeline(config_from_dict({"kick": {"eps_hat": 0.01}}), str(tmp_path))
    dich = pipe.dichotomy()
    U = dich.stable_basis
    assert U.shape == (dich.n, dich.n - dich.m)
    assert np.linalg.norm(U.T @ U - np.eye(U.shape[1])) < 1e-12
    assert np.linalg.norm(dich.D.T @ U) < 1e-12


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_workload_stages_run_in_a_fresh_dir(name, tmp_path):
    # child.py builds one Pipeline per repetition and runs the stage list in
    # order; a stage the prerequisite rule stops (density right after
    # dichotomy, say) would count as failed operations in every run
    stages = wl.WORKLOADS[name].stages
    pipe = Pipeline(load_config(small_config(tmp_path)), str(tmp_path / "out"), seed_override=1)
    for st in stages:
        pipe.run_stage(st)
    with open(pipe.path("manifest.json")) as fh:
        man = json.load(fh)
    assert "threads" in man
    for st in stages:
        assert man["stages"][st]["artifacts"], st


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_workload_stages_run_traced(name, tmp_path):
    # child.py --trace installs the tracer once the pipeline is built; an info
    # hook that cannot read its call's arguments or result raises inside the
    # stage, which a traced repetition counts as a failed operation
    stages = wl.WORKLOADS[name].stages
    pipe = Pipeline(load_config(small_config(tmp_path)), str(tmp_path / "out"), seed_override=1)
    tracer = lt.Tracer()

    def json_bytes():
        return tracer.summary().get("artifacts.write_json", {}).get("bytes", 0)

    tracer.install()
    errors, written = {}, {}
    try:
        for st in stages:
            before = json_bytes()
            try:
                pipe.run_stage(st)
            except Exception as exc:
                errors[st] = repr(exc)
            # less the manifest, which run_stage rewrites after each stage
            manifest = Path(pipe.path("manifest.json")).stat().st_size
            written[st] = json_bytes() - before - manifest
    finally:
        tracer.uninstall()
    assert errors == {}
    with open(pipe.path("manifest.json")) as fh:
        records = json.load(fh)["stages"]
    for st in stages:
        # every JSON artifact of the stage goes through write_json
        expected = sum(Path(pipe.path(f)).stat().st_size
                       for f in records[st]["artifacts"] if f.endswith(".json"))
        assert written[st] == expected, st
    laws = [s.info for s in tracer.spans if s.name == "kicks.make_kick_law"]
    assert bool(laws) == bool({"simulate", "mixing"} & set(stages))
    assert all(0.0 < info["accept_prob"] < 1.0 for info in laws)
