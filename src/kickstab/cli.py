"""Configuration-driven experiment pipeline.

Stages map onto the library modules: synth (operator), dichotomy
(splitting + ladder), certify (contraction constants), simulate
(controlled vs uncontrolled ensembles + envelope), density (pushforward
density diagnostics), mixing (ergodicity observations and the TV hypothesis,
``tv.json``), report (aggregate verdicts).  Every stage writes checksummed
artifacts into the output directory; re-running a config reproduces
identical checksums.  Report reads those artifacts only: it builds no model
and recomputes no hypothesis.

``manifest.json`` holds ``version``, ``threads`` and one record per stage,
``{"artifacts", "config_hash", "elapsed_s"}``.  A stage after synth runs only
on a ``model.json`` recorded under the running config's hash, and report reads
each artifact through ``Pipeline.load``, which asks the same of its record:
``MissingPrerequisite`` if the artifact is absent, ``StaleArtifact`` if another
config wrote it.  Stage order is otherwise free.

Exit codes: 0 success, 1 a verification check failed, 2 usage error,
3 runtime error.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import glob
import json
import os
import sys
import time
import traceback

import numpy as np

from . import __version__
from .artifacts import canonical_json, emit_series, file_checksum, hash_arrays, write_json
from .chain import (
    burn_in_floor,
    ensemble_blocks,
    envelope_bound,
    envelope_check,
    run_chain,
    uncontrolled_demo,
)
from .config import ExperimentConfig, load_config, save_config
from .density import (
    QuadratureSpec,
    boundary_exponent_probe,
    build_pi_decomposition,
    density_batch,
    density_mass,
    mc_density_oracle,
    projected_law,
    support_grid,
)
from .ergodicity import (
    alpha_from_projection,
    condition_check,
    make_observables,
    mixing_decay,
    projected_kick_covariance,
    slln_average,
    stable_state,
    stationary_stats,
)
from .errors import EmptyMiddleBlock, KickstabError, MissingPrerequisite, StaleArtifact
from .feedback import build_pi, make_control_geometry
from .kicks import make_kick_law
from .model_builder import build_oseen, synth_stokes_spectrum
from .spectral import (
    _spectral_projector_schur,
    contour_bound_integrals,
    contraction_certificate,
    eig_split,
    riesz_projector,
    riesz_rule,
    sigma_ladder,
    stable_step,
    tail_contraction,
)

STAGES = ("synth", "dichotomy", "certify", "simulate", "density", "mixing", "report")


# the OpenBLAS copies numpy and scipy bundle, and each one's thread-count setter
_OPENBLAS = (("numpy", "scipy_openblas_set_num_threads64_"),
             ("scipy", "scipy_openblas_set_num_threads"))


def pin_blas_threads():
    """Set every bundled OpenBLAS pool to one thread; the count set, or None if none is found.

    numpy and scipy each load their own OpenBLAS (found in numpy.libs and
    scipy.libs).  With more than one thread the products split by thread
    count, so artifacts at n >= 150 would move in their last bits with
    OPENBLAS_NUM_THREADS, and one library's workers spin while the other works.
    """
    found = False
    for pkg, symbol in _OPENBLAS:
        libs = os.path.join(os.path.dirname(sys.modules[pkg].__file__), os.pardir, f"{pkg}.libs")
        for path in glob.glob(os.path.join(libs, "*openblas*")):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [ctypes.c_int], None
                fn(1)
                found = True
    return 1 if found else None


class Pipeline:
    """Holds the config, derived components (built lazily, once per pipeline)
    and the artifact dir.  The chain is read through ``step``: one X_sigma step
    T = e^{-tau A_sigma} per tau; only ``uncontrolled_demo`` forms S(tau).
    Building one pins numpy's and scipy's OpenBLAS to one thread
    (``pin_blas_threads``); the manifest records the count as ``threads``.
    ``run_stage`` runs a stage after synth only on a ``model.json`` recorded
    under this config's hash, then records the stage's artifact checksums, config
    hash and ``elapsed_s``; building a Pipeline does no manifest I/O."""

    def __init__(self, cfg: ExperimentConfig, out_dir, seed_override=None):
        if seed_override is not None:
            cfg = copy.deepcopy(cfg)   # the caller's config keeps its seeds
            cfg.run.seed = seed_override
            cfg.mixing.seed = seed_override + 1
        self.threads = pin_blas_threads()
        self.cfg = cfg
        self.out = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self._cache = {}
        self._stage = None   # the stage run_stage is running, named by MissingPrerequisite

    # -- component construction (deterministic, cheap; rebuilt per stage) --

    def _cached(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def model(self):
        m = self.cfg.model
        return self._cached("model", lambda: build_oseen(
            synth_stokes_spectrum(m.n, m.d, m.beta0, m.remainder_scale, m.spectrum_seed),
            m.b, m.n_unstable, m.build_sigma, m.obs_idx, m.seed, gap_tol=m.build_gap_tol))

    def dichotomy(self):
        return self._cached("dich", lambda: eig_split(self.model(), self.cfg.model.sigma))

    def ladder(self):
        return self._cached("ladder", lambda: sigma_ladder(
            self.model(), self.cfg.model.sigma, self.cfg.run.ladder_levels))

    def controller(self):
        return self._cached("pi", lambda: build_pi(self.dichotomy(), make_control_geometry(
            self.dichotomy(), self.cfg.model.obs_idx, seed=self.cfg.control.seed)))

    def law(self):
        k = self.cfg.kick
        return self._cached("law", lambda: make_kick_law(self.cfg.kick_matrix(), k.eps_hat))

    def step(self, tau):
        return self._cached(("step", tau), lambda: stable_step(self.model(), self.dichotomy(), tau))

    # -- artifact helpers --

    def path(self, name):
        return os.path.join(self.out, name)

    def _stages(self):
        """The manifest's stage records; none before the first stage has run."""
        if not os.path.exists(self.path("manifest.json")):
            return {}
        with open(self.path("manifest.json"), "r", encoding="utf-8") as fh:
            return json.load(fh)["stages"]

    def _require(self, name):
        """Raise unless artifact ``name`` exists and the record that lists it has this config."""
        if not os.path.exists(self.path(name)):
            raise MissingPrerequisite(f"stage '{self._stage}' requires artifact {name}; "
                                      "run the stage that writes it first")
        if not any(name in rec["artifacts"] and rec.get("config_hash") == self.config_hash()
                   for rec in self._stages().values()):
            raise StaleArtifact(f"artifact {name} in {self.out} was not written under this "
                                "config; rerun its stage under this config, or run 'all'")

    def load(self, name):
        """A JSON artifact, once ``_require`` holds: the one way report reads an artifact."""
        self._require(name)
        with open(self.path(name), "r", encoding="utf-8") as fh:
            return json.load(fh)

    def config_hash(self):
        # the output section says where artifacts go, not what they are
        doc = self.cfg.to_dict()
        del doc["output"]
        return hash_arrays(canonical_json(doc))

    # -- stages --

    def stage_synth(self):
        p = self.path("model.json")
        write_json(p, self.model().to_json_dict())
        return [p], 0

    def stage_dichotomy(self):
        dich = self.dichotomy()
        ladder = self.ladder()
        d1 = self.path("dichotomy.json")
        doc = dich.to_json_dict()
        doc["eigenvalues"] = [list(rec) for rec in self.model().spectrum_cache]
        write_json(d1, doc)
        d2 = self.path("ladder.json")
        write_json(d2, ladder.to_json_dict())
        return [d1, d2], 0

    def stage_certify(self):
        model = self.model()
        sigma, tau = self.cfg.model.sigma, self.cfg.run.tau
        gamma0, ok = contraction_certificate(self.step(tau))
        # T(2t) = T(t)^2, so the grid builds only T(1).  While expm scales
        # and squares at t = 1 (scaling exponent >= 1), the square equals
        # expm(-2t A_sigma) bit for bit
        grid, step_t = {}, self.step(1.0)
        for t in (1.0, 2.0, 4.0, 8.0):
            if t > 1.0:
                step_t = step_t.squared()
            grid[str(t)] = gamma0 if t == tau else contraction_certificate(step_t)[0]
        gammas = tail_contraction(self.ladder(), self.step(tau))
        # two independent constructions of one projector: ordered real Schur
        # vs quadrature, on per-edge node counts fixed by the spectrum
        P_schur = _spectral_projector_schur(model, sigma)
        P_quad = riesz_projector(model, sigma)
        _, riesz_nodes, riesz_capped = riesz_rule(model, sigma)
        I1, I2 = contour_bound_integrals(model, sigma, tau)
        doc = {
            "tau": tau,
            "gamma0": gamma0,
            "contraction_ok": ok,
            "gamma0_grid": grid,
            "tail_gammas": gammas.tolist(),
            "riesz_idempotency_residual": float(np.linalg.norm(P_quad @ P_quad - P_quad)),
            "riesz_schur_residual": float(np.linalg.norm(P_quad - P_schur)),
            "schur_projector_norm": float(np.linalg.norm(P_schur)),
            "riesz_nodes": riesz_nodes,
            "riesz_capped": riesz_capped,
            "contour_I1": I1,
            "contour_I2": I2,
        }
        p = self.path("certificate.json")
        write_json(p, doc)
        return [p], 0 if ok else 1

    def stage_simulate(self):
        cfg = self.cfg
        model, dich, pi, law = self.model(), self.dichotomy(), self.controller(), self.law()
        tau = cfg.run.tau
        step = self.step(tau)
        gamma0, _ = contraction_certificate(step)
        w0 = stable_state(dich, cfg.run.w0_scale, cfg.run.w0_seed)
        n_steps, n_unc = cfg.run.n_steps, cfg.run.uncontrolled_steps
        # the blow-up demonstration runs first; it and run_chain each seed a
        # generator of their own, so the order moves no artifact
        ev_min = model.eigvals().real.min()
        demo = uncontrolled_demo(model, tau, law, w0, n_unc, cfg.run.seed) if ev_min < 0 else None

        # one chain on the run seed: trajectory.csv shows its first n_steps
        # steps, and the blow-up ratio reads its norm at uncontrolled_steps
        states = run_chain(step, pi, law, w0, max(n_steps, n_unc), cfg.run.seed)
        norms = np.linalg.norm(states, axis=1)
        pt = self.path("trajectory.csv")
        cols = ["step", "norm"] + [f"w{i}" for i in range(model.n)]
        emit_series(pt, cols, [[k, norms[k]] + list(states[k]) for k in range(n_steps + 1)])

        w0_norm = float(np.linalg.norm(w0))
        ens_norms = []
        for block in ensemble_blocks(step, pi, law, w0, cfg.run.n_chains, n_steps, cfg.run.seed):
            ens_norms.append(np.linalg.norm(block, axis=2))
            del block   # else the loop holds this block while the next is stepped
        ens_norms = np.concatenate(ens_norms)
        rep = envelope_check(ens_norms, w0_norm, gamma0, pi.norm_Pi, law.eps_hat)
        rep["n_chains"] = cfg.run.n_chains
        bound = envelope_bound(n_steps, w0_norm, gamma0, pi.norm_Pi, law.eps_hat)
        pe = self.path("ensemble_norms.csv")
        emit_series(pe, ["step", "mean_norm", "max_norm", "bound"],
                    [[k, ens_norms[:, k].mean(), ens_norms[:, k].max(), bound[k]]
                     for k in range(n_steps + 1)])
        pj = self.path("envelope.json")
        write_json(pj, rep)

        pc = self.path("controller.json")
        write_json(pc, {"norm_Pi": pi.norm_Pi, "cond_M": pi.geometry.cond_M,
                        "obs_idx": list(pi.geometry.obs_idx),
                        "Pi_hash": hash_arrays(pi.Pi_mat)})

        pb = self.path("blowup.json")
        if demo is not None:
            norms_u, rate = demo
            write_json(pb, {"applicable": True,
                            "growth_rate_per_step": rate,
                            "expected_rate": float(-tau * ev_min),
                            "ratio_uncontrolled_controlled": float(norms_u[-1] / norms[n_unc])})
        else:
            write_json(pb, {"applicable": False,
                            "note": "no eigenvalue with negative real part"})
        fail = 0 if (rep["n_violations"] == 0 and rep["certificate_valid"]) else 1
        return [pt, pe, pj, pc, pb], fail

    def stage_density(self):
        cfg = self.cfg
        ladder = self.ladder()
        if cfg.density.alpha_source == "projection":
            pi = self.controller()
            alpha = alpha_from_projection(pi, ladder, cfg.density.level)
            K_proj = projected_kick_covariance(self.cfg.kick_matrix(), ladder, cfg.density.level)
        else:
            alpha = cfg.explicit_alpha()
            # the kick section's own scale: an isotropic K with trace eps_hat^2
            n_kick = alpha.shape[0] + alpha.shape[1]
            K_proj = (cfg.kick.eps_hat ** 2 / n_kick) * np.eye(n_kick)
        if alpha.shape[0] == 0:   # nothing for the kick to be projected onto
            level = cfg.density.level
            raise EmptyMiddleBlock(f"the level-{level} middle block X_(sigma, sigma_{level}) is "
                                   "empty (nm = 0): the projected kick has no density")
        dec = build_pi_decomposition(alpha)
        law = projected_law(K_proj, cfg.kick.eps_hat)
        quad = QuadratureSpec(radial=cfg.density.radial, angular=cfg.density.angular)

        files = []
        doc = {"m": dec.m, "nm": dec.nm, "s": dec.s, "J": dec.J,
               "mu": dec.mu.tolist()}
        if dec.nm <= 2 and dec.m <= 3:
            xs, _ = support_grid(dec, law.eps_hat, cfg.density.grid_points)
            P = density_batch(dec, law, xs, quad)
            pg = self.path("density_grid.csv")
            emit_series(pg, [f"x{i+1}" for i in range(dec.nm)] + ["P"],
                        [list(xs[i]) + [P[i]] for i in range(len(xs))])
            files.append(pg)
            doc["integral"] = density_mass(dec, law, quad)
            # Monte Carlo oracle spot checks on the densest grid points
            top = np.argsort(P)[::-1][:cfg.density.probe_points]
            mc = mc_density_oracle(dec, law, xs[top], cfg.density.mc_oracle_samples,
                                   seed=cfg.kick.seed)
            rows = [list(xs[idx]) + [P[idx], est, se] for idx, (est, se) in zip(top, mc)]
            pm = self.path("density_mc.csv")
            emit_series(pm, [f"x{i+1}" for i in range(dec.nm)] + ["P", "mc_est", "mc_se"], rows)
            files.append(pm)
            doc["mc_max_rel_dev"] = float(max(
                abs(r[dec.nm] - r[dec.nm + 1]) / max(r[dec.nm + 1], 1e-300) for r in rows))
        # boundary exponent probe along a fixed direction
        M = dec.support_quadform()
        xdir = np.ones(dec.nm)
        xb = xdir * (law.eps_hat / np.sqrt(xdir @ M @ xdir))
        probe = boundary_exponent_probe(dec, law, xb, quad=quad)
        doc["boundary_probe"] = probe
        doc["expected_slope"] = dec.m / 2.0
        pj = self.path("density.json")
        write_json(pj, doc)
        files.append(pj)
        return files, 0

    def stage_mixing(self):
        cfg = self.cfg
        model, dich, pi, law = self.model(), self.dichotomy(), self.controller(), self.law()
        mix = cfg.mixing
        step = self.step(mix.tau)
        obs = make_observables(model.n, mix.n_linear, mix.n_radial,
                               seed=mix.obs_seed, radial_scale=mix.radial_scale)
        w0 = stable_state(dich, mix.w0_scale, cfg.run.w0_seed)
        rep = mixing_decay(step, pi, law, w0, -w0, mix.n_chains, mix.n_steps, obs, mix.seed)
        pd = self.path("mixing_dk.csv")
        emit_series(pd, ["k", "d_k", "se_k", "b_k"],
                    [[k, d, se, b] for k, (d, se, b) in enumerate(zip(rep.d_k, rep.se_k, rep.b_k))])
        pj = self.path("mixing.json")
        write_json(pj, rep.to_json_dict())

        step_run = self.step(cfg.run.tau)
        g0, _ = contraction_certificate(step_run)
        sl_a = slln_average(step_run, pi, law, w0, mix.slln_steps, obs, mix.slln_seed_a)
        sl_b = slln_average(step_run, pi, law, w0, mix.slln_steps, obs, mix.slln_seed_b)
        lo = np.maximum(np.array(sl_a["state_ci_low"]), np.array(sl_b["state_ci_low"]))
        hi = np.minimum(np.array(sl_a["state_ci_high"]), np.array(sl_b["state_ci_high"]))
        ps = self.path("slln.json")
        write_json(ps, {"seed_a": sl_a, "seed_b": sl_b,
                        "ci_overlap_all": bool(np.all(lo <= hi))})

        burn = cfg.run.burn_in
        if burn is None:
            burn = max(10, burn_in_floor(law.eps_hat, mix.w0_scale, g0))
        stats = stationary_stats(step_run, pi, law, w0, mix.slln_steps, burn,
                                 mix.seed + 5, gamma0=g0)
        cov_min_eig = float(np.linalg.eigvalsh(stats["cov"]).min())
        pst = self.path("stationary.json")
        write_json(pst, {"mean": stats["mean"].tolist(),
                         "cov_min_eig": cov_min_eig,
                         "norm_hist_counts": stats["norm_hist_counts"].tolist(),
                         "norm_hist_edges": stats["norm_hist_edges"].tolist(),
                         "n_post": stats["n_post"], "burn_in": stats["burn_in"]})

        pt = self.path("tv.json")
        write_json(pt, condition_check(self.ladder(), pi, law, seed=cfg.control.seed))
        return [pd, pj, ps, pst, pt], 0

    def stage_report(self):
        cert = self.load("certificate.json")
        env = self.load("envelope.json")
        dens = self.load("density.json")
        mix = self.load("mixing.json")
        slln = self.load("slln.json")
        stat = self.load("stationary.json")
        blow = self.load("blowup.json")
        tv = self.load("tv.json")

        grid = [cert["gamma0_grid"][k] for k in ("1.0", "2.0", "4.0", "8.0")]
        tails = cert["tail_gammas"]
        excess = max(d - b for d, b in zip(mix["d_k"], mix["b_k"]))
        checks = {
            "contraction_gamma0": {"value": cert["gamma0"], "pass": cert["contraction_ok"]},
            "gamma0_decreasing_in_tau": {"value": grid,
                                         "pass": bool(np.all(np.diff(grid) < 0))},
            "tail_strictly_decreasing": {"value": tails,
                                         "pass": bool(np.all(np.diff(tails) < 0))
                                         and tails[-1] < 0.5 * cert["gamma0"]},
            # the quadrature projector against the ordered-Schur one
            "riesz_cross_check": {"value": cert["riesz_schur_residual"],
                                  "pass": cert["riesz_schur_residual"]
                                  <= 1e-12 * max(1.0, cert["schur_projector_norm"])},
            "tv_ratio_stable": {"value": tv.get("max_ratio"), "pass": tv["pass"]},
            "envelope_zero_violations": {"value": env["n_violations"],
                                         "pass": env["n_violations"] == 0},
            "mixing_fit": {"value": {"gamma": mix["gamma_fit"], "r2": mix["r2"]},
                           "pass": bool(mix["conclusive"] and (mix["gamma_fit"] or 1) < 1)},
            # shared kicks cancel from w_A - w_B: d_k <= b_k chain by chain, up to roundoff
            "mixing_coupling_bound": {"value": excess,
                                      "pass": excess <= 1e-12 * mix["b_k"][0]},
            "slln_two_seed_overlap": {"value": slln["ci_overlap_all"],
                                      "pass": slln["ci_overlap_all"]},
            "stationary_cov_psd": {"value": stat["cov_min_eig"],
                                   "pass": stat["cov_min_eig"] > -1e-10},
            "density_probe_slope": {"value": dens["boundary_probe"]["slope"],
                                    "pass": abs(dens["boundary_probe"]["slope"]
                                                - dens["expected_slope"]) < 0.15},
        }
        if blow.get("applicable", True):
            checks["blowup_ratio"] = {"value": blow["ratio_uncontrolled_controlled"],
                                      "pass": blow["ratio_uncontrolled_controlled"] > 1e3}
        if "integral" in dens:
            checks["density_integral"] = {"value": dens["integral"],
                                          "pass": abs(dens["integral"] - 1.0) < 1e-3}
        if "mc_max_rel_dev" in dens:
            checks["density_mc_agreement"] = {"value": dens["mc_max_rel_dev"],
                                              "pass": dens["mc_max_rel_dev"] < 0.05}
        all_pass = all(c["pass"] for c in checks.values())
        # the inputs: this config's stage records, less an earlier report's own
        h = self.config_hash()
        doc = {"checks": checks, "all_pass": all_pass,
               "artifact_checksums": {s: v["artifacts"] for s, v in self._stages().items()
                                      if s != "report" and v.get("config_hash") == h}}
        p = self.path("report.json")
        write_json(p, doc)
        return [p], 0 if all_pass else 1

    def run_stage(self, stage):
        self._stage = stage
        if stage != STAGES[0]:
            self._require("model.json")   # a stat and the manifest; the model is rebuilt
        t0 = time.perf_counter()
        files, fail = getattr(self, f"stage_{stage}")()
        rec = {"elapsed_s": time.perf_counter() - t0, "config_hash": self.config_hash(),
               "artifacts": {os.path.basename(f): file_checksum(f) for f in files}}
        write_json(self.path("manifest.json"), {"version": __version__, "threads": self.threads,
                                                "stages": {**self._stages(), stage: rec}})
        return fail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kickstab",
        description="Feedback-stabilization laboratory: staged, reproducible experiments.")
    parser.add_argument("stage", choices=list(STAGES) + ["all"],
                        help="pipeline stage to run ('all' runs every stage in order)")
    parser.add_argument("--config", required=True, help="experiment config (JSON)")
    parser.add_argument("--out", default=None, help="output directory (default: config output.dir)")
    parser.add_argument("--seed-override", type=int, default=None,
                        help="override the simulation seeds (model seeds unchanged)")
    args = parser.parse_args(argv)
    if args.seed_override is not None and args.seed_override < 0:
        parser.error("--seed-override must be >= 0")
    try:
        cfg = load_config(args.config)
        out = args.out or cfg.output.dir
        pipe = Pipeline(cfg, out, seed_override=args.seed_override)
        stages = STAGES if args.stage == "all" else (args.stage,)
        worst = 0
        for st in stages:
            fail = pipe.run_stage(st)
            status = "ok" if fail == 0 else "CHECK FAILED"
            if fail and st == "report":
                checks = pipe.load("report.json")["checks"]
                status += ": " + ", ".join(k for k, c in checks.items() if not c["pass"])
            print(f"[{st}] {status}")
            worst = max(worst, fail)
        return worst
    except KickstabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception:   # a crash is a runtime error, not a failed check
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
