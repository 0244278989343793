"""Self-tests of the benchmark harness, in a fast smoke mode.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs a tiny config once untraced and once traced (one repetition each)
and checks that:
  - every metric named in BENCHMARK.json is emitted, with its unit;
  - the tracer counts exactly n_chains * n_steps sample_kick calls for a
    known run_ensemble, also through a two-thread pool;
  - the determinism check fires on a perturbed artifact checksum.
Exits 0 when every check passes.
"""

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from layertrace import Tracer  # noqa: E402
from workloads import ALL_STAGES, Workload, report_gates  # noqa: E402

SMOKE = Workload(
    name="smoke",
    config={
        "kick": {"eps_hat": 0.01},
        "run": {"n_steps": 20, "n_chains": 10, "uncontrolled_steps": 20},
        "density": {"grid_points": 16, "probe_points": 1, "mc_oracle_samples": 10_000,
                    "radial": 16, "angular": 32},
        "mixing": {"n_chains": 10, "n_steps": 20, "slln_steps": 600},
    },
    stages=ALL_STAGES,
    gates=report_gates,
)


def check(cond, msg):
    if not cond:
        raise AssertionError(msg)


def test_metrics_emitted_with_units():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        declared = {m["name"]: m["unit"] for m in bench[section]}
        rec = run.measure(SMOKE, seed=1, seconds=0, trace=trace, max_reps=1, setup_samples=1)
        got = {k: v["unit"] for k, v in rec["metrics"].items()}
        check(got == declared, f"{section}: emitted {sorted(set(got) ^ set(declared))} "
                               f"differ from BENCHMARK.json, or units differ")
        for k, v in rec["metrics"].items():
            check(isinstance(v["value"], (int, float)) and math.isfinite(v["value"]),
                  f"{k} is not a finite number: {v['value']!r}")
        check(rec["attempted"] >= len(ALL_STAGES), "operations not counted")
        run.check_determinism(SMOKE.name, rec["repetitions"])


def test_tracer_counts_sample_kick_calls():
    import tempfile

    import kickstab.chain
    import kickstab.cli
    from kickstab.cli import Pipeline
    from kickstab.config import config_from_dict
    from kickstab.spectral import semigroup

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        pipe = Pipeline(config_from_dict(SMOKE.config), tmp)
        model, pi, law = pipe.model(), pipe.controller(), pipe.law()
        S = semigroup(model, 1.0)
        w0 = pipe.dichotomy().stable_basis[:, 0] * 1e-3
        tracer = Tracer()
        tracer.install()
        try:
            check(kickstab.cli.run_ensemble is kickstab.chain.run_ensemble,
                  "a by-name import of run_ensemble was not rebound")
            n_chains, n_steps = 7, 5
            for threads in (1, 2):
                kickstab.chain.run_ensemble(S, pi, law, w0, n_chains, n_steps, seed=3,
                                            threads=threads)
        finally:
            tracer.uninstall()
    layers = tracer.summary()
    calls = layers["kicks.sample_kick"]["calls"]
    check(calls == 2 * n_chains * n_steps,
          f"counted {calls} sample_kick calls, expected {2 * n_chains * n_steps}")
    check(layers["chain.run_ensemble"]["calls"] == 2, "run_ensemble spans missing")
    check(layers["chain.run_ensemble"]["steps"] == 2 * n_chains * n_steps,
          "run_ensemble steps miscounted")


def test_determinism_check_fires():
    reps = [{"checksums": {"synth": {"model.json": "a" * 64}}} for _ in range(3)]
    run.check_determinism("smoke", reps)
    reps[2]["checksums"]["synth"]["model.json"] = "b" * 64
    try:
        run.check_determinism("smoke", reps)
    except run.DeterminismError as exc:
        check("smoke" in str(exc) and "synth" in str(exc),
              f"message does not name the workload and stage: {exc}")
    else:
        raise AssertionError("a perturbed checksum passed the determinism check")


def main() -> int:
    tests = [test_determinism_check_fires, test_tracer_counts_sample_kick_calls,
             test_metrics_emitted_with_units]
    failed = 0
    for t in tests:
        try:
            t()
            print(f"ok   {t.__name__}")
        except Exception as exc:  # report every test, then fail the run
            failed += 1
            print(f"FAIL {t.__name__}: {type(exc).__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
