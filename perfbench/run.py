"""Benchmark harness for kickstab: end-to-end metrics and a traced layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pipeline-n20 --seed 1 --seconds 15 --trace 0

Each repetition runs the workload's stage list in a fresh process
(``child.py``) under a memory cap.  Repetitions continue while fewer than
``--seconds`` seconds have passed (at least one).  Extra set-up-only
processes top the set-up samples up to ``SETUP_SAMPLES``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: end-to-end metrics (medians over repetitions) with
``--trace 0``, per-layer metrics of a traced repetition with ``--trace 1``.
A traced run alternates untraced and traced repetitions, so the tracing
overhead is measured in the same run.

Correctness: every repetition of a run must write byte-identical artifacts
(the manifest's checksums); a mismatch names the workload and exits 1.
Each run also writes a full record, stamped with its environment, to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json``.

See README.md for the workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
from workloads import ALL_STAGES, WORKLOADS, Workload  # noqa: E402

# Address-space cap of each child: about twice the 1.4 GB peak of density-m2,
# and well under the memory of the 7-8 GB machines this runs on.  A memory
# regression then raises MemoryError in the stage (a counted failure)
# instead of exhausting the machine.
MEMORY_CAP_BYTES = 3 * 2 ** 30
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0   # a run must end within 180 s; children still running are killed

END_TO_END = {
    "total_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

_SPECTRAL = ("eig_split", "semigroup", "contraction_certificate", "contour_bound_integrals",
             "riesz_projector", "sigma_ladder", "tail_contraction")
_ERGODICITY = ("mixing_decay", "slln_average", "stationary_stats", "condition_check")
_DENSITY_BUSY = ("mc_density_oracle", "boundary_exponent_probe", "tv_lipschitz_ratio",
                 "projected_law")

PER_LAYER = {}
for _st in ALL_STAGES:
    PER_LAYER[f"cli.stage.{_st}_s"] = "s"
    PER_LAYER[f"cli.stage.{_st}.peak_mb"] = "MB"
PER_LAYER.update({
    "setup.import_s": "s",
    "setup.config_s": "s",
    "kicks.sample_kick.calls": "count",
    "kicks.sample_kick.busy_s": "s",
    "kicks.kicks_per_s": "1/s",
    "kicks.make_kick_law.busy_s": "s",
    "kicks.accept_prob": "ratio",
    "chain.run_ensemble.calls": "count",
    "chain.run_ensemble.busy_s": "s",
    "chain.run_ensemble.self_s": "s",
    "chain.ensemble_steps_per_s": "1/s",
    "chain.run_chain.busy_s": "s",
    "chain.uncontrolled_demo.busy_s": "s",
    "chain.envelope_check.busy_s": "s",
})
for _f in _ERGODICITY:
    PER_LAYER[f"ergodicity.{_f}.busy_s"] = "s"
    PER_LAYER[f"ergodicity.{_f}.self_s"] = "s"
PER_LAYER["ergodicity.single_chain_steps_per_s"] = "1/s"
for _f in _SPECTRAL:
    PER_LAYER[f"spectral.{_f}.calls"] = "count"
    PER_LAYER[f"spectral.{_f}.busy_s"] = "s"
PER_LAYER.update({
    "model_builder.build_oseen.calls": "count",
    "model_builder.build_oseen.busy_s": "s",
    "feedback.make_control_geometry.busy_s": "s",
    "feedback.build_pi.busy_s": "s",
    "density.density_batch.calls": "count",
    "density.density_batch.points": "count",
    "density.density_batch.busy_s": "s",
    "density.points_nodes_per_s": "1/s",
})
for _f in _DENSITY_BUSY:
    PER_LAYER[f"density.{_f}.busy_s"] = "s"
PER_LAYER.update({
    "artifacts.emit_series.calls": "count",
    "artifacts.emit_series.busy_s": "s",
    "artifacts.bytes_written": "B",
    "artifacts.write_json.busy_s": "s",
    "trace.overhead_frac": "ratio",
})


class DeterminismError(Exception):
    """Two repetitions of one workload at one seed wrote different artifacts."""


class HarnessError(Exception):
    """The benchmark could not run the program at all."""


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


class Runner:
    """Starts and reaps the child processes of one benchmark run."""

    def __init__(self, workload: Workload, seed: int, work: Path, t_start: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = t_start + RUN_LIMIT_S
        self.count = 0
        self.config = work / "config.json"
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(workload.config, fh)
        src = str(ROOT / "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def _spawn(self, extra):
        """Run child.py to completion; returns (record, t_spawn, rusage, out_dir)."""
        self.count += 1
        out_dir = self.work / f"rep{self.count}"
        result = self.work / f"rep{self.count}.json"
        log = self.work / f"rep{self.count}.log"
        cmd = [sys.executable, str(HERE / "child.py"), "--config", str(self.config),
               "--out", str(out_dir), "--stages", ",".join(self.workload.stages),
               "--seed", str(self.seed), "--result", str(result), *extra]
        with open(log, "wb") as fh:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=self.env,
                                    cwd=str(ROOT), preexec_fn=_cap_memory)
            status, ru = self._reap(proc)
        if status != 0 or not result.exists():
            tail = log.read_text(errors="replace")[-2000:]
            raise HarnessError(f"child exited with status {status}:\n{tail}")
        with open(result, "r", encoding="utf-8") as fh:
            rec = json.load(fh)
        if not rec["kickstab_file"].startswith(str(ROOT / "src")):
            raise HarnessError(f"imported kickstab from {rec['kickstab_file']}, "
                               f"not from {ROOT / 'src'}")
        return rec, t_spawn, ru, out_dir

    def _reap(self, proc):
        """Wait for the child, killing it at the run deadline; returns (status, rusage)."""
        try:
            while True:
                pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > self.deadline:
                    proc.kill()
                    _, status, ru = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.02)
        except BaseException:
            # interrupted while waiting: leave no child running behind
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, ru

    def setup_probe(self) -> float:
        rec, t_spawn, _, _ = self._spawn(["--setup-only"])
        return rec["t_ready"] - t_spawn

    def rep(self, traced: bool) -> dict:
        rec, t_spawn, ru, out_dir = self._spawn(["--trace"] if traced else [])
        wl = self.workload
        gates = wl.gates(str(out_dir))
        try:
            with open(out_dir / "manifest.json", "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except OSError:
            manifest = {"stages": {}, "threads": None}
        rep = {
            "traced": traced,
            "total_s": rec["t_last"] - rec["t_first"],
            "setup_s": rec["t_first"] - t_spawn,
            "cpu_s": rec["cpu_s"],
            "peak_rss_mb": ru.ru_maxrss / 1024.0,
            "stage_s": {st: v["s"] for st, v in rec["stages"].items()},
            "errors": rec["errors"],
            "gates": gates,
            "attempted": len(wl.stages) + len(gates),
            "failed": len(rec["errors"]) + sum(not ok for ok in gates.values()),
            "checksums": {st: manifest["stages"].get(st, {}).get("artifacts")
                          for st in wl.stages},
            "program_threads": manifest.get("threads"),
            "environment": rec["environment"],
        }
        if traced:
            rep["layer_metrics"] = layer_metrics(rec)
        shutil.rmtree(out_dir, ignore_errors=True)
        return rep


def check_determinism(workload_name: str, reps: list) -> None:
    """Raise DeterminismError unless every repetition wrote identical artifacts."""
    ref = reps[0]["checksums"]
    for i, rep in enumerate(reps[1:], start=2):
        if rep["checksums"] != ref:
            diff = sorted(st for st in set(ref) | set(rep["checksums"])
                          if ref.get(st) != rep["checksums"].get(st))
            raise DeterminismError(
                f"workload {workload_name}: repetition {i} wrote artifacts that differ "
                f"from repetition 1 in stage(s) {', '.join(diff)}")


def layer_metrics(rec: dict) -> dict:
    """Per-layer metrics of one traced repetition (see README.md)."""
    layers = rec["layers"]

    def get(name, key):
        return layers.get(name, {}).get(key, 0)

    def rate(work, busy):
        return work / busy if busy > 0 else 0.0

    m = {}
    for st in ALL_STAGES:
        s = rec["stages"].get(st, {})
        m[f"cli.stage.{st}_s"] = s.get("s", 0.0)
        m[f"cli.stage.{st}.peak_mb"] = s.get("peak_mb", 0.0)
    m["setup.import_s"] = rec["import_s"]
    m["setup.config_s"] = rec["config_s"]

    kick_calls, kick_busy = get("kicks.sample_kick", "calls"), get("kicks.sample_kick", "busy_s")
    m["kicks.sample_kick.calls"] = kick_calls
    m["kicks.sample_kick.busy_s"] = kick_busy
    m["kicks.kicks_per_s"] = rate(kick_calls, kick_busy)
    m["kicks.make_kick_law.busy_s"] = get("kicks.make_kick_law", "busy_s")
    m["kicks.accept_prob"] = rate(get("kicks.make_kick_law", "accept_prob"),
                                  get("kicks.make_kick_law", "calls"))

    m["chain.run_ensemble.calls"] = get("chain.run_ensemble", "calls")
    m["chain.run_ensemble.busy_s"] = get("chain.run_ensemble", "busy_s")
    m["chain.run_ensemble.self_s"] = get("chain.run_ensemble", "self_s")
    m["chain.ensemble_steps_per_s"] = rate(get("chain.run_ensemble", "steps"),
                                           get("chain.run_ensemble", "busy_s"))
    for f in ("run_chain", "uncontrolled_demo", "envelope_check"):
        m[f"chain.{f}.busy_s"] = get(f"chain.{f}", "busy_s")

    for f in _ERGODICITY:
        m[f"ergodicity.{f}.busy_s"] = get(f"ergodicity.{f}", "busy_s")
        m[f"ergodicity.{f}.self_s"] = get(f"ergodicity.{f}", "self_s")
    single = ("ergodicity.slln_average", "ergodicity.stationary_stats")
    m["ergodicity.single_chain_steps_per_s"] = rate(sum(get(f, "steps") for f in single),
                                                    sum(get(f, "busy_s") for f in single))

    for f in _SPECTRAL:
        m[f"spectral.{f}.calls"] = get(f"spectral.{f}", "calls")
        m[f"spectral.{f}.busy_s"] = get(f"spectral.{f}", "busy_s")
    m["model_builder.build_oseen.calls"] = get("model_builder.build_oseen", "calls")
    m["model_builder.build_oseen.busy_s"] = get("model_builder.build_oseen", "busy_s")
    m["feedback.make_control_geometry.busy_s"] = get("feedback.make_control_geometry", "busy_s")
    m["feedback.build_pi.busy_s"] = get("feedback.build_pi", "busy_s")

    m["density.density_batch.calls"] = get("density.density_batch", "calls")
    m["density.density_batch.points"] = get("density.density_batch", "points")
    m["density.density_batch.busy_s"] = get("density.density_batch", "busy_s")
    m["density.points_nodes_per_s"] = rate(get("density.density_batch", "point_nodes"),
                                           get("density.density_batch", "busy_s"))
    for f in _DENSITY_BUSY:
        m[f"density.{f}.busy_s"] = get(f"density.{f}", "busy_s")

    m["artifacts.emit_series.calls"] = get("artifacts.emit_series", "calls")
    m["artifacts.emit_series.busy_s"] = get("artifacts.emit_series", "busy_s")
    m["artifacts.bytes_written"] = (get("artifacts.emit_series", "bytes")
                                    + get("artifacts.write_json", "bytes"))
    m["artifacts.write_json.busy_s"] = get("artifacts.write_json", "busy_s")
    return m


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            max_reps: int | None = None, setup_samples: int = SETUP_SAMPLES) -> dict:
    """Run one benchmark run; returns the full record (metrics included).

    ``max_reps`` caps the repetitions (or traced pairs); the smoke test sets 1.
    """
    t_start = time.monotonic()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        runner = Runner(workload, seed, work, t_start)
        reps, setups = [], []
        while True:
            if trace:
                reps.append(runner.rep(traced=False))
                reps.append(runner.rep(traced=True))
            else:
                reps.append(runner.rep(traced=False))
                setups.append(reps[-1]["setup_s"])
            done = len(reps) // 2 if trace else len(reps)
            if time.monotonic() - t_start >= seconds or (max_reps and done >= max_reps):
                break
        while not trace and len(setups) < setup_samples:
            setups.append(runner.setup_probe())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    untraced = [r for r in reps if not r["traced"]]
    if trace:
        traced = [r for r in reps if r["traced"]]
        metrics = {k: statistics.median(r["layer_metrics"][k] for r in traced)
                   for k in traced[0]["layer_metrics"]}
        metrics["trace.overhead_frac"] = (
            statistics.median(r["total_s"] for r in traced)
            / statistics.median(r["total_s"] for r in untraced) - 1.0)
        units = PER_LAYER
    else:
        metrics = {k: statistics.median(r[k] for r in reps)
                   for k in ("total_s", "cpu_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setups)
        metrics["ok_frac"] = 1.0 - failed / attempted
        units = END_TO_END
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "setup_samples": setups,
        "repetitions": [{k: v for k, v in r.items() if k != "environment"} for r in reps],
        "environment": environment(reps),
        "memory_cap_bytes": MEMORY_CAP_BYTES,
        "wall_s": time.monotonic() - t_start,
    }
    return record


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """sha256 over the program's source files, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def environment(reps) -> dict:
    env = dict(reps[0]["environment"])
    env.update(nproc=os.cpu_count(), program_threads=reps[0]["program_threads"],
               git_commit=_git_commit(), source_sha256=_source_digest())
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "kickstab" / "__init__.py").is_file():
        print(f"error: no kickstab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    try:
        record = measure(wl, args.seed, args.seconds, bool(args.trace))
        check_determinism(wl.name, record["repetitions"])
        correct = True
    except HarnessError as exc:
        print(f"error: workload {wl.name}: {exc}", file=sys.stderr)
        return 1
    except DeterminismError as exc:
        print(f"error: {exc}", file=sys.stderr)
        correct = False
    record["correct"] = correct
    path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for i, r in enumerate(record["repetitions"], start=1):
        print(f"rep {i}{' traced' if r['traced'] else ''}: total_s={r['total_s']:.3f} "
              f"cpu_s={r['cpu_s']:.3f} peak_rss_mb={r['peak_rss_mb']:.1f} "
              f"errors={r['errors']} gates_failed="
              f"{[g for g, ok in r['gates'].items() if not ok]}")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
