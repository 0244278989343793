"""Layer tracing for the benchmark's traced runs.

The tracer wraps public ``kickstab`` functions from the outside: every
module attribute in ``kickstab.*`` that holds a target function object is
rebound to a wrapper, so callers that imported the function by name (``cli``,
``chain``, ``ergodicity``) are traced too.  Spans are kept in memory with
their parent span and thread.  The hot leaf ``kicks.sample_kick`` is
aggregated as a count and busy time per (parent span, thread) instead of one
span per call.

Self time is computed per thread: a span's duration minus the spans and leaf
time that ran under it on the same thread.  Work that a span hands to a
worker thread (the ensemble pool) is therefore busy time of the callee, not
a reduction of the caller's self time.  A worker thread with no open span of
its own is attributed to the innermost open span of the thread that
installed the tracer, which is the one waiting on the pool.
"""

from __future__ import annotations

import inspect
import os
import sys
import threading
import time
from dataclasses import dataclass, field

# (module, function, per-call info hook name or None); leaves are aggregated.
TARGETS = (
    ("kicks", "sample_kick", "leaf"),
    ("kicks", "make_kick_law", "kick_law"),
    ("chain", "run_ensemble", "ensemble"),
    ("chain", "run_chain", None),
    ("chain", "uncontrolled_demo", None),
    ("chain", "envelope_check", None),
    ("ergodicity", "mixing_decay", None),
    ("ergodicity", "slln_average", "n_steps"),
    ("ergodicity", "stationary_stats", "n_steps"),
    ("ergodicity", "condition_check", None),
    ("spectral", "eig_split", None),
    ("spectral", "semigroup", None),
    ("spectral", "contraction_certificate", None),
    ("spectral", "contour_bound_integrals", None),
    ("spectral", "riesz_projector", None),
    ("spectral", "sigma_ladder", None),
    ("spectral", "tail_contraction", None),
    ("model_builder", "build_oseen", None),
    ("feedback", "make_control_geometry", None),
    ("feedback", "build_pi", None),
    ("density", "density_batch", "density_batch"),
    ("density", "mc_density_oracle", None),
    ("density", "boundary_exponent_probe", None),
    ("density", "tv_lipschitz_ratio", None),
    ("density", "projected_law", None),
    ("artifacts", "emit_series", "file_bytes"),
    ("artifacts", "write_json", "file_bytes"),
)


@dataclass
class Span:
    name: str
    parent: "Span | None"
    thread: int
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def slice_nodes(m, quad) -> int:
    """Quadrature nodes per point of ``density_batch`` for fiber dimension m.

    Mirrors the rule choice in ``kickstab.density``: Gauss-Legendre in the
    radius for m = 1, times an angular grid for m = 2, times a polar grid and
    a quarter angular grid for m = 3, and Monte Carlo nodes above that.
    """
    if m <= 1:
        return quad.radial
    if m == 2:
        return quad.radial * quad.angular
    if m == 3:
        return quad.radial * quad.polar * (quad.angular // 4 or 1)
    return quad.mc_nodes


def _bound(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments
    return arguments


def _info_hook(kind, fn):
    """Per-call recorder: (args, kwargs, result) -> dict stored on the span."""
    if kind is None:
        return None
    if kind == "kick_law":
        return lambda a, k, r: {"accept_prob": float(r.norm_const_est[0])}
    if kind == "ensemble":
        # states have shape (chains, steps + 1, n)
        return lambda a, k, r: {"steps": int(r.shape[0]) * (int(r.shape[1]) - 1)}
    arguments = _bound(fn)
    if kind == "n_steps":
        return lambda a, k, r: {"steps": int(arguments(a, k)["n_steps"])}
    if kind == "density_batch":
        def density_info(a, k, r):
            ba = arguments(a, k)
            points = len(r)
            return {"points": points,
                    "point_nodes": points * slice_nodes(ba["dec"].m, ba["quad"])}
        return density_info
    if kind == "file_bytes":
        return lambda a, k, r: {"bytes": os.path.getsize(r)}
    raise ValueError(f"unknown info hook {kind!r}")


class Tracer:
    """Owns the spans of one traced process; ``install`` rebinds the targets."""

    def __init__(self):
        self.spans: list[Span] = []
        # (name, parent span id, thread id) -> [calls, busy seconds, parent span]
        self.leaves: dict[tuple, list] = {}
        self._local = threading.local()
        self._home_stack: list[Span] = []
        self._originals: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        home = self._home_stack
        return home[-1] if home else None

    def wrap(self, fn, name, kind=None):
        clock = time.perf_counter
        if kind == "leaf":
            leaves = self.leaves

            def leaf(*args, **kwargs):
                parent = self._parent(self._stack())
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    # keyed by thread, so no two threads update one entry
                    key = (name, id(parent), threading.get_ident())
                    agg = leaves.get(key)
                    if agg is None:
                        agg = leaves.setdefault(key, [0, 0.0, parent])
                    agg[0] += 1
                    agg[1] += clock() - t0
            leaf.__wrapped__ = fn
            return leaf

        hook = _info_hook(kind, fn)
        spans = self.spans

        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, self._parent(stack), threading.get_ident(), clock())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    span.info = hook(args, kwargs, result)
                return result
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every ``kickstab.*`` attribute holding a target function."""
        import importlib

        self._home_stack = self._stack()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "kickstab" or n.startswith("kickstab."))]
        for mod_name, fn_name, kind in TARGETS:
            mod = importlib.import_module(f"kickstab.{mod_name}")
            fn = getattr(mod, fn_name)
            wrapper = self.wrap(fn, f"{mod_name}.{fn_name}", kind)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        self._originals.append((m, attr, fn))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, fn in reversed(self._originals):
            setattr(m, attr, fn)
        self._originals.clear()

    # -- aggregation --

    def summary(self) -> dict:
        """Per-function calls, busy and self seconds, and summed span info."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None and s.parent.thread == s.thread:
                child_time[id(s.parent)] = child_time.get(id(s.parent), 0.0) + s.duration
        out: dict[str, dict] = {}
        for (name, parent_id, thread), (calls, busy, parent) in self.leaves.items():
            rec = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            rec["calls"] += calls
            rec["busy_s"] += busy
            rec["self_s"] += busy
            if parent is not None and parent.thread == thread:
                child_time[parent_id] = child_time.get(parent_id, 0.0) + busy
        for s in self.spans:
            rec = out.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["busy_s"] += s.duration
            rec["self_s"] += s.duration - child_time.get(id(s), 0.0)
            for key, val in s.info.items():
                rec[key] = rec.get(key, 0) + val
        return out
