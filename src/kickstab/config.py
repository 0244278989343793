"""Experiment configuration: one JSON document, sections mirroring modules.

Contract: every config that loads runs each stage or stops with a named
KickstabError.  Missing keys take defaults.  An unknown key, a value not of
its field's declared type (a bool is no number; null only where ``| None``),
a float whose square is not finite, or a breach of a rule in _RULES or
_validate raises a ValidationError naming the field.  The dichotomy stage
checks the sigma gap.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from numbers import Integral, Real
from sys import float_info

import numpy as np

from .errors import ParseError, ValidationError
from .kicks import make_kick_law

__all__ = ["ExperimentConfig", "load_config", "save_config", "config_from_dict"]


@dataclass
class ModelSection:
    n: int = 20
    d: int = 2
    beta0: float = 1.05
    remainder_scale: float = 1.1
    spectrum_seed: int = 34
    b: float = 0.5
    n_unstable: int = 1
    build_sigma: float = 0.0
    build_gap_tol: float = 0.04
    sigma: float = 0.5
    obs_idx: list = field(default_factory=lambda: list(range(10, 20)))
    seed: int = 0


@dataclass
class ControlSection:
    seed: int = 1


@dataclass
class KickSection:
    K: str = "diag"                 # "diag" pattern j^-power or "dense"
    power: float = 2.0
    scale: float | None = None      # diag only; None: scale so trace(K) = eps_hat^2
    entries: list | None = None     # dense row-major or explicit diagonal
    eps_hat: float = None           # required
    seed: int = 7                   # mc_density_oracle only; kicks draw on run/mixing/SLLN seeds


@dataclass
class RunSection:
    tau: float = 2.0
    n_steps: int = 200
    n_chains: int = 1000
    burn_in: int | None = None      # None: transient floor from gamma0
    ladder_levels: int = 3
    w0_scale: float = 1.0
    w0_seed: int = 3
    seed: int = 11
    uncontrolled_steps: int = 100


@dataclass
class DensitySection:
    alpha_source: str = "projection"   # or "explicit"
    level: int = 1
    alpha: list | None = None          # row-major when explicit
    alpha_shape: list | None = None
    radial: int = 64
    angular: int = 256
    grid_points: int = 96
    probe_points: int = 5
    mc_oracle_samples: int = 400_000


@dataclass
class MixingSection:
    tau: float = 0.25
    n_chains: int = 500
    n_steps: int = 100
    n_linear: int = 20
    n_radial: int = 10
    radial_scale: float = 0.3
    obs_seed: int = 9
    seed: int = 21
    slln_steps: int = 20_000
    slln_seed_a: int = 31
    slln_seed_b: int = 32
    w0_scale: float = 0.5


@dataclass
class OutputSection:
    dir: str = "out"


@dataclass
class ExperimentConfig:
    model: ModelSection = field(default_factory=ModelSection)
    control: ControlSection = field(default_factory=ControlSection)
    kick: KickSection = field(default_factory=KickSection)
    run: RunSection = field(default_factory=RunSection)
    density: DensitySection = field(default_factory=DensitySection)
    mixing: MixingSection = field(default_factory=MixingSection)
    output: OutputSection = field(default_factory=OutputSection)

    def to_dict(self) -> dict:
        return asdict(self)

    def kick_matrix(self) -> np.ndarray:
        """Assemble the correlation matrix from the kick section."""
        n = self.model.n
        k = self.kick
        if k.K == "dense":
            return np.array(k.entries, dtype=float).reshape(n, n)
        if k.entries is not None:
            diag = np.array(k.entries, dtype=float)
        else:
            diag = np.arange(1, n + 1, dtype=float) ** -k.power
        scale = k.scale
        if scale is None:
            scale = self.kick.eps_hat ** 2 / diag.sum()
        return np.diag(scale * diag)

    def explicit_alpha(self) -> np.ndarray:
        """The explicit density.alpha, reshaped to alpha_shape when one is given."""
        alpha = np.array(self.density.alpha, dtype=float)
        if self.density.alpha_shape:
            alpha = alpha.reshape(self.density.alpha_shape)
        return alpha


_SECTIONS = {f.name: f.type for f in fields(ExperimentConfig)}


def config_from_dict(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ValidationError("(root)", "config must be a JSON object")
    cfg = ExperimentConfig()
    for key, value in doc.items():
        if key not in _SECTIONS:
            raise ValidationError(key, "unknown section")
        if not isinstance(value, dict):
            raise ValidationError(key, "section must be an object")
        sec = getattr(cfg, key)
        for name, v in value.items():
            if name not in {f.name for f in fields(sec)}:
                raise ValidationError(f"{key}.{name}", "unknown key")
            setattr(sec, name, v)
    _validate(cfg)
    return cfg


# The rule of each single field, applied after its type: ">" and ">=" bound a
# number, "in" lists the admissible values, "of" gives the type of each entry
# of a list, and "rows of" that of each entry of a list or of its nested rows.
# Every seed is >= 0.  The rules that tie fields together are in _validate.
_RULES = {name: (op, bound) for name, op, bound in (
    ("model.n", "in", range(1, 10_001)),   # an n x n matrix takes 0.8 GB at n = 10^4
    ("model.d", "in", (2, 3)), ("model.beta0", ">", 0), ("model.remainder_scale", ">=", 0),
    ("model.n_unstable", ">=", 0), ("model.sigma", ">", 0), ("model.obs_idx", "of", "int"),
    ("kick.K", "in", ("diag", "dense")), ("kick.scale", ">", 0), ("kick.entries", "of", "float"),
    ("kick.eps_hat", ">", 0), ("run.tau", ">", 0), ("run.n_steps", ">=", 1),
    ("run.n_chains", ">=", 1), ("run.burn_in", ">=", 0), ("run.ladder_levels", ">=", 1),
    ("run.uncontrolled_steps", ">=", 2),   # a line is fitted through the last half of the norms
    ("density.alpha_source", "in", ("projection", "explicit")), ("density.level", ">=", 1),
    ("density.alpha", "rows of", "float"), ("density.alpha_shape", "of", "int"),
    ("density.radial", ">=", 1), ("density.angular", ">=", 1), ("density.grid_points", ">=", 1),
    ("density.probe_points", ">=", 1), ("density.mc_oracle_samples", ">=", 10_000),
    ("mixing.tau", ">", 0), ("mixing.n_chains", ">=", 2), ("mixing.n_steps", ">=", 1),
    ("mixing.slln_steps", ">=", 30),   # slln_average's batch means need a step per batch
    ("mixing.n_linear", ">=", 0), ("mixing.n_radial", ">=", 0))}
_KINDS = {"int": (Integral, "an integer"), "float": (Real, "a number"),
          "str": (str, "a string"), "list": (list, "a list")}


def _check(name, kind, value):
    """An int is an integer and a float a number, neither a bool; a float and
    its square are finite (norms square it, and float ** raises on overflow)."""
    cls, noun = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, cls):
        raise ValidationError(name, f"must be {noun}")
    if kind == "float" and not abs(value) <= math.sqrt(float_info.max):   # not nan either
        raise ValidationError(name, "must be finite, and so must its square")


def _check_fields(cfg: ExperimentConfig):
    """Each field holds its declared type (null only where ``| None``) and obeys _RULES."""
    for section in _SECTIONS:
        sec = getattr(cfg, section)
        for f in fields(sec):
            kind, _, optional = f.type.partition(" | ")
            value, name = getattr(sec, f.name), f"{section}.{f.name}"
            if value is None and optional:
                continue
            if value is None:
                raise ValidationError(name, "required")
            _check(name, kind, value)
            op, bound = _RULES.get(name, (">=" if "seed" in f.name else None, 0))
            if op in ("of", "rows of"):
                for v in value:
                    for leaf in v if op == "rows of" and isinstance(v, list) else [v]:
                        _check(name, bound, leaf)
            elif op == "in" and value not in bound:
                raise ValidationError(name, f"must be in {bound!r}")
            elif op == ">" and not value > bound or op == ">=" and not value >= bound:
                raise ValidationError(name, f"must be {op} {bound}")


def _validate(cfg: ExperimentConfig):
    _check_fields(cfg)
    m, k, dens, mix = cfg.model, cfg.kick, cfg.density, cfg.mixing
    if m.n_unstable >= m.n:
        raise ValidationError("model.n_unstable", "must be < model.n")
    if m.remainder_scale >= m.beta0 * np.log(3.0):   # else a Stokes eigenvalue may be <= 0
        raise ValidationError("model.remainder_scale", "must be < model.beta0 * ln 3")
    if m.sigma >= np.exp(2.0 / m.d):
        raise ValidationError("model.sigma", "must be < e^(2 / model.d), the first ladder segment")
    if len(set(m.obs_idx)) < len(m.obs_idx) or not all(0 <= i < m.n for i in m.obs_idx):
        raise ValidationError("model.obs_idx", "must be distinct indices in [0, model.n)")
    if k.eps_hat ** 2 == 0.0:   # the eps-ball and the default K scale with eps_hat^2
        raise ValidationError("kick.eps_hat", "its square underflows to 0")
    if k.entries is not None or k.K == "dense":
        size = m.n ** 2 if k.K == "dense" else m.n
        if k.entries is None or len(k.entries) != size:
            raise ValidationError("kick.entries", f"{k.K} K needs {size} entries")
    if k.K == "dense":
        if k.scale is not None:
            raise ValidationError("kick.scale", "a dense K is taken as given; drop kick.scale")
        try:   # make_kick_law's own test, an eigensolve
            make_kick_law(cfg.kick_matrix(), k.eps_hat)
        except ValueError as exc:   # not symmetric, or not positive definite
            raise ValidationError("kick.entries", str(exc)) from exc
    else:
        with np.errstate(over="ignore", invalid="ignore"):   # j^-power may overflow
            diag = np.diag(cfg.kick_matrix())
        if not np.all(np.isfinite(diag) & (diag > 0)):
            field = "kick.entries" if k.entries is not None else "kick.power"
            raise ValidationError(field, "the diagonal of K must be finite and positive")
    if cfg.run.burn_in is not None and cfg.run.burn_in >= mix.slln_steps:
        raise ValidationError("run.burn_in", "must be < mixing.slln_steps")
    if mix.n_linear + mix.n_radial == 0:
        # d_k is a maximum over the observables
        raise ValidationError("mixing.n_linear", "mixing.n_linear + mixing.n_radial must be >= 1")
    if dens.alpha_source == "explicit":
        if dens.alpha is None:
            raise ValidationError("density.alpha", "required for explicit alpha_source")
        try:
            ndim = cfg.explicit_alpha().ndim
        except ValueError as exc:   # ragged rows, or a size that does not fit alpha_shape
            raise ValidationError("density.alpha", str(exc)) from exc
        if ndim != 2:
            raise ValidationError("density.alpha", "must be 2-D (nm x m): nest it, or give alpha_shape")
    if dens.level > cfg.run.ladder_levels:
        raise ValidationError("density.level", "must be <= run.ladder_levels")


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return config_from_dict(doc)


def save_config(cfg: ExperimentConfig, path) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
