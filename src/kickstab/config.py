"""Experiment configuration: one JSON document, sections mirroring modules.

Unknown keys are rejected; missing optional keys take defaults; every value
that would crash a stage is rejected at load with a ValidationError naming
its field (the sigma gap itself is verified by the dichotomy stage).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from numbers import Integral, Real

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
    eps_hat: float | None = None
    seed: int = 7


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


def _build_section(cls, data, path):
    known = {f.name: f for f in fields(cls)}
    out = cls()
    for key, value in data.items():
        if key not in known:
            raise ValidationError(f"{path}.{key}", "unknown key")
        setattr(out, key, value)
    return out


def config_from_dict(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ValidationError("(root)", "config must be a JSON object")
    cfg = ExperimentConfig()
    for key, value in doc.items():
        if key not in _SECTIONS:
            raise ValidationError(key, "unknown section")
        if not isinstance(value, dict):
            raise ValidationError(key, "section must be an object")
        setattr(cfg, key, _build_section(type(getattr(cfg, key)), value, key))
    _validate(cfg)
    return cfg


def _check_scalars(cfg: ExperimentConfig):
    """Each int or float field holds its declared type: an int field an
    integer (not a bool), a float field a finite number (not a bool); a field
    declared ``| None`` may also be null.  Seeds must be non-negative."""
    for section in _SECTIONS:
        sec = getattr(cfg, section)
        for f in fields(sec):
            kind, _, optional = f.type.partition(" | ")
            value, name = getattr(sec, f.name), f"{section}.{f.name}"
            if kind not in ("int", "float") or (value is None and optional):
                continue
            number, noun = (Integral, "an integer") if kind == "int" else (Real, "a number")
            if isinstance(value, bool) or not isinstance(value, number):
                raise ValidationError(name, f"must be {noun}")
            if not math.isfinite(value):
                raise ValidationError(name, "must be finite")
            if "seed" in f.name and value < 0:
                raise ValidationError(name, "must be >= 0")


def _validate(cfg: ExperimentConfig):
    _check_scalars(cfg)
    m = cfg.model
    if m.n < 1:
        raise ValidationError("model.n", "must be >= 1")
    if m.d not in (2, 3):
        raise ValidationError("model.d", "must be 2 or 3")
    if m.beta0 <= 0:
        raise ValidationError("model.beta0", "must be positive")
    if not 0 <= m.n_unstable < m.n:
        raise ValidationError("model.n_unstable", "must satisfy 0 <= n_unstable < n")
    if m.sigma <= 0:
        raise ValidationError("model.sigma", "must be positive")
    if any(not 0 <= i < m.n for i in m.obs_idx):
        raise ValidationError("model.obs_idx", "indices out of range")
    if cfg.kick.eps_hat is None:
        raise ValidationError("kick.eps_hat", "required")
    if cfg.kick.eps_hat <= 0:
        raise ValidationError("kick.eps_hat", "must be positive")
    k = cfg.kick
    if k.K not in ("diag", "dense"):
        raise ValidationError("kick.K", "must be 'diag' or 'dense'")
    if k.entries is not None or k.K == "dense":
        size = m.n ** 2 if k.K == "dense" else m.n
        if k.entries is None or len(k.entries) != size:
            raise ValidationError("kick.entries", f"{k.K} K needs {size} entries")
    if k.scale is not None and k.scale <= 0:
        raise ValidationError("kick.scale", "must be positive")
    if k.K == "dense":
        if k.scale is not None:
            raise ValidationError("kick.scale", "a dense K is taken as given; drop kick.scale")
        try:   # make_kick_law's own test, an eigensolve
            make_kick_law(cfg.kick_matrix(), k.eps_hat, k.seed)
        except ValueError as exc:   # not symmetric, or not positive definite
            raise ValidationError("kick.entries", str(exc)) from exc
    else:
        with np.errstate(over="ignore", invalid="ignore"):   # j^-power may overflow
            diag = np.diag(cfg.kick_matrix())
        if not np.all(np.isfinite(diag) & (diag > 0)):
            field = "kick.entries" if k.entries is not None else "kick.power"
            raise ValidationError(field, "the diagonal of K must be finite and positive")
    if cfg.run.tau <= 0:
        raise ValidationError("run.tau", "must be positive")
    if cfg.run.n_steps < 1:
        raise ValidationError("run.n_steps", "must be >= 1")
    if cfg.run.n_chains < 1:
        raise ValidationError("run.n_chains", "must be >= 1")
    if cfg.run.ladder_levels < 1:
        raise ValidationError("run.ladder_levels", "must be >= 1")
    if cfg.run.uncontrolled_steps < 2:
        # the growth rate is a line fitted through the last half of the norms
        raise ValidationError("run.uncontrolled_steps", "must be >= 2")
    burn = cfg.run.burn_in
    if burn is not None and not 0 <= burn < cfg.mixing.slln_steps:
        raise ValidationError("run.burn_in", "must satisfy 0 <= burn_in < mixing.slln_steps")
    if cfg.mixing.tau <= 0:
        raise ValidationError("mixing.tau", "must be positive")
    if cfg.mixing.n_chains < 2:
        raise ValidationError("mixing.n_chains", "must be >= 2")
    if cfg.mixing.slln_steps < 30:
        # slln_average's batch-means intervals need a step per batch
        raise ValidationError("mixing.slln_steps", "must be >= 30, the batch-means count")
    for key in ("n_linear", "n_radial"):
        if getattr(cfg.mixing, key) < 0:
            raise ValidationError(f"mixing.{key}", "must be >= 0")
    if cfg.mixing.n_linear + cfg.mixing.n_radial == 0:
        # d_k is a maximum over the observables
        raise ValidationError("mixing.n_linear", "mixing.n_linear + mixing.n_radial must be >= 1")
    if cfg.density.alpha_source not in ("projection", "explicit"):
        raise ValidationError("density.alpha_source", "must be 'projection' or 'explicit'")
    if cfg.density.alpha_source == "explicit":
        if cfg.density.alpha is None:
            raise ValidationError("density.alpha", "required for explicit alpha_source")
        try:
            ndim = cfg.explicit_alpha().ndim
        except ValueError as exc:   # its size does not fit alpha_shape
            raise ValidationError("density.alpha", str(exc)) from exc
        if ndim != 2:
            raise ValidationError("density.alpha", "must be 2-D (nm x m): nest it, or give alpha_shape")
    if not 1 <= cfg.density.level <= cfg.run.ladder_levels:
        raise ValidationError("density.level", "must satisfy 1 <= level <= run.ladder_levels")
    if cfg.density.radial < 1:
        raise ValidationError("density.radial", "must be >= 1")
    if cfg.density.angular < 1:
        raise ValidationError("density.angular", "must be >= 1")
    if cfg.density.grid_points < 1:
        raise ValidationError("density.grid_points", "must be >= 1")
    if cfg.density.probe_points < 1:
        raise ValidationError("density.probe_points", "must be >= 1")
    if cfg.density.mc_oracle_samples < 10_000:
        raise ValidationError("density.mc_oracle_samples", "must be >= 10^4")


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
