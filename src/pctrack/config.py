"""Run configuration: one flat record covering model, training and tracking.

Configs live in plain ``key=value`` text files; named profiles bundle the
override sets used by the standard experiment grid (sampler comparisons,
matcher replacement, refinement stage on/off, attention toggles).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field, fields

from .backbone import RELATION_SAMPLERS, SAMPLER_NAMES
from .model import TrackerModel


def _as_tuple(value) -> tuple:
    return value if isinstance(value, tuple) else (value,)


@dataclass
class RunConfig:
    # -- model structure
    embed_dim: int = 32
    sa_radii: tuple[float, ...] = (0.3, 0.5, 0.7)
    sa_template_points: tuple[int, ...] = (256, 128, 64)
    sa_search_points: tuple[int, ...] = (512, 256, 128)
    sa_channels: tuple[int, ...] = (64, 128, 256)
    sa_max_neighbors: int = 32
    template_sampler: str = "dfps"
    search_sampler: str = "hybrid"
    use_bn: bool = False
    coarse_hidden: tuple[int, ...] = (128, 128)
    refine_hidden: tuple[int, ...] = (256, 256, 128, 128)
    pool_radius: float = 1.0
    use_prt: bool = True
    use_prm: bool = True
    use_l2_norm: bool = True
    use_offset: bool = True
    # -- optimization
    lam: float = 1.0
    lr: float = 0.001
    lr_divisor: float = 5.0
    lr_step_epochs: int = 40
    epochs: int = 200
    batch_size: int = 8
    seed: int = 0
    # -- data handling and tracking protocol
    template_extend_ratio: float = 0.1
    search_margin_m: float = 2.0
    distort_range_m: float = 0.3

    def validate(self):
        for f in fields(self):
            if any(isinstance(v, float) and not math.isfinite(v)
                   for v in _as_tuple(getattr(self, f.name))):
                raise ValueError(f"{f.name} must be finite")
        for name in ("embed_dim", "sa_channels", "coarse_hidden", "refine_hidden"):
            if min(_as_tuple(getattr(self, name)), default=1) < 1:
                raise ValueError(f"{name} widths must be >= 1")
        if min(self.sa_radii + (self.pool_radius,), default=1.0) <= 0:
            raise ValueError("sa_radii and pool_radius must be positive")
        if not (len(self.sa_radii) == len(self.sa_template_points)
                == len(self.sa_search_points) == len(self.sa_channels)):
            raise ValueError("per-level model lists must have equal lengths")
        if not self.sa_radii:
            raise ValueError("sa_radii, sa_template_points, sa_search_points and "
                             "sa_channels need at least one level")
        if self.sa_max_neighbors < 1:
            raise ValueError("sa_max_neighbors must be >= 1")
        if min(self.sa_template_points + self.sa_search_points, default=1) < 1:
            raise ValueError("sa_template_points and sa_search_points must be >= 1")
        if self.template_sampler not in SAMPLER_NAMES:
            raise ValueError(f"unknown template_sampler {self.template_sampler!r}")
        if self.template_sampler in RELATION_SAMPLERS:
            raise ValueError(
                f"template_sampler {self.template_sampler!r} needs template features; "
                f"the template branch cannot use {', '.join(RELATION_SAMPLERS)}")
        if self.search_sampler not in SAMPLER_NAMES:
            raise ValueError(f"unknown search_sampler {self.search_sampler!r}")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.lr_divisor <= 0:
            raise ValueError("lr_divisor must be positive")
        for name in ("template_extend_ratio", "search_margin_m", "distort_range_m", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")
        if self.lr_step_epochs < 0:
            raise ValueError("lr_step_epochs must be >= 0 (0 keeps the rate constant)")
        if self.search_sampler == "hybrid" and any(k % 2 for k in self.sa_search_points):
            raise ValueError("hybrid sampling needs even search point counts")
        return self


# The fields tracking reads: all that track and eval may change on a trained model.
TRACKING_FIELDS = ("seed", "template_extend_ratio", "search_margin_m")

# Named profiles: desk is the default record itself; the rest are overrides.
PROFILES: dict[str, dict] = {
    "desk": {},
    "full": {"epochs": 160, "batch_size": 64, "use_bn": True},
    "desk-small": {
        "embed_dim": 16,
        "sa_template_points": (64, 32, 16),
        "sa_search_points": (128, 64, 32),
        "sa_channels": (32, 64, 64),
        "sa_max_neighbors": 16,
        "coarse_hidden": (64, 64),
        "refine_hidden": (64, 64, 64, 64),
        "epochs": 60,
        "batch_size": 8,
    },
    "tiny": {
        "embed_dim": 8,
        "sa_radii": (0.4, 0.8),
        "sa_template_points": (16, 8),
        "sa_search_points": (32, 16),
        "sa_channels": (16, 32),
        "sa_max_neighbors": 8,
        "coarse_hidden": (16, 16),
        "refine_hidden": (32, 16, 16, 16),
        "epochs": 10,
        "batch_size": 4,
    },
}


def config_for_profile(name: str) -> RunConfig:
    if name not in PROFILES:
        raise ValueError(f"unknown profile {name!r}; available: {', '.join(PROFILES)}")
    return dataclasses.replace(RunConfig(), **PROFILES[name]).validate()


# Single-change deltas for the standard ablation grid; each composes with
# any profile.
ABLATIONS: dict[str, dict] = {
    "sampler-random": {"search_sampler": "random"},
    "sampler-dfps": {"search_sampler": "dfps"},
    "sampler-ffps": {"search_sampler": "ffps"},
    "sampler-ras": {"search_sampler": "ras"},
    "matcher-cosine": {"use_prt": False},
    "no-refine": {"use_prm": False},
    "no-offset": {"use_offset": False},
    "no-l2norm": {"use_l2_norm": False},
}


def apply_ablation(cfg: RunConfig, name: str) -> RunConfig:
    if name not in ABLATIONS:
        raise ValueError(f"unknown ablation {name!r}; available: {', '.join(ABLATIONS)}")
    return dataclasses.replace(cfg, **ABLATIONS[name]).validate()


# ---------------------------------------------------------------------------
# key=value file round-trip and overrides
# ---------------------------------------------------------------------------

_FIELDS = {f.name: f for f in fields(RunConfig)}


def _parse_value(name: str, raw: str):
    f = _FIELDS[name]
    raw = raw.strip()
    base = RunConfig()
    current = getattr(base, name)
    if isinstance(current, bool):
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"{name}: expected a boolean, got {raw!r}")
    if isinstance(current, int):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    if isinstance(current, tuple):
        parts = [p for p in raw.split(",") if p.strip()]
        elem = type(current[0])
        return tuple(elem(p) for p in parts)
    return raw


def apply_overrides(cfg: RunConfig, overrides: list[str]) -> RunConfig:
    """Apply ``key=value`` strings; unknown keys are an error."""
    updates = {}
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        key = key.strip()
        if key not in _FIELDS:
            raise ValueError(f"unknown config key {key!r}")
        updates[key] = _parse_value(key, raw)
    return dataclasses.replace(cfg, **updates).validate()


def config_lines(cfg: RunConfig) -> list[str]:
    """One ``key=value`` line per field, as config files and checkpoints hold them."""
    lines = []
    for f in fields(RunConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            text = ",".join(str(x) for x in v)
        elif isinstance(v, bool):
            text = "true" if v else "false"
        else:
            text = str(v)
        lines.append(f"{f.name}={text}")
    return lines


def save_config(cfg: RunConfig, path):
    with open(path, "w") as fh:
        fh.write("\n".join(config_lines(cfg)) + "\n")


def read_overrides(path) -> list[str]:
    """``key=value`` lines of a config file, comments and blanks skipped."""
    overrides = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            overrides.append(line)
    return overrides


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    return apply_overrides(RunConfig() if base is None else base,
                           read_overrides(path))


# ---------------------------------------------------------------------------
# Model construction
# ---------------------------------------------------------------------------


def build_model(cfg: RunConfig, dtype=None) -> TrackerModel:
    import numpy as np

    return TrackerModel(cfg, np.float32 if dtype is None else dtype)
