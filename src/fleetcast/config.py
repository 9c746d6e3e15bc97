"""Plain key = value experiment configuration.

One file per experiment; command-line flags override file values, and
the FLEETCAST_CONFIG environment variable overrides the default path.
Unknown keys and out-of-range values fail fast naming the field.
A relative `data_dir` set in a config file resolves against that file's
directory; the default and a `--data-dir` flag resolve against the
working directory.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .data import parse_day


@dataclass
class PipelineConfig:
    # paths; the three file names are relative to data_dir, and a relative
    # data_dir set in a config file to that file's directory
    data_dir: str = "runs/demo"
    trips_file: str = "trips.csv"
    demand_file: str = "demand.csv"
    reports_dir: str = "."

    # data
    zones: str = "A:40.70,40.75,-74.00,-73.95;B:40.75,40.80,-74.00,-73.95"
    train_end: dt.date | None = None    # default: all but the last 91 days
    test_end: dt.date | None = None

    # model architecture
    window_size: int = 10
    mixture_components: int = 3
    hidden_size: int = 32
    dense_sizes: tuple = (256, 128)

    # training
    learning_rate: float = 0.05
    batch_size: int = 32
    epochs: int = 120
    clip_norm: float = 5.0
    momentum: float = 0.9
    seed: int = 7

    # post-hoc residual mixtures
    val_fraction: float = 0.15          # tail share of train windows for residual fits
    em_components: int = 3
    em_restarts: int = 5
    em_tol: float = 1e-6
    em_max_iter: int = 500

    # scenario program
    n_scenarios: int = 200
    stock: tuple = (50.0, 50.0)
    move_cost: float = 2.0              # uniform off-diagonal cost
    price: float = 10.0
    penalty: float = 4.0

    # synthetic benchmark
    synth_days: int = 691
    synth_zones: int = 2
    synth_stay_prob: float = 0.88
    synth_mean_high: float = 80.0
    synth_mean_low: float = 20.0
    synth_noise_sd: float = 8.0
    synth_start: dt.date = dt.date(2017, 1, 1)

    def validate(self) -> None:
        checks = [
            ("window_size", self.window_size >= 1, "must be >= 1"),
            ("mixture_components", self.mixture_components >= 1, "must be >= 1"),
            ("hidden_size", self.hidden_size >= 1, "must be >= 1"),
            ("learning_rate", self.learning_rate >= 0, "must be >= 0"),
            ("batch_size", self.batch_size >= 1, "must be >= 1"),
            ("epochs", self.epochs >= 0, "must be >= 0"),
            ("clip_norm", self.clip_norm > 0, "must be > 0"),
            ("val_fraction", 0.0 < self.val_fraction < 1.0, "must be in (0, 1)"),
            ("em_components", self.em_components >= 1, "must be >= 1"),
            ("em_restarts", self.em_restarts >= 1, "must be >= 1"),
            ("n_scenarios", self.n_scenarios >= 1, "must be >= 1"),
            ("move_cost", self.move_cost >= 0, "must be >= 0"),
            ("price", self.price >= 0, "must be >= 0"),
            ("penalty", self.penalty >= 0, "must be >= 0"),
            ("synth_days", self.synth_days >= 1, "must be >= 1"),
            ("synth_zones", self.synth_zones >= 1, "must be >= 1"),
            ("synth_stay_prob", 0.0 < self.synth_stay_prob < 1.0,
             "must be in (0, 1)"),
        ]
        for name, ok, why in checks:
            if not ok:
                raise ValueError(f"config.{name}: {why}")
        if not all(v >= 1 and float(v).is_integer() for v in self.dense_sizes):
            raise ValueError("config.dense_sizes: every layer size must be a "
                             "positive integer")
        if len(self.stock) < 1:
            raise ValueError("config.stock: need at least one zone")
        if not all(math.isfinite(v) and v >= 0 for v in self.stock):
            raise ValueError("config.stock: every zone's stock must be finite and >= 0")


_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def _parse_value(name: str, text: str):
    text = text.strip()
    ftype = _FIELD_TYPES[name]
    try:
        if ftype == "int":
            return int(text)
        if ftype == "float":
            return float(text)
        if ftype == "tuple":
            return tuple(float(v) for v in text.split(",") if v.strip())
        if ftype.startswith("dt.date"):
            return parse_day(text) if text else None
        return text
    except ValueError as exc:
        raise ValueError(f"config.{name}: cannot parse {text!r} ({exc})") from exc


def parse_config_text(text: str, base_dir=None) -> PipelineConfig:
    """Parse key = value lines over the defaults; a relative `data_dir`
    the text sets is joined onto `base_dir` when one is given."""
    cfg = PipelineConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        value = _parse_value(key, value)
        if key == "data_dir" and base_dir is not None:
            value = str(Path(base_dir) / value)
        setattr(cfg, key, value)
    cfg.validate()
    return cfg


def load_config(path) -> PipelineConfig:
    with open(path) as fh:
        return parse_config_text(fh.read(), base_dir=Path(path).parent)


def apply_overrides(cfg: PipelineConfig, overrides: dict) -> PipelineConfig:
    """CLI values win over file values; None means "not given"."""
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in _FIELD_TYPES:
            raise ValueError(f"unknown config key {key!r}")
        if isinstance(value, str):
            value = _parse_value(key, value)
        setattr(cfg, key, value)
    cfg.validate()
    return cfg


def dump_config(cfg: PipelineConfig) -> str:
    lines = []
    for f in fields(PipelineConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(format(v, "g") for v in value)
        elif value is None:
            value = ""
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: PipelineConfig) -> str:
    return hashlib.sha256(dump_config(cfg).encode()).hexdigest()[:16]
