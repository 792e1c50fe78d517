"""Run configuration: one flat key=value namespace covering every stage.

Values come from defaults, then an optional config file, then CLI flag
overrides, in that order. The effective configuration is validated before
any work starts and is stamped verbatim into the run manifest.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .nn.model import ModelConfig
from .preprocess import N_SLOTS


@dataclass
class RunConfig:
    # paths
    input_glob: str = ""
    run_dir: str = "runs/default"
    # ingest
    min_length: float = 20.0
    col_mmsi: str = "MMSI"
    col_timestamp: str = "BaseDateTime"
    col_lat: str = "LAT"
    col_lon: str = "LON"
    col_sog: str = "SOG"
    col_cog: str = "COG"
    col_length: str = "Length"
    # preprocess
    tolerance_s: float = 60.0
    min_entries: int = 20
    max_fill: int = 20
    max_missing_fraction: float = 0.30
    # split
    test_fraction: float = 0.20
    val_fraction: float = 0.20
    split_by_vessel: bool = False
    # model
    cell_kind: str = "gru"
    bidirectional: bool = True
    layers: int = 1
    hidden: int = 32
    dropout_rate: float = 0.0
    recurrent_dropout_rate: float = 0.2
    input_dropout_rate: float = 0.0
    dense_dropout_rate: float = 0.2
    # train
    epochs: int = 5
    batch_size: int = 256
    learning_rate: float = 1e-3
    mask_sentinel_loss: bool = False  # ablation: drop -1 cells from the loss
    # detect
    sigma_k: float = 6.0
    histogram_bins: int = 50
    min_appearances: int = 5
    mask_sentinel_rmse: bool = False
    per_feature_rmse: bool = False
    threshold_scores: str = "test"  # or "train"
    # misc
    seed: int = 20190306

    def validate(self) -> None:
        if not 0.0 < self.max_missing_fraction < 1.0:
            raise ConfigError("max_missing_fraction must be in (0, 1)")
        if not self.min_length >= 0:
            raise ConfigError("min_length must be >= 0")
        if not self.tolerance_s >= 0:
            raise ConfigError("tolerance_s must be >= 0")
        if not 0 <= self.min_entries <= N_SLOTS:
            raise ConfigError(f"min_entries must be in [0, {N_SLOTS}]")
        if self.max_fill < 0:
            raise ConfigError("max_fill must be >= 0")
        for name in ("test_fraction", "val_fraction"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in (0, 1)")
        if self.threshold_scores not in ("test", "train"):
            raise ConfigError("threshold_scores must be 'test' or 'train'")
        if not self.sigma_k > 0:
            raise ConfigError("sigma_k must be > 0")
        if self.histogram_bins < 1:
            raise ConfigError("histogram_bins must be >= 1")
        if self.min_appearances < 1:
            raise ConfigError("min_appearances must be >= 1")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if not 0 < self.learning_rate < float("inf"):
            raise ConfigError("learning_rate must be finite and > 0")
        self.model_config()  # delegates model-field validation

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            cell_kind=self.cell_kind,
            bidirectional=self.bidirectional,
            layers=self.layers,
            hidden=self.hidden,
            dropout_rate=self.dropout_rate,
            recurrent_dropout_rate=self.recurrent_dropout_rate,
            input_dropout_rate=self.input_dropout_rate,
            dense_dropout_rate=self.dense_dropout_rate,
        )

    def schema(self) -> dict[str, str]:
        return {
            "mmsi": self.col_mmsi,
            "timestamp": self.col_timestamp,
            "lat": self.col_lat,
            "lon": self.col_lon,
            "sog": self.col_sog,
            "cog": self.col_cog,
            "length": self.col_length,
        }

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{f.name}={value}")
        return "\n".join(lines) + "\n"


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    raw = raw.strip()
    if kind == "bool":
        lowered = raw.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{name}: cannot read {raw!r} as a boolean")
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError:
        raise ConfigError(f"{name}: cannot read {raw!r} as {kind}") from None
    return raw


def apply_setting(config: RunConfig, name: str, raw: str) -> None:
    if name not in _FIELD_TYPES:
        raise ConfigError(f"unknown configuration key '{name}'")
    setattr(config, name, _coerce(name, raw))


def load_config(path=None, overrides: list[str] | None = None) -> RunConfig:
    """Defaults <- config file <- key=value overrides, then validate."""
    config = RunConfig()
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not a UTF-8 text file ({exc.reason} at byte "
                              f"{exc.start})") from None
        for line_no, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            apply_setting(config, key.strip(), value)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, _, value = item.partition("=")
        apply_setting(config, key.strip(), value)
    config.validate()
    return config
