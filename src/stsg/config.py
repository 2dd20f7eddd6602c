"""Dataclass configs and the flat key=value config file format."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .errors import ConfigError

MODES = ("predcls", "sgcls", "sgdet")
VARIANTS = ("spatial", "sparse", "dense", "tracking")

CLASS_NAMES = ("agent", "cup", "plate", "book", "phone", "box", "bottle", "toy")
PREDICATE_NAMES = ("near", "holding", "above", "beneath", "approaching", "releasing")
EVENT_NAMES = ("pick_up", "put_down", "carry", "swap")

# the most gt objects or detections a frame may hold: pair work grows with
# the square of a frame's nodes, so a frame of a few thousand would ask
# for gigabytes in its first pair layer
MAX_FRAME_NODES = 64


@dataclass(frozen=True)
class Dims:
    """Feature dimensions; the node width m is always derived, never stored."""

    g: int = 8      # object classes (incl. agent)
    c: int = 16     # visual feature width
    h: int = 6      # predicate classes
    d: int = 16     # relevance projection width

    @property
    def m(self) -> int:
        return 4 + self.g + self.c

    def validate(self) -> None:
        for name in ("g", "c", "h", "d"):
            if getattr(self, name) < 1:
                raise ConfigError(f"dims.{name}: must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class NoiseConfig:
    box_jitter_sigma: float = 0.008
    label_confusion_prob: float = 0.2
    miss_prob: float = 0.05
    false_positive_rate: float = 0.1
    occlusion_prob: float = 0.3

    def validate(self) -> None:
        if self.box_jitter_sigma < 0:
            raise ConfigError("noise.box_jitter_sigma: must be >= 0")
        for name in ("label_confusion_prob", "miss_prob", "occlusion_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"noise.{name}: must be in [0, 1], got {v}")
        if self.false_positive_rate < 0:
            raise ConfigError("noise.false_positive_rate: must be >= 0")


@dataclass(frozen=True)
class WorldConfig:
    # scenes sample 5-6 nodes so the candidate list outgrows the recall
    # cutoff; sparser scenes make ranking quality invisible at k=20
    n_objects_min: int = 5
    n_objects_max: int = 6
    frames: int = 8
    n_events: int = 4
    noise: NoiseConfig = field(default_factory=NoiseConfig)

    def validate(self, dims: Dims) -> None:
        if self.n_objects_min < 2:
            raise ConfigError("world.n_objects_min: need at least agent + 1 object")
        if self.n_objects_max < self.n_objects_min:
            raise ConfigError("world.n_objects_max: must be >= world.n_objects_min")
        if self.frames < 1:
            raise ConfigError("world.frames: must be >= 1")
        if self.n_events != len(EVENT_NAMES):
            raise ConfigError(f"world.n_events: fixed event vocabulary has {len(EVENT_NAMES)} classes")
        # the scenes' gt triplets use every predicate, and a split with one
        # at or above dims.h is a file no command can read
        if dims.h < len(PREDICATE_NAMES):
            raise ConfigError(f"dims.h: the world's scenes use {len(PREDICATE_NAMES)} predicates "
                              f"({', '.join(PREDICATE_NAMES)}), so dims.h must be >= "
                              f"{len(PREDICATE_NAMES)}, got {dims.h}")
        if dims.g < 2:
            raise ConfigError("dims.g: world needs one agent class plus object classes")
        self.noise.validate()
        # a frame detects at most its objects plus ceil(false_positive_rate)
        # false positives, and n + ceil(r) > M exactly when n + r > M
        if self.n_objects_max + self.noise.false_positive_rate > MAX_FRAME_NODES:
            raise ConfigError(f"world.n_objects_max: a frame may hold at most {MAX_FRAME_NODES} "
                              f"detections, but world.n_objects_max + noise.false_positive_rate "
                              f"is {self.n_objects_max} + {self.noise.false_positive_rate:g}")


@dataclass(frozen=True)
class SplitConfig:
    train_sequences: int = 800
    val_sequences: int = 100
    test_sequences: int = 100

    def validate(self) -> None:
        for name in ("train_sequences", "val_sequences", "test_sequences"):
            if getattr(self, name) < 1:
                raise ConfigError(f"split.{name}: must be >= 1")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 14
    batch_size: int = 2
    learning_rate: float = 3e-3
    optimizer: str = "adam"          # "adam" | "sgd"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    lambda_node: float = 1.0
    clip_norm: float = 10.0          # 0 disables gradient clipping
    seed: int = 0
    mode: str = "sgdet"
    variant: str = "sparse"
    k: int = 1
    gcn_layers: int = 2
    sequences: int = 0               # 0 = use the whole train split
    val_every: int = 1

    def validate(self) -> None:
        if self.epochs < 0:
            raise ConfigError("train.epochs: must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("train.batch_size: must be >= 1")
        if self.learning_rate < 0:
            raise ConfigError("train.learning_rate: must be >= 0")
        if self.clip_norm < 0:
            raise ConfigError("train.clip_norm: must be >= 0 (0 disables)")
        for name in ("beta1", "beta2"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ConfigError(f"train.{name}: must be in [0, 1), got {v}")
        if self.eps <= 0:
            raise ConfigError(f"train.eps: must be > 0, got {self.eps}")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"train.optimizer: unknown optimizer {self.optimizer!r}")
        if self.mode not in MODES:
            raise ConfigError(f"train.mode: must be one of {MODES}, got {self.mode!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"train.variant: must be one of {VARIANTS}, got {self.variant!r}")
        if self.variant == "sparse" and self.k < 1:
            raise ConfigError("train.k: sparse variant requires k >= 1")
        if self.gcn_layers < 1:
            raise ConfigError("train.gcn_layers: must be >= 1")
        if self.sequences < 0:
            raise ConfigError(f"train.sequences: must be >= 0 (0 = all), got {self.sequences}")
        if self.val_every < 1:
            raise ConfigError(f"train.val_every: must be >= 1, got {self.val_every}")


@dataclass(frozen=True)
class RunConfig:
    dims: Dims = field(default_factory=Dims)
    world: WorldConfig = field(default_factory=WorldConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 7

    def validate(self) -> None:
        self.dims.validate()
        self.world.validate(self.dims)
        self.split.validate()
        self.train.validate()

    def to_flat_dict(self) -> dict:
        out = {"seed": self.seed}
        for section, obj in (
            ("dims", self.dims),
            ("world", self.world),
            ("noise", self.world.noise),
            ("split", self.split),
            ("train", self.train),
        ):
            for f in fields(obj):
                if f.name == "noise":
                    continue
                out[f"{section}.{f.name}"] = getattr(obj, f.name)
        out["dims.m"] = self.dims.m
        return out


def _parse_value(field_type, raw: str, key: str):
    raw = raw.strip()
    if field_type is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected integer, got {raw!r}") from None
    if field_type is float:
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected number, got {raw!r}") from None
        if not math.isfinite(value):   # validate's range checks are all false for NaN
            raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
        return value
    return raw


def _field_types(cls) -> dict[str, type]:
    table = {}
    for f in fields(cls):
        if f.name == "noise":
            continue
        table[f.name] = type(getattr(cls(), f.name))
    return table


def parse_config_items(items: dict[str, str]) -> RunConfig:
    """Build a RunConfig from flat dotted keys, validating every field."""
    sections: dict[str, dict] = {"dims": {}, "world": {}, "noise": {}, "split": {}, "train": {}}
    top: dict[str, object] = {}
    explicit_m: int | None = None
    for key, raw in items.items():
        if key == "seed":
            top["seed"] = _parse_value(int, raw, key)
            continue
        if key == "dims.m":
            explicit_m = _parse_value(int, raw, key)
            continue
        if "." not in key:
            raise ConfigError(f"{key}: unknown configuration key")
        section, name = key.split(".", 1)
        if section not in sections:
            raise ConfigError(f"{key}: unknown configuration section {section!r}")
        cls = {"dims": Dims, "world": WorldConfig, "noise": NoiseConfig,
               "split": SplitConfig, "train": TrainConfig}[section]
        types = _field_types(cls)
        if name not in types:
            raise ConfigError(f"{key}: unknown configuration key")
        sections[section][name] = _parse_value(types[name], raw, key)

    dims = Dims(**sections["dims"])
    if explicit_m is not None and explicit_m != dims.m:
        raise ConfigError(
            f"dims.m: explicit value {explicit_m} contradicts derived 4+G+C = {dims.m}"
        )
    noise = NoiseConfig(**sections["noise"])
    world = WorldConfig(noise=noise, **sections["world"])
    cfg = RunConfig(
        dims=dims,
        world=world,
        split=SplitConfig(**sections["split"]),
        train=TrainConfig(**sections["train"]),
        **top,
    )
    cfg.validate()
    return cfg


def load_config(path: str | Path) -> RunConfig:
    """Parse a flat `section.key = value` config file; empty file = defaults.

    Every error names the file, and the line of the key it is about when
    that key is in the file.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text ({e.reason})") from None
    items: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in items:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        items[key], lines[key] = value, lineno
    try:
        return parse_config_items(items)
    except ConfigError as e:
        # every message of parse_config_items starts with the key it is about
        key = str(e).split(":", 1)[0]
        where = f"{path}:{lines[key]}" if key in lines else str(path)
        raise ConfigError(f"{where}: {e}") from None


def config_with(cfg: RunConfig, **train_overrides) -> RunConfig:
    """Convenience for run-time overrides of training fields."""
    return replace(cfg, train=replace(cfg.train, **train_overrides))
