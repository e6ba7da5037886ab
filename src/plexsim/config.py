"""Experiment configuration: a structured YAML file, validated before any
simulation starts, with a canonical serialization so identical configs hash
identically regardless of key order or formatting.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import Any, Optional, get_type_hints

import yaml

from .learning import ModelSpec, PartitionScheme, TrainerConfig
from .protocol import success_threshold

ALGORITHMS = ("plexus", "fl", "dpsgd", "gl")
# The families with class logits; ModelSpec's ``squared`` family is for
# gradient checks only and cannot be evaluated.
MODEL_FAMILIES = ("linear", "mlp")


@dataclass(frozen=True)
class TopologyConfig:
    kind: str = "regular"  # regular | one_peer_exp
    degree: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("regular", "one_peer_exp"):
            raise ValueError(f"unknown topology kind {self.kind!r}")
        if self.kind == "regular" and self.degree < 1:
            raise ValueError("regular topology needs degree >= 1")


@dataclass(frozen=True)
class DatasetConfig:
    seed: int = 1
    n_samples: int = 20000
    d_in: int = 32
    classes: int = 10
    noise: float = 0.0
    class_sep: float = 2.0


@dataclass(frozen=True)
class TracesConfig:
    """Either point at CSV traces or describe synthetic ones."""

    latency_path: Optional[str] = None
    profiles_path: Optional[str] = None
    cities: int = 8
    seed: int = 7
    median_rtt_ms: float = 80.0
    rtt_sigma: float = 0.5
    uplink_median_bps: float = 30_000.0
    downlink_median_bps: float = 60_000.0
    sec_per_step_median: float = 0.4
    profile_sigma: float = 0.6


@dataclass(frozen=True)
class StopConfig:
    max_rounds: int = 500
    max_virtual_s: float = 48 * 3600.0

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.max_virtual_s <= 0:
            raise ValueError("max_virtual_s must be positive")


@dataclass(frozen=True)
class EvalConfig:
    every_rounds: int = 10      # plexus and fl evaluate at round boundaries
    every_seconds: float = 7200.0  # dpsgd and gl evaluate on the virtual clock

    def __post_init__(self) -> None:
        if self.every_rounds < 1:
            raise ValueError("eval.every_rounds must be >= 1")
        if self.every_seconds <= 0:
            raise ValueError("eval.every_seconds must be positive")


@dataclass(frozen=True)
class ExperimentConfig:
    algorithm: str
    n: int
    sample_size: int = 10
    success_fraction: float = 1.0
    gl_timeout_s: float = 60.0
    shared_init: bool = True
    init_seed: int = 0
    protocol_seed: int = 42
    repetitions: int = 1
    targets: tuple[float, ...] = (0.85,)
    model_family: str = "linear"
    model_hidden: int = 32
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    partition: PartitionScheme = field(default_factory=lambda: PartitionScheme("iid"))
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    traces: TracesConfig = field(default_factory=TracesConfig)
    stop: StopConfig = field(default_factory=StopConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; pick from {ALGORITHMS}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.model_family not in MODEL_FAMILIES:
            raise ValueError(
                f"unknown model_family {self.model_family!r}; pick from {MODEL_FAMILIES}"
            )
        if self.algorithm in ("plexus", "fl"):
            if not (1 <= self.sample_size <= self.n):
                raise ValueError(
                    f"sample_size must be in [1, n], got {self.sample_size} with n={self.n}"
                )
            if not (0.0 < self.success_fraction <= 1.0):
                raise ValueError("success_fraction must be in (0, 1]")
            if success_threshold(self.sample_size, self.success_fraction) < 1:
                raise ValueError("floor(sample_size * success_fraction) must be >= 1")
        if self.algorithm == "dpsgd" and self.topology.kind == "regular":
            if self.topology.degree >= self.n:
                raise ValueError("topology degree must be smaller than n")
            if (self.topology.degree * self.n) % 2 != 0:
                raise ValueError("n * degree must be even for a regular graph")
            if self.topology.degree == 1 and self.n > 2:
                raise ValueError("a 1-regular graph on more than 2 nodes is never connected")
        if self.algorithm == "dpsgd" and self.topology.kind == "one_peer_exp" and self.n < 2:
            raise ValueError("one-peer topology needs n >= 2")
        if self.algorithm == "gl":
            if self.n < 2:
                raise ValueError("gossip learning needs n >= 2: a node pushes to another")
            if self.gl_timeout_s <= 0:
                raise ValueError("gl_timeout_s must be positive")
        # dpsgd and gl evaluate at multiples of every_seconds within the budget,
        # so a longer period records no accuracy. runner._multiples would still
        # clamp a step at most 1e-9 s past the budget onto it; > refuses that too.
        if self.algorithm in ("dpsgd", "gl") and self.eval.every_seconds > self.stop.max_virtual_s:
            raise ValueError(
                f"eval.every_seconds ({self.eval.every_seconds}) exceeds stop.max_virtual_s "
                f"({self.stop.max_virtual_s}): a {self.algorithm} run would record no accuracy"
            )
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        for t in self.targets:
            if not (0.0 < t <= 1.0):
                raise ValueError(f"target accuracy must be in (0, 1], got {t}")
        if not self.targets:
            raise ValueError("need at least one target accuracy")

    def model_spec(self) -> ModelSpec:
        return ModelSpec(
            family=self.model_family,
            d_in=self.dataset.d_in,
            classes=self.dataset.classes,
            hidden=self.model_hidden,
        )

    def canonical_dict(self) -> dict[str, Any]:
        return asdict(self)

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:12]


def _is_finite_number(v: Any) -> bool:
    return type(v) is int or (type(v) is float and math.isfinite(v))


# What a config value of each declared field type may be, and how an error
# names it. An int for a float key loads as given, so its hash is unchanged.
# NaN and infinity pass every range check, then hang a run or record nothing.
_ACCEPTS = {
    int: (lambda v: type(v) is int, "an integer"),
    bool: (lambda v: type(v) is bool, "true or false"),
    float: (_is_finite_number, "a finite number"),
    str: (lambda v: isinstance(v, str), "a string"),
    Optional[str]: (lambda v: v is None or isinstance(v, str), "a string or null"),
    tuple[float, ...]: (
        lambda v: isinstance(v, (list, tuple)) and all(map(_is_finite_number, v)),
        "a list of finite numbers",
    ),
}


def _typed_kwargs(cls: type, values: Any, section: str = "") -> dict[str, Any]:
    """``values`` checked against the annotations of ``cls``, with each
    section built. YAML reads ``20.0``, ``true`` and ``"20"`` as float, bool
    and str; a dataclass would take one for a count or a path and the run
    would fail deep inside."""
    if not isinstance(values, dict):
        raise ValueError(f"config {f'section {section!r}' if section else 'root'} must be a mapping")
    hints = get_type_hints(cls)
    unknown = set(values) - set(hints)
    if unknown:
        where = f" in section {section!r}" if section else ""
        raise ValueError(f"unknown config keys{where}: {sorted(unknown)}")
    kwargs: dict[str, Any] = {}
    for key, value in values.items():
        hint = hints[key]
        if is_dataclass(hint):
            kwargs[key] = hint(**_typed_kwargs(hint, value, key))
            continue
        accepts, kind = _ACCEPTS[hint]
        if not accepts(value):
            name = f"{section}.{key}" if section else key
            raise ValueError(f"config key {name!r} must be {kind}, got {value!r}")
        kwargs[key] = tuple(float(t) for t in value) if key == "targets" else value
    return kwargs


def config_from_dict(raw: dict[str, Any]) -> ExperimentConfig:
    return ExperimentConfig(**_typed_kwargs(ExperimentConfig, raw))


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ValueError(f"config not found: {path}")
    with open(path) as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ValueError(f"config parse error in {path}: {exc}") from None
    if raw is None:
        raise ValueError(f"config is empty: {path}")
    try:
        cfg = config_from_dict(raw)
    except TypeError as exc:
        raise ValueError(f"config error in {path}: {exc}") from None
    _check_paths(cfg, path.parent)
    return cfg


def _check_paths(cfg: ExperimentConfig, base_dir: Path) -> None:
    for attr in ("latency_path", "profiles_path"):
        p = getattr(cfg.traces, attr)
        if p is not None and not resolve_trace_path(base_dir, p).is_file():
            raise ValueError(f"trace file not found: {p}")


def resolve_trace_path(base_dir: str | Path, trace_path: str) -> Path:
    """Trace paths are relative to the config's directory first, then the cwd."""
    rel = Path(base_dir) / trace_path
    return rel if rel.is_file() else Path(trace_path)
