"""Experiment configuration: flat ``key = value`` text files.

Example::

    m = 8
    spacing_ratio = 0.5
    M = 200
    q = 2
    sources = 30/40, 70/120
    signal_model = unit_power_random_phase
    snr_db_list = 0, 10, 20, 30
    trials = 500
    seed = 12345
    mode = truncated_svd
    output_path = report.csv

``sources`` entries are theta/phi in degrees.  ``#`` starts a comment line.
"""

import math
from dataclasses import dataclass, replace

from .array_model import ArrayConfig, DirectionPair
from .errors import ParseError
from .estimator import PERMUTATION_BUDGET, EstimatorMode
from .synthesis import SignalModel, SourceSet, separated_angle_sets

_REQUIRED = (
    "m", "spacing_ratio", "M", "q", "sources", "signal_model",
    "snr_db_list", "trials", "seed", "mode", "output_path",
)


@dataclass(frozen=True)
class ExperimentConfig:
    m: int
    spacing_ratio: float
    M: int
    q: int
    sources: tuple[DirectionPair, ...]
    signal_model: SignalModel
    snr_db_list: tuple[float, ...]
    trials: int
    seed: int
    mode: EstimatorMode
    output_path: str
    power: float = 1.0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.snr_db_list:
            raise ValueError("snr_db_list must be nonempty")
        if self.q != len(self.sources):
            raise ValueError(f"q={self.q} does not match {len(self.sources)} sources")
        if not (0 <= self.seed < 2 ** 64):
            raise ValueError("seed must be a 64-bit unsigned integer")
        self.array_config()  # validates m and spacing_ratio
        # Reject scenarios the estimator cannot handle before any trial runs.
        if self.q > self.m - 2:
            raise ValueError(f"need q <= m - 2 = {self.m - 2} for stable root selection, got q={self.q}")
        if math.factorial(self.q) > PERMUTATION_BUDGET:
            raise ValueError(
                f"need q! <= {PERMUTATION_BUDGET} pairings, got q={self.q} ({math.factorial(self.q)} pairings)"
            )
        if self.M < max(self.q, self.m - 1):
            raise ValueError(f"need M >= max(q, m - 1) = {max(self.q, self.m - 1)} snapshots, got M={self.M}")
        separated_angle_sets(self.source_set(), self.array_config())

    def array_config(self) -> ArrayConfig:
        return ArrayConfig(m=self.m, spacing_ratio=self.spacing_ratio)

    def source_set(self) -> SourceSet:
        return SourceSet(directions=self.sources, signal_model=self.signal_model, power=self.power)

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, seed=seed)


def parse_config(text: str) -> ExperimentConfig:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", line=lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in values:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        values[key] = value

    missing = [k for k in _REQUIRED if k not in values]
    if missing:
        raise ParseError(f"missing keys: {', '.join(missing)}")
    unknown = [k for k in values if k not in _REQUIRED and k != "power"]
    if unknown:
        raise ParseError(f"unknown keys: {', '.join(unknown)}")

    try:
        sources = tuple(
            DirectionPair(theta=float(t), phi=float(p))
            for t, _, p in (s.strip().partition("/") for s in values["sources"].split(","))
        )
        return ExperimentConfig(
            m=int(values["m"]),
            spacing_ratio=float(values["spacing_ratio"]),
            M=int(values["M"]),
            q=int(values["q"]),
            sources=sources,
            signal_model=SignalModel(values["signal_model"]),
            snr_db_list=tuple(float(s) for s in values["snr_db_list"].split(",")),
            trials=int(values["trials"]),
            seed=int(values["seed"]),
            mode=EstimatorMode(values["mode"]),
            output_path=values["output_path"],
            power=float(values.get("power", "1.0")),
        )
    except (ValueError, KeyError) as exc:
        raise ParseError(f"invalid config value: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def serialize_config(cfg: ExperimentConfig) -> str:
    sources = ", ".join(f"{d.theta!r}/{d.phi!r}" for d in cfg.sources)
    snrs = ", ".join(repr(s) for s in cfg.snr_db_list)
    lines = [
        f"m = {cfg.m}",
        f"spacing_ratio = {cfg.spacing_ratio!r}",
        f"M = {cfg.M}",
        f"q = {cfg.q}",
        f"sources = {sources}",
        f"signal_model = {cfg.signal_model.value}",
        f"snr_db_list = {snrs}",
        f"trials = {cfg.trials}",
        f"seed = {cfg.seed}",
        f"mode = {cfg.mode.value}",
        f"output_path = {cfg.output_path}",
        f"power = {cfg.power!r}",
    ]
    return "\n".join(lines) + "\n"
