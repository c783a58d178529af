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

from dataclasses import dataclass, replace
from operator import attrgetter
from typing import ClassVar

from .array_model import GUARD_DEG, ArrayConfig, DirectionPair, near_z_axis
from .errors import ParseError, UnsupportedScenario
from .estimator import EstimatorMode, check_scenario
from .synthesis import SignalModel, SourceSet, separated_angle_sets

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
    # sources have unit power, E|s|^2 = 1, so the SNR alone sets the noise; not a setting
    power: ClassVar[float] = 1.0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.snr_db_list:
            raise ValueError("snr_db_list must be nonempty")
        # +inf dB is noiseless; nan, -inf or an overflowing SNR is not
        try:
            finite = all(self.noise_variance(snr) < float("inf") for snr in self.snr_db_list)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"snr_db_list {list(self.snr_db_list)} gives a non-finite noise variance")
        if len(set(self.snr_db_list)) != len(self.snr_db_list):
            # report rows are keyed by (snr_db, source_index), and a trial's seed by the SNR's index
            raise ValueError(f"snr_db_list {list(self.snr_db_list)} repeats an entry")
        if self.q != len(self.sources):
            raise ValueError(f"q={self.q} does not match {len(self.sources)} sources")
        if not (0 <= self.seed < 2 ** 64):
            raise ValueError("seed must be a 64-bit unsigned integer")
        self.array_config()  # validates m and spacing_ratio
        # Reject scenarios the estimator cannot handle before any trial runs.
        check_scenario(self.m, self.M, self.q)
        for i, d in enumerate(self.sources):
            # directions_from_electrical's guard, which such a source would fail in most trials
            if near_z_axis(d.theta):
                raise UnsupportedScenario(f"source {i} at theta = {d.theta!r} deg is within {GUARD_DEG} deg "
                                          "of the Z axis, where its azimuth is undefined")
        separated_angle_sets(self.source_set(), self.array_config())

    def noise_variance(self, snr_db: float) -> float:
        """Per-element noise variance sigma^2 = power * 10^(-snr_db / 10) = 10^(-snr_db / 10)."""
        return self.power * 10.0 ** (-snr_db / 10.0)

    def array_config(self) -> ArrayConfig:
        return ArrayConfig(m=self.m, spacing_ratio=self.spacing_ratio)

    def source_set(self) -> SourceSet:
        return SourceSet(directions=self.sources, signal_model=self.signal_model)

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, seed=seed)


def _listed(write):
    return lambda items: ", ".join(map(write, items))


def _read_sources(text: str) -> tuple[DirectionPair, ...]:
    pairs = (s.strip().partition("/") for s in text.split(","))
    return tuple(DirectionPair(theta=float(t), phi=float(p)) for t, _, p in pairs)


# each key of a config file, in file order: how its value is read from the text and written back
_KEYS = {
    "m": (int, str),
    "spacing_ratio": (float, repr),
    "M": (int, str),
    "q": (int, str),
    "sources": (_read_sources, _listed(lambda d: f"{d.theta!r}/{d.phi!r}")),
    "signal_model": (SignalModel, attrgetter("value")),
    "snr_db_list": (lambda text: tuple(float(s) for s in text.split(",")), _listed(repr)),
    "trials": (int, str),
    "seed": (int, str),
    "mode": (EstimatorMode, attrgetter("value")),
    "output_path": (str, str),
}


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

    missing = [k for k in _KEYS if k not in values]
    if missing:
        raise ParseError(f"missing keys: {', '.join(missing)}")
    unknown = [k for k in values if k not in _KEYS]
    if unknown:
        raise ParseError(f"unknown keys: {', '.join(unknown)}")

    try:
        # values convert in file order, so of two bad values the earlier key's is reported
        return ExperimentConfig(**{key: read(values[key]) for key, (read, _) in _KEYS.items()})
    except ValueError as exc:
        raise ParseError(f"invalid config value: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def serialize_config(cfg: ExperimentConfig) -> str:
    return "".join(f"{key} = {write(getattr(cfg, key))}\n" for key, (_, write) in _KEYS.items())
