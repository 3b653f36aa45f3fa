"""Experiment configuration: dataclasses, YAML parsing, overrides, validation.

Defaults follow the reference simulation setup: M = 99 antennas (the
largest array within the paper's 23.0610 m aperture), K = 32 users,
T = 5 iterations.  The rest of the paper's system model is constants, not
settings: S = 3, L = 2, the carrier, antenna spacing, cell and minimum
distance (`geometry`), the path loss (`channel`) and the noise power
`SIGMA2_DBM`.  M must divide by 3, K by 2.
"""

import dataclasses
import re
from dataclasses import dataclass, field, fields

import yaml

from .errors import ConfigurationError
from .geometry import GROUPS, SUBARRAYS
from .linsolve import DEFAULT_OMEGA, DEFAULT_T, METHODS

EXPERIMENTS = ("convergence", "se_vs_m", "ber", "flops")

# Noise power [dBm].  Transmit power is sigma^2 * SNR, so sigma^2 cancels
# from every SINR and BER decision.
SIGMA2_DBM = -50.0


@dataclass
class GeometryConfig:
    M: int = 99


@dataclass
class UsersConfig:
    K: int = 32


@dataclass
class ChannelConfig:
    rho: float = 0.5
    vr_mu_frac: float = 0.1       # mu_l = vr_mu_frac * N
    vr_sigma: float = 0.1
    normalize_gain: bool = True   # calibrate mean per-user gain (scenario.py)


@dataclass
class PowerConfig:
    snr_db: float = 5.0           # normalized transmit power [dB]; xi = 1/SNR

    @property
    def sigma2_watts(self) -> float:
        return 10.0 ** (SIGMA2_DBM / 10.0) / 1000.0

    @property
    def snr_linear(self) -> float:
        return 10.0 ** (self.snr_db / 10.0)

    @property
    def xi(self) -> float:
        return 1.0 / self.snr_linear

    @property
    def tx_power_watts(self) -> float:
        return self.sigma2_watts * self.snr_linear


@dataclass
class SolverConfig:
    T: int = DEFAULT_T
    omega: float = DEFAULT_OMEGA  # JOR relaxation (1 = classical Jacobi)


@dataclass
class RunConfig:
    seed: int = 0
    trials: int = 50
    experiment: str = "convergence"
    workers: int = 1
    methods: list = field(default_factory=lambda: list(METHODS))
    t_max: int = 5
    m_grid: list = field(default_factory=lambda: [99, 132, 165, 198, 231, 264])
    k_grid: list = field(default_factory=lambda: [5, 10, 15, 20, 25, 30])
    snr_grid_db: list = field(default_factory=lambda: [0.0, 2.0, 4.0, 6.0, 8.0, 10.0])
    bits_per_point: int = 1_000_000
    symbols_per_channel: int = 512


@dataclass
class ExperimentConfig:
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    users: UsersConfig = field(default_factory=UsersConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    power: PowerConfig = field(default_factory=PowerConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    run: RunConfig = field(default_factory=RunConfig)


_SECTIONS = {f.name: f.type for f in fields(ExperimentConfig)}


class _Loader(yaml.SafeLoader):
    """YAML 1.1 reads `3e9` and `1e-9` as strings; this loader reads a number
    with an exponent, with or without a dot, as a float."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


def _load_yaml(text: str, what: str):
    try:
        return yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"{what}: {exc}") from exc


def _coerce(value, target, path):
    if target in (int, float) and isinstance(value, bool):
        raise ConfigurationError(f"{path}: expected number, got {value!r}")
    if target is float and isinstance(value, (int, float)):
        return float(value)
    if target is int and isinstance(value, int):
        return value
    if target is bool and isinstance(value, bool):
        return value
    if target is str and isinstance(value, str):
        return value
    if target is list and isinstance(value, list):
        return list(value)
    raise ConfigurationError(
        f"{path}: expected {getattr(target, '__name__', target)}, got {value!r}")


def _fill_section(section_obj, data: dict, section: str):
    valid = {f.name: f for f in fields(section_obj)}
    for key, value in data.items():
        if key not in valid:
            raise ConfigurationError(f"unknown config key {section}.{key}")
        default = getattr(type(section_obj)(), key)
        ftype = list if isinstance(default, list) else type(default)
        setattr(section_obj, key, _coerce(value, ftype, f"{section}.{key}"))
    return section_obj


def config_from_dict(data: dict | None) -> ExperimentConfig:
    """Build a validated config from a (possibly empty) nested dict."""
    cfg = ExperimentConfig()
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigurationError(f"config document must be a mapping, got {type(data)}")
    for section, content in data.items():
        if section not in _SECTIONS:
            raise ConfigurationError(f"unknown config section {section!r}")
        if content is None:
            continue
        if not isinstance(content, dict):
            raise ConfigurationError(f"section {section!r} must be a mapping")
        _fill_section(getattr(cfg, section), content, section)
    validate(cfg)
    return cfg


def parse_config(text: str) -> ExperimentConfig:
    """Parse a YAML config document; empty text yields the full default config."""
    return config_from_dict(_load_yaml(text, "malformed YAML"))


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def apply_overrides(cfg: ExperimentConfig, overrides) -> ExperimentConfig:
    """Apply `section.key=value` overrides (values parsed as YAML scalars)."""
    for item in overrides:
        if "=" not in item:
            raise ConfigurationError(f"override {item!r} is not of the form key=value")
        path, raw = item.split("=", 1)
        parts = path.split(".")
        if len(parts) != 2:
            raise ConfigurationError(
                f"override key {path!r} must be section.key")
        section, key = parts
        if section not in _SECTIONS:
            raise ConfigurationError(f"unknown config section {section!r}")
        value = _load_yaml(raw, f"{path}: cannot parse {raw!r}")
        _fill_section(getattr(cfg, section), {key: value}, section)
    validate(cfg)
    return cfg


def validate(cfg: ExperimentConfig) -> None:
    g, u, ch, s, r = cfg.geometry, cfg.users, cfg.channel, cfg.solver, cfg.run
    if u.K <= 0 or u.K % GROUPS != 0:
        raise ConfigurationError(
            f"users.K={u.K} must be a positive multiple of L={GROUPS}")
    if not 0.0 <= ch.rho < 1.0:
        raise ConfigurationError(f"channel.rho must lie in [0, 1), got {ch.rho}")
    if ch.vr_mu_frac <= 0 or ch.vr_sigma <= 0:
        raise ConfigurationError(
            "channel.vr_mu_frac and channel.vr_sigma must be positive")
    if s.T < 1:
        raise ConfigurationError(f"solver.T must be >= 1, got {s.T}")
    if s.omega <= 0:
        raise ConfigurationError(f"solver.omega must be positive, got {s.omega}")
    if r.seed < 0:
        raise ConfigurationError(f"run.seed must be >= 0, got {r.seed}")
    if r.experiment not in EXPERIMENTS:
        raise ConfigurationError(
            f"run.experiment must be one of {EXPERIMENTS}, got {r.experiment!r}")
    if r.trials < 1 or r.workers < 1 or r.t_max < 1:
        raise ConfigurationError("run.trials, run.workers and run.t_max must be >= 1")
    if r.bits_per_point < 1 or r.symbols_per_channel < 1:
        raise ConfigurationError("run.bits_per_point and symbols_per_channel must be >= 1")
    for name, grid, kind in (("m_grid", r.m_grid, int), ("k_grid", r.k_grid, int),
                             ("snr_grid_db", r.snr_grid_db, (int, float)),
                             ("methods", r.methods, str)):
        if not grid:
            raise ConfigurationError(f"run.{name} must be non-empty")
        for entry in grid:
            if isinstance(entry, bool) or not isinstance(entry, kind):
                raise ConfigurationError(
                    f"run.{name} entry {entry!r} has the wrong type")
        if len(set(grid)) < len(grid):
            raise ConfigurationError(
                f"run.{name}={grid} repeats an entry; each entry is a CSV row key")
    for m in r.methods:
        if m not in METHODS:
            raise ConfigurationError(f"unknown method {m!r} in run.methods")
    named_Ms = [("geometry.M", g.M)] + [("run.m_grid entry", M) for M in r.m_grid]
    for name, M in named_Ms:
        if M <= 0 or M % SUBARRAYS != 0:
            raise ConfigurationError(
                f"{name}={M} must be a positive multiple of S={SUBARRAYS}")
    if min(r.k_grid) < 1:
        raise ConfigurationError("run.k_grid entries must be >= 1")


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return dataclasses.asdict(cfg)
