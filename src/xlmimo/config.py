"""Experiment configuration: dataclasses, YAML parsing, overrides, validation.

Defaults follow the reference simulation setup: M = 99 antennas (the
largest array within the paper's 23.0610 m aperture), K = 32 users,
T = 5 iterations.  The rest of the paper's system model is constants, not
settings: S = 3, L = 2, the carrier, antenna spacing, cell, minimum distance
and VR length spread (`geometry`), the path loss and correlation (`channel`),
JOR's relaxation (`linsolve.DEFAULT_OMEGA`), the flops table's user grid
(`flops.K_GRID`) and the noise power `SIGMA2_DBM`.  M must divide by 3, K
by 2.
"""

import dataclasses
import math
import re
import sys
from dataclasses import dataclass, field, fields

import yaml

from .channel import GAIN_EXPONENT, GAIN_REF_M
from .errors import ConfigurationError
from .geometry import GROUPS, MAX_RETRIES, SUBARRAYS
from .linsolve import DEFAULT_OMEGA, DEFAULT_T, METHODS

# Noise power [dBm].  Transmit power is sigma^2 * SNR, so sigma^2 cancels
# from every SINR and BER decision.
SIGMA2_DBM = -50.0
# 10^(SNR/10) and its inverse are finite and positive within this bound [dB].
SNR_DB_MAX = 300.0
# Most expected users per draw that MAX_RETRIES VR rounds may leave unplaced.
VR_UNPLACED_MAX = 1e-6


@dataclass
class GeometryConfig:
    M: int = 99


@dataclass
class UsersConfig:
    K: int = 32


@dataclass
class ChannelConfig:
    vr_mu_frac: float = 0.1       # mu_l = vr_mu_frac * N


@dataclass
class PowerConfig:
    snr_db: float = 5.0           # normalized transmit power [dB]; xi = 1/SNR

    @property
    def sigma2_watts(self) -> float:
        return 10.0 ** (SIGMA2_DBM / 10.0) / 1000.0

    @property
    def xi(self) -> float:
        return 1.0 / 10.0 ** (self.snr_db / 10.0)

    @property
    def tx_power_watts(self) -> float:
        return self.sigma2_watts * 10.0 ** (self.snr_db / 10.0)


@dataclass
class SolverConfig:
    T: int = DEFAULT_T

    @property
    def omega(self) -> float:
        """JOR relaxation, fixed at `linsolve.DEFAULT_OMEGA` (classical
        Jacobi)."""
        return DEFAULT_OMEGA


@dataclass
class RunConfig:
    seed: int = 0
    trials: int = 50
    experiment: str = "convergence"
    workers: int = 1
    methods: list = field(default_factory=lambda: list(METHODS))
    t_max: int = 5
    m_grid: list = field(default_factory=lambda: [99, 132, 165, 198, 231, 264])
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


# section -> {field name: the field's declared type}
_FIELDS = {s.name: {f.name: f.type for f in fields(s.type)}
           for s in fields(ExperimentConfig)}


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
    if (target is float and isinstance(value, (int, float))
            and abs(value) <= sys.float_info.max):  # not NaN or inf
        return float(value)
    if target is int and isinstance(value, int):
        return value
    if target is str and isinstance(value, str):
        return value
    if target is list and isinstance(value, list):
        return list(value)
    raise ConfigurationError(
        f"{path}: expected {target.__name__}, got {value!r}")


def _set(cfg: ExperimentConfig, section, values) -> None:
    """Set each key of the mapping `values` in `cfg`'s `section`, coerced
    to its field's declared type; None sets nothing."""
    if section not in _FIELDS:
        raise ConfigurationError(f"unknown config section {section!r}")
    if values is not None and not isinstance(values, dict):
        raise ConfigurationError(f"section {section!r} must be a mapping")
    types = _FIELDS[section]
    for key, value in (values or {}).items():
        if key not in types:
            raise ConfigurationError(f"unknown config key {section}.{key}")
        setattr(getattr(cfg, section), key,
                _coerce(value, types[key], f"{section}.{key}"))


def _parse(text: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    data = _load_yaml(text, "malformed YAML")
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigurationError(f"config document must be a mapping, got {type(data)}")
    for section, values in data.items():
        _set(cfg, section, values)
    return cfg


def parse_config(text: str) -> ExperimentConfig:
    """Parse a YAML config document; empty text yields the full default config."""
    return validate(_parse(text))


def read_config(path: str) -> ExperimentConfig:
    """The config a YAML file sets, not yet validated: for a caller that
    applies further overrides (which validate) before using it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path!r}: {exc}") from exc
    return _parse(text)


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
        value = _load_yaml(raw, f"{path}: cannot parse {raw!r}")
        _set(cfg, section, {key: value})
    return validate(cfg)


def validate(cfg: ExperimentConfig) -> ExperimentConfig:
    """`cfg`, once every setting is checked; else `ConfigurationError`."""
    g, u, s, r = cfg.geometry, cfg.users, cfg.solver, cfg.run
    if u.K <= 0 or u.K % GROUPS != 0:
        raise ConfigurationError(
            f"users.K={u.K} must be a positive multiple of L={GROUPS}")
    if cfg.channel.vr_mu_frac <= 0:
        raise ConfigurationError("channel.vr_mu_frac must be positive")
    if s.T < 1:
        raise ConfigurationError(f"solver.T must be >= 1, got {s.T}")
    if r.seed < 0:
        raise ConfigurationError(f"run.seed must be >= 0, got {r.seed}")
    if r.trials < 1 or r.workers < 1 or r.t_max < 1:
        raise ConfigurationError("run.trials, run.workers and run.t_max must be >= 1")
    if r.bits_per_point < 1 or r.symbols_per_channel < 1:
        raise ConfigurationError("run.bits_per_point and symbols_per_channel must be >= 1")
    for name, grid, kind in (("m_grid", r.m_grid, int),
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
        # A VR centre is uniform on [0, N] and its mean length vr_mu_frac * N,
        # so by the union bound one round reaches one of a user's 2M/3
        # serving antennas with probability at most p = (2M/3) * vr_mu_frac.
        # A user then stays unplaced after MAX_RETRIES rounds with
        # probability at least (1 - p)^MAX_RETRIES, and K times that bounds
        # from below the expected number of unplaced users per draw, each of
        # which stops the run.  The bound is largest at the smallest M.
        p = (2 * M / SUBARRAYS) * cfg.channel.vr_mu_frac
        if u.K * (1.0 - min(1.0, p)) ** MAX_RETRIES > VR_UNPLACED_MAX:
            raise ConfigurationError(f"channel.vr_mu_frac too small for {name}={M}")
    # BER runs at geometry.M; se_vs_m and convergence read power.snr_db at
    # every array size of the run.
    _check_snr("power.snr_db", cfg.power.snr_db, max(g.M, *r.m_grid))
    for snr in r.snr_grid_db:
        _check_snr("run.snr_grid_db entry", snr, g.M)
    return cfg


def _check_snr(name: str, snr: float, M: int) -> None:
    """The gain calibration makes the mean Gram diagonal entry (M/99)^2; an
    xi below eps times it rounds away there, and with it the R of RZF."""
    top = -10 * math.log10(sys.float_info.epsilon * (M / GAIN_REF_M) ** GAIN_EXPONENT)
    if not -SNR_DB_MAX <= snr <= min(SNR_DB_MAX, top):  # false for NaN too
        raise ConfigurationError(
            f"{name} {snr} dB lies outside [-{SNR_DB_MAX}, {top:.1f}] dB at M={M}")


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return dataclasses.asdict(cfg)
