"""Run configuration: five dataclass sections mirrored in a key=value file.

The file format is INI-style flat sections ([gate], [experts], [trainer],
[agent], [data]); values are coerced to the type of the dataclass default.
Command-line flags override file values which override the defaults.
"""

import configparser
from dataclasses import asdict, dataclass, field, fields


class ConfigError(ValueError):
    pass


@dataclass
class GateSection:
    encoder_layers: int = 8
    decoder_layers: int = 8
    d_model: int = 64
    heads: int = 4
    ff_width: int = 128


@dataclass
class ExpertsSection:
    specs: str = "oracle:0,oracle:1,oracle:2"
    hidden: int = 32


@dataclass
class TrainerSection:
    epochs: int = 30
    batch_size: int = 32
    gate_lr: float = 1e-3
    expert_lr: float = 1e-3
    sim_loss: str = "kld"
    walks_train: int = 8
    walks_infer: int = 32


@dataclass
class AgentSection:
    discount: float = 0.99
    tau: float = 0.005
    lr: float = 3e-4
    buffer_capacity: int = 10000
    batch_size: int = 64
    hidden: int = 64
    lambda_min: float = -1.0
    lambda_max: float = 1.0
    static_lambda: str = "none"     # "none" -> SAC agent, else a float


@dataclass
class DataSection:
    task: str = "classification"
    classes: int = 3
    per_class: int = 20


@dataclass
class RunConfig:
    gate: GateSection = field(default_factory=GateSection)
    experts: ExpertsSection = field(default_factory=ExpertsSection)
    trainer: TrainerSection = field(default_factory=TrainerSection)
    agent: AgentSection = field(default_factory=AgentSection)
    data: DataSection = field(default_factory=DataSection)
    seed: int = 0

    def expert_specs(self) -> list:
        specs = [s.strip() for s in self.experts.specs.split(",") if s.strip()]
        if not specs:
            raise ConfigError("no expert specs configured")
        return specs

    def static_lambda_value(self) -> float | None:
        raw = self.agent.static_lambda.strip().lower()
        if raw in ("none", ""):
            return None
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"static_lambda must be a number or 'none', "
                              f"got {self.agent.static_lambda!r}") from None


_SECTIONS = ("gate", "experts", "trainer", "agent", "data")


def _coerce(section: str, key: str, raw: str, default):
    kind = type(default)
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: cannot parse {raw!r} as {kind.__name__}"
        ) from None


def load_config(path) -> RunConfig:
    """Parse a key=value config file; unknown sections or keys are errors."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as err:
        # the message already names the file and the line
        raise ConfigError(str(err)) from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    config = RunConfig()
    for section in parser.sections():
        if section == "run":
            for key, raw in parser.items("run"):
                if key != "seed":
                    raise ConfigError(f"[run] has no key {key!r}")
                config.seed = _coerce("run", "seed", raw, 0)
            continue
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        target = getattr(config, section)
        known = {f.name: f for f in fields(target)}
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(f"[{section}] has no key {key!r}")
            setattr(target, key, _coerce(section, key, raw,
                                         getattr(target, key)))
    return config


def config_snapshot(config: RunConfig) -> dict:
    """Plain nested dict of every setting, for run manifests."""
    out = {section: asdict(getattr(config, section)) for section in _SECTIONS}
    out["seed"] = config.seed
    return out
