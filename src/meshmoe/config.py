"""Run configuration: five dataclass sections mirrored in a key=value file.

The file format is INI-style flat sections ([gate], [experts], [trainer],
[agent], [data]); values are coerced to the type of the dataclass default.
Command-line flags override file values which override the defaults.
"""

import configparser
import re
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


def ini_where(path, section: str, key: str | None = None) -> str:
    """'path:line' of `key` inside [section], or of the [section] header
    when `key` is None; just the path when there is no such line."""
    inside = False
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line, text in enumerate(fh, start=1):
            header = re.match(r"\[(.+)\]", text.strip())
            if header:
                inside = header.group(1) == section
                if inside and key is None:
                    return f"{path}:{line}"
            elif inside and re.split("[=:]", text)[0].strip().lower() == key:
                return f"{path}:{line}"
    return str(path)


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
            target, known = config, {"seed"}
        elif section in _SECTIONS:
            target = getattr(config, section)
            known = {f.name for f in fields(target)}
        else:
            raise ConfigError(f"{ini_where(path, section)}: "
                              f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(f"{ini_where(path, section, key)}: "
                                  f"[{section}] has no key {key!r}")
            kind = type(getattr(target, key))   # the default's type
            try:
                setattr(target, key, kind(raw))
            except ValueError:
                raise ConfigError(f"{ini_where(path, section, key)}: [{section}] {key}: "
                                  f"cannot parse {raw!r} as {kind.__name__}") from None
    return config


def config_snapshot(config: RunConfig) -> dict:
    """Plain nested dict of every setting, for run manifests."""
    out = {section: asdict(getattr(config, section)) for section in _SECTIONS}
    out["seed"] = config.seed
    return out
