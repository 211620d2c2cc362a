"""Run configuration: five dataclass sections mirrored in a key=value file.

The file format is INI-style flat sections ([run] for the seed, [gate],
[experts], [trainer], [agent], [data]) read by `checkpoint.read_ini`, which
coerces values to the defaults' types, rejects any other section and
returns each key's `path:line`.
[gate] and [agent] take their keys and defaults from `GateConfig` and
`SACConfig`, less the fields the CLI fills in from the dataset and pool.
Command-line flags override file values which override the defaults.
Building a section checks its fields ([gate] and [agent] by building a
`GateConfig` or `SACConfig`); the CLI builds each again once it is set.
"""

import math
from dataclasses import dataclass, field, fields, make_dataclass

from .checkpoint import at_least, must, read_ini
from .gate import GateConfig
from .sac import SACConfig


class ConfigError(ValueError):
    pass


def _section(name: str, source, supplied: dict, extra=()):
    """Dataclass of `source`'s fields and defaults, less those in `supplied`.
    Its `build(**others)` makes the `source` of its values and `others`;
    building a section checks its values by a `build` with `supplied`'s."""
    own = [f for f in fields(source) if f.name not in supplied]

    def build(self, **others):
        return source(**others, **{f.name: getattr(self, f.name) for f in own})
    return make_dataclass(name, [(f.name, f.type, field(default=f.default)) for f in own]
                          + list(extra),
                          namespace={"build": build,
                                     "__post_init__": lambda self: build(self, **supplied)})


GateSection = _section("GateSection", GateConfig,
                       {"num_experts": 1, "head_mode": "expert_weights", "num_classes": 0})
# static_lambda "none" -> SAC agent, else a float
AgentSection = _section("AgentSection", SACConfig, {"state_dim": 1},
                        [("static_lambda", str, field(default="none"))])


@dataclass
class ExpertsSection:
    specs: str = "oracle:0,oracle:1,oracle:2"
    hidden: int = 32

    def __post_init__(self):
        at_least(self, ConfigError, hidden=1)


@dataclass
class TrainerSection:
    epochs: int = 30
    batch_size: int = 32
    gate_lr: float = 1e-3
    expert_lr: float = 1e-3
    sim_loss: str = "kld"
    walks_train: int = 8
    walks_infer: int = 32

    def __post_init__(self):
        at_least(self, ConfigError, epochs=0, batch_size=1)
        for name in ("gate_lr", "expert_lr"):
            must(self, name, 0 < getattr(self, name) < math.inf, "be finite and > 0", ConfigError)
        at_least(self, ConfigError, walks_train=1, walks_infer=1)


@dataclass
class DataSection:
    task: str = "classification"
    classes: int = 3
    per_class: int = 20

    def __post_init__(self):
        at_least(self, ConfigError, classes=1, per_class=1)


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
            value = float(raw)
        except ValueError:
            raise ConfigError(f"static_lambda must be a number or 'none', "
                              f"got {self.agent.static_lambda!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"static_lambda must be finite, got {value}")
        return value


SECTIONS = ("gate", "experts", "trainer", "agent", "data")


def load_config(path) -> tuple:
    """(the defaults overridden by the config file at `path`, read_ini's lines)."""
    config = RunConfig()
    return config, read_ini(path, {"run": config, **{s: getattr(config, s) for s in SECTIONS}},
                            ConfigError)
