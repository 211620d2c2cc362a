"""Each config class checks its own fields: library callers get the same
errors, worded the same, that the CLI prefixes with a flag or config line."""

import math
from dataclasses import fields

import pytest

from meshmoe.config import (AgentSection, ConfigError, DataSection, ExpertsSection,
                            GateSection, TrainerSection)
from meshmoe.gate import GateConfig, GateError
from meshmoe.sac import SACConfig

# the fields each class needs beside the one under test, and its error type
CLASSES = {GateConfig: ({"num_experts": 2}, GateError),
           SACConfig: ({"state_dim": 3}, ValueError),
           GateSection: ({}, GateError),
           AgentSection: ({}, ValueError),
           TrainerSection: ({}, ConfigError),
           DataSection: ({}, ConfigError),
           ExpertsSection: ({}, ConfigError)}


BAD_VALUES = [
    (GateConfig, {"heads": 0}, "heads must be >= 1, got 0", "heads"),
    (GateConfig, {"num_experts": 0}, "num_experts must be >= 1, got 0", "num_experts"),
    (GateConfig, {"d_model": 0}, "d_model must be >= 1, got 0", "d_model"),
    (GateConfig, {"encoder_layers": -1}, "encoder_layers must be >= 0, got -1",
     "encoder_layers"),
    (GateConfig, {"decoder_layers": -1}, "decoder_layers must be >= 0, got -1",
     "decoder_layers"),
    (GateConfig, {"ff_width": 0}, "ff_width must be >= 1, got 0", "ff_width"),
    (GateConfig, {"num_classes": -1}, "num_classes must be >= 0, got -1", "num_classes"),
    (GateConfig, {"d_model": 8, "heads": 3}, "heads must divide d_model 8, got 3",
     ("heads", "d_model")),
    (SACConfig, {"state_dim": 0}, "state_dim must be >= 1, got 0", "state_dim"),
    (SACConfig, {"tau": 0.0}, "tau must be in (0, 1], got 0.0", "tau"),
    (SACConfig, {"tau": 7.0}, "tau must be in (0, 1], got 7.0", "tau"),
    (SACConfig, {"discount": 2.0}, "discount must be in [0, 1], got 2.0", "discount"),
    (SACConfig, {"discount": -3.0}, "discount must be in [0, 1], got -3.0", "discount"),
    (SACConfig, {"lr": -1.0}, "lr must be finite and > 0, got -1.0", "lr"),
    (SACConfig, {"lr": math.inf}, "lr must be finite and > 0, got inf", "lr"),
    (SACConfig, {"hidden": 0}, "hidden must be >= 1, got 0", "hidden"),
    (SACConfig, {"batch_size": 0}, "batch_size must be >= 1, got 0", "batch_size"),
    (SACConfig, {"buffer_capacity": 0}, "buffer_capacity must be >= 1, got 0",
     "buffer_capacity"),
    (SACConfig, {"lambda_min": math.nan}, "lambda_min must be finite, got nan", "lambda_min"),
    (SACConfig, {"lambda_max": -math.inf}, "lambda_max must be finite, got -inf",
     "lambda_max"),
    (SACConfig, {"lambda_min": 2.0}, "lambda range [2.0, 1.0] is empty",
     ("lambda_min", "lambda_max")),
    (SACConfig, {"buffer_capacity": 10}, "buffer_capacity 10 is below batch_size 64",
     ("buffer_capacity", "batch_size")),
    (GateSection, {"heads": 0}, "heads must be >= 1, got 0", "heads"),
    (AgentSection, {"tau": 0.0}, "tau must be in (0, 1], got 0.0", "tau"),
    (TrainerSection, {"epochs": -1}, "epochs must be >= 0, got -1", "epochs"),
    (TrainerSection, {"batch_size": 0}, "batch_size must be >= 1, got 0", "batch_size"),
    (TrainerSection, {"gate_lr": -0.5}, "gate_lr must be finite and > 0, got -0.5", "gate_lr"),
    (TrainerSection, {"expert_lr": math.inf}, "expert_lr must be finite and > 0, got inf",
     "expert_lr"),
    (TrainerSection, {"walks_train": 0}, "walks_train must be >= 1, got 0", "walks_train"),
    (TrainerSection, {"walks_infer": 0}, "walks_infer must be >= 1, got 0", "walks_infer"),
    (DataSection, {"classes": 0}, "classes must be >= 1, got 0", "classes"),
    (DataSection, {"per_class": 0}, "per_class must be >= 1, got 0", "per_class"),
    (ExpertsSection, {"hidden": 0}, "hidden must be >= 1, got 0", "hidden"),
]


@pytest.mark.parametrize("cls, values, message, setting", BAD_VALUES,
                         ids=[f"{cls.__name__}-{'-'.join(f'{k}={v}' for k, v in values.items())}"
                              for cls, values, _, _ in BAD_VALUES])
def test_each_class_rejects_a_bad_value_naming_its_setting(cls, values, message, setting):
    base, error = CLASSES[cls]
    with pytest.raises(error) as caught:
        cls(**{**base, **values})
    assert str(caught.value) == message
    assert caught.value.setting == setting


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_every_number_field_has_a_rule_in_its_class(cls):
    """A negative int or a nan breaks every rule a size, count, rate or
    lambda end has: a number field added with no rule of its own fails here."""
    base, error = CLASSES[cls]
    numbers = [f for f in fields(cls) if f.type in (int, float)]
    assert numbers
    for f in numbers:
        with pytest.raises(error) as caught:
            cls(**{**base, f.name: -1 if f.type is int else math.nan})
        assert caught.value.setting == f.name
