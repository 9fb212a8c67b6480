"""The field rule both configs obey: every field is checked for its type,
finiteness and sign, a field added later included, and a rejection names the
field."""

import math
from dataclasses import fields

import numpy as np
import pytest

from uav_iscc.env import ConfigError, ScenarioConfig
from uav_iscc.mappo import TrainerConfig

# the fields that may be 0 or of any sign; every other number must be > 0
NON_NEGATIVE = {
    ScenarioConfig: {"num_mus", "roster_capacity", "mobility_speed_memory",
                     "mobility_heading_memory", "mobility_mean_speed",
                     "mobility_speed_noise_std", "mobility_heading_noise_std",
                     "reward_energy_weight", "reward_distance_weight"},
    TrainerConfig: {"episodes", "ppo_epochs", "gae_lambda", "entropy_coef", "seed"},
}
ANY_SIGN = {"ref_gain_db", "noise_power_dbm", "mobility_mean_heading"}
NOT_A_NUMBER = {"hidden_sizes"}      # a sequence of widths, checked by TrainerConfig

FIELDS = [(cls, f) for cls in (ScenarioConfig, TrainerConfig) for f in fields(cls)]


def accept(cls, name, value):
    cls(**{name: value}).validate()


def reject(cls, name, value):
    with pytest.raises(ConfigError, match=rf"\b{name}\b"):
        cls(**{name: value}).validate()


@pytest.mark.parametrize("cls, field", FIELDS, ids=[f"{c.__name__}.{f.name}" for c, f in FIELDS])
def test_every_field_follows_the_rule(cls, field):
    name = field.name
    assert field.type in ("int", "float") or name in NOT_A_NUMBER, (name, field.type)
    for bad in (math.nan, math.inf, -math.inf):
        if (name, bad) == ("rician_factor", math.inf):
            accept(cls, name, bad)      # a pure line-of-sight channel
        else:
            reject(cls, name, bad)
    reject(cls, name, True)
    if field.type != "float":
        for bad in (2.5, np.int64(2)):
            reject(cls, name, bad)
            if name in NOT_A_NUMBER:
                reject(cls, name, (bad,))
    if name in NOT_A_NUMBER:
        return
    zero, minus_one = (0, -1) if field.type == "int" else (0.0, -1.0)
    if name in ANY_SIGN:
        accept(cls, name, minus_one)
    elif name in NON_NEGATIVE[cls]:
        accept(cls, name, zero)
        reject(cls, name, minus_one)
    else:
        reject(cls, name, zero)
        reject(cls, name, minus_one)


# values that the checks of named fields used to let through, and a numpy count
PROBES = [
    (ScenarioConfig, "reward_energy_weight", math.nan),
    (ScenarioConfig, "reward_distance_weight", -1),
    (ScenarioConfig, "mobility_mean_speed", math.nan),
    (ScenarioConfig, "mobility_mean_speed", -5),
    (ScenarioConfig, "mobility_mean_heading", math.inf),
    (ScenarioConfig, "num_uavs", 2.5),
    (ScenarioConfig, "rx_antennas", 2.5),
    (ScenarioConfig, "uav_v_max", math.inf),
    (ScenarioConfig, "region_width", math.inf),
    (ScenarioConfig, "weight_factor", math.inf),
    (ScenarioConfig, "kappa_mu", math.inf),
    (ScenarioConfig, "num_mus", np.int64(4)),   # its config_hash differs from num_mus=4
    (TrainerConfig, "entropy_coef", math.nan),
    (TrainerConfig, "entropy_coef", -1),
    (TrainerConfig, "episode_length", 2.5),
    (TrainerConfig, "minibatches", 1.5),
    (TrainerConfig, "grad_clip", math.inf),
    (TrainerConfig, "lr", math.inf),
]


@pytest.mark.parametrize("cls, name, value", PROBES,
                         ids=[f"{c.__name__}.{n}={v!r}" for c, n, v in PROBES])
def test_out_of_range_value_rejected_with_the_field_name(cls, name, value):
    reject(cls, name, value)


# (config, settings that break a limit between or above fields, the field named)
CROSS_FIELD = [
    (ScenarioConfig, {"safety_distance": 10.0, "region_width": 10.0}, "safety_distance"),
    (ScenarioConfig, {"data_bits_min": 2.0e6}, "data_bits_min"),
    (ScenarioConfig, {"decompress_density_max": 50.0}, "decompress_density_max"),
    (ScenarioConfig, {"deadline_min": 0.9, "deadline_max": 0.8}, "deadline_min"),
    (ScenarioConfig, {"deadline_max": 1.5}, "deadline_max"),
    (ScenarioConfig, {"compress_ratio_max": 1.5}, "compress_ratio_max"),
    (ScenarioConfig, {"mobility_heading_memory": 1.5}, "mobility_heading_memory"),
    (TrainerConfig, {"discount": 1.0}, "discount"),
    (TrainerConfig, {"clip_ratio": 1.0}, "clip_ratio"),
    (TrainerConfig, {"gae_lambda": 1.5}, "gae_lambda"),
]


@pytest.mark.parametrize("cls, settings, name", CROSS_FIELD,
                         ids=[",".join(settings) for _, settings, _ in CROSS_FIELD])
def test_cross_field_limit_rejected_with_the_field_name(cls, settings, name):
    with pytest.raises(ConfigError, match=rf"\b{name}\b"):
        cls(**settings).validate()


def test_exemption_lists_name_fields_of_their_config():
    for cls in (ScenarioConfig, TrainerConfig):
        names = {f.name for f in fields(cls)}
        for exempt in ("NON_NEGATIVE", "ANY_SIGN", "INF_ALLOWED"):
            assert set(getattr(cls, exempt, ())) <= names, (cls.__name__, exempt)
