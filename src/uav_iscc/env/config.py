"""Scenario configuration: every physical constant and task-distribution range
of the simulated network, with defaults matching the reference setup.

Values that the literature quotes in dB/dBm are stored that way and exposed in
linear units through properties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .types import TASK_FIELDS


class ConfigError(ValueError):
    """Out-of-range value in a scenario or trainer configuration."""


def check_fields(config, non_negative=(), any_sign=(), inf_allowed=()) -> None:
    """The one rule for a config's numbers: an int field holds an int (a bool or a numpy
    integer, whose `config_hash` differs, is refused), a float field an int or a float. Each is
    finite and > 0, but where `inf_allowed` (+inf), `non_negative` (0) or `any_sign` say."""
    for f in fields(config):
        kind = {"int": int, "float": (int, float)}.get(f.type)
        if kind is None:            # left to the config's own checks
            continue
        value = getattr(config, f.name)
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigError(f"{f.name} must be a Python {f.type}, "
                              f"got {type(value).__name__} {value!r}")
        if not (math.isfinite(value) or (value == math.inf and f.name in inf_allowed)):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if f.name in non_negative:
            if value < 0:
                raise ConfigError(f"{f.name} must be >= 0, got {value!r}")
        elif f.name not in any_sign and value <= 0:
            raise ConfigError(f"{f.name} must be > 0, got {value!r}")


@dataclass
class ScenarioConfig:
    # geometry / time
    region_width: float = 1000.0          # m, square service area side
    altitude: float = 200.0               # m, fixed UAV flight height
    slot_seconds: float = 1.0             # s per decision slot

    # population
    num_uavs: int = 5
    num_mus: int = 25

    # radio
    tx_antennas: int = 4                  # per MU
    rx_antennas: int = 4                  # per UAV
    bandwidth_hz: float = 1.0e7
    ref_gain_db: float = -30.0            # channel power gain at 1 m
    rician_factor: float = 10.0
    noise_power_dbm: float = -65.0

    # radar sensing
    radar_duty: float = 0.01
    radar_pulse_s: float = 2.0e-5
    radar_gain_product: float = 1.0       # scalar inside log2(1 + 2*B*mu*gamma)
    radar_rate_min: float = 2.2e4         # bps floor for the estimation rate
    uav_power_max: float = 0.5            # W, radar transmit budget

    # computation
    mu_power_max: float = 0.5             # W, uplink transmit power
    mu_cpu_max: float = 1.0e9             # Hz
    uav_cpu_max: float = 1.0e10           # Hz
    kappa_mu: float = 1.0e-27             # effective capacitance, MU CPU
    kappa_uav: float = 1.0e-27            # effective capacitance, UAV CPU

    # flight
    uav_v_max: float = 20.0               # m/s
    uav_a_max: float = 5.0                # m/s^2
    safety_distance: float = 3.0          # m between UAVs
    blade_power: float = 59.03            # W, hover blade profile
    induced_power: float = 79.07          # W, hover induced
    tip_speed: float = 120.0              # m/s
    rotor_velocity: float = 3.6           # m/s, mean induced velocity
    rotor_area: float = 0.503             # m^2
    fuselage_drag: float = 0.6
    air_density: float = 1.225            # kg/m^3
    rotor_solidity: float = 0.05

    # objective
    weight_factor: float = 0.001          # UAV energy weight in the objective

    # task distribution (uniform ranges, drawn per MU per slot)
    data_bits_min: float = 0.5e6
    data_bits_max: float = 1.5e6
    compute_density_min: float = 500.0    # cycles/bit
    compute_density_max: float = 1500.0
    compress_density_min: float = 100.0   # cycles/bit
    compress_density_max: float = 300.0
    decompress_density_min: float = 100.0
    decompress_density_max: float = 300.0
    compress_ratio_min: float = 0.2
    compress_ratio_max: float = 0.8
    deadline_min: float = 0.7             # s
    deadline_max: float = 1.0

    # Gauss-Markov mobility of MUs
    mobility_speed_memory: float = 0.8
    mobility_heading_memory: float = 0.8
    mobility_mean_speed: float = 1.0      # m/s
    mobility_mean_heading: float = 0.0    # rad
    mobility_speed_noise_std: float = 0.3
    mobility_heading_noise_std: float = 0.4

    # reward shaping
    reward_energy_weight: float = 0.3     # k1, energy share of the UAV base
    reward_distance_weight: float = 0.7   # k2, centroid-distance share
    distance_threshold: float = 350.0     # m, slack before the centroid term bites
    roster_capacity: int = 0              # 0 -> ceil(2K/M)

    # exemptions from the field rule (`check_fields`); every other number is > 0
    NON_NEGATIVE = ("num_mus", "mobility_speed_noise_std", "mobility_heading_noise_std",
                    "roster_capacity", "mobility_speed_memory", "mobility_heading_memory",
                    "mobility_mean_speed", "reward_energy_weight", "reward_distance_weight")
    ANY_SIGN = ("ref_gain_db", "noise_power_dbm", "mobility_mean_heading")
    INF_ALLOWED = ("rician_factor",)     # +inf: a pure line-of-sight channel

    # ------------------------------------------------------------------
    @property
    def ref_gain(self) -> float:
        """Linear channel power gain at the reference distance."""
        return 10.0 ** (self.ref_gain_db / 10.0)

    @property
    def noise_power(self) -> float:
        """Receiver noise power in watts."""
        return 10.0 ** ((self.noise_power_dbm - 30.0) / 10.0)

    @property
    def k_cap(self) -> int:
        """Fixed roster size of MUs a UAV observes and serves."""
        return self.roster_capacity or max(1, math.ceil(2 * self.num_mus / self.num_uavs))

    def validate(self) -> "ScenarioConfig":
        check_fields(self, self.NON_NEGATIVE, self.ANY_SIGN, self.INF_ALLOWED)
        for name, prop in (("noise_power_dbm", "noise_power"), ("ref_gain_db", "ref_gain")):
            try:
                linear = getattr(self, prop)
            except OverflowError:       # 10 ** (dB / 10) beyond the float range
                linear = math.inf
            if not 0 < linear < math.inf:
                raise ConfigError(f"{name} = {getattr(self, name)} is {linear} in linear units, "
                                  "need a finite value > 0")
        if self.safety_distance >= self.region_width:
            raise ConfigError("safety_distance must be smaller than region_width")
        ranges = [(f"{name}_min", f"{name}_max") for name in (*TASK_FIELDS, "decompress_density")]
        for lo, hi in [*ranges, ("deadline_max", "slot_seconds")]:
            if getattr(self, lo) > getattr(self, hi):
                raise ConfigError(f"need {lo} <= {hi}")
        for name in ("compress_ratio_max", "mobility_speed_memory", "mobility_heading_memory"):
            if getattr(self, name) > 1.0:
                raise ConfigError(f"{name} must be <= 1")
        return self
