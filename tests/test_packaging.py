"""Every console script that pyproject.toml declares must import, every name a
subpackage exports must resolve, names taken out of the API stay out, and the
functions the benchmark wraps keep the names and return types it reads."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import uav_iscc
from uav_iscc.agents import MuAction, decode_mu_action
from uav_iscc.env import (
    Allocation,
    ScenarioConfig,
    build_all_channels,
    build_radar_state,
    design_links,
    mu_slot_outcome,
    reset_world,
)

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
SPANS = ROOT / "perfbench" / "spans.py"

SUBPACKAGES = ("uav_iscc.env", "uav_iscc.agents", "uav_iscc.mappo", "uav_iscc.numerics")

# module-level names and class attributes that were deleted as unused
DELETED_NAMES = ("apply_overrides", "_coerce", "MuObservation", "UavObservation",
                 "build_observations", "clip", "softmax", "roster_of", "MuState", "TaskSpec",
                 "serving_uav", "served_by", "UavState", "RadarState", "radar_leakage",
                 "radar_rate_from_filter", "radar_geometry", "elevation_angle",
                 "steering_vector", "decode_uav_action", "penalty_P", "latency_penalty",
                 "_lift", "gaussian_log_prob", "gaussian_sample", "gaussian_entropy",
                 "state_values_batch", "global_grad_norm", "_GAUSS_CLAMP",
                 "BetaHeadParams", "ActorParams", "_log_width_total", "comm_rate",
                 "mmse_beamformer", "_solve_hpd", "beta_log_prob", "beta_entropy", "train",
                 "dvfs_frequency", "AttentionBlockParams")
DELETED_ATTRS = {
    ("uav_iscc.env.config", "ScenarioConfig"):
        ("horizon_slots", "reward_mode", "from_mapping", "field_names",
         "compression_enabled", "computation_enabled", "induced_power_form",
         "mobility_speed_noise_mean", "mobility_heading_noise_mean"),
    ("uav_iscc.numerics.tensor", "Tensor"):
        ("__pow__", "__truediv__", "__rtruediv__", "__rsub__", "log", "sqrt", "maximum",
         "zero_grad", "transpose", "lgamma", "digamma", "__matmul__", "size"),
    ("uav_iscc.numerics.nn", "MlpParams"): ("in_width",),
    ("uav_iscc.agents.rewards", "RewardBreakdown"): ("factors",),
    ("uav_iscc.env.types", "WorldState"): ("uavs", "channels"),
    ("uav_iscc.mappo.trainer", "EvalResult"): ("trajectory_rows", "reports"),
    ("uav_iscc.mappo.trainer", "Trainer"): ("_record_rows", "_values"),
    ("uav_iscc.mappo.trainer", "TrainerConfig"): ("policy", "critic", "actor_lr", "critic_lr"),
    ("uav_iscc.mappo.critics", "CriticParams"): ("kind", "state_head", "attention"),
    ("uav_iscc.mappo.buffer", "RolloutBatch"): ("global_state",),
    ("uav_iscc.mappo.buffer", "TypeRollout"): ("values", "advantages", "targets"),
}


def test_declared_console_scripts_import():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


@pytest.mark.parametrize("package", SUBPACKAGES)
def test_exported_names_resolve(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name}"


def test_deleted_names_stay_deleted():
    for info in pkgutil.walk_packages(uav_iscc.__path__, "uav_iscc."):
        module = importlib.import_module(info.name)
        for name in DELETED_NAMES:
            assert not hasattr(module, name), f"{info.name}.{name}"
    for (module, cls), attrs in DELETED_ATTRS.items():
        owner = getattr(importlib.import_module(module), cls)
        # a dataclass field with no plain default is no class attribute
        fields = getattr(owner, "__dataclass_fields__", {})
        for attr in attrs:
            assert not hasattr(owner, attr) and attr not in fields, f"{module}.{cls}.{attr}"


def test_benchmark_wrapped_functions_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)   # its dataclasses look it up
    spec.loader.exec_module(spans)
    for wrap in spans.LAYER_WRAPS:
        owner = importlib.import_module(wrap.module)
        for part in wrap.attr.split("."):
            assert hasattr(owner, part), f"{wrap.module}.{wrap.attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{wrap.module}.{wrap.attr}"


def test_benchmark_hooks_read_per_mu_scalars():
    # the decode hook collects one int choice per MU, the delay hook one float latency
    cfg = ScenarioConfig(num_mus=2, num_uavs=2).validate()
    vec = np.array([0.1, 0.8, 0.2, 0.5, 0.5])
    choice = decode_mu_action(MuAction.from_vector(vec, cfg), cfg)[0]
    assert type(choice) is int and choice == 0
    task = (1e6, 1000.0, 200.0, 0.5, 1.0)
    for rate in (1e7, 0.0):
        out = mu_slot_outcome(task, 0.5, 0.5, 1e10, rate, 200.0, cfg)
        assert type(out.latency) is float
    # the link hook counts len(first result) as the slot's served MUs
    cfg = ScenarioConfig(num_mus=4, num_uavs=2).validate()
    rng = np.random.default_rng(0)
    world = reset_world(cfg, rng)
    leakage = build_radar_state(world, cfg)[2]
    for serving in ([-1, -1, -1, -1], [1, -1, 0, 1]):
        alloc = Allocation(serving=np.array(serving), offload_ratio=np.full(4, 0.5),
                           compress_ratio=np.full(4, 0.5), edge_cpu=np.zeros((4, 2)))
        mus = np.flatnonzero(alloc.serving >= 0)
        channels = build_all_channels(world, mus, np.unique(alloc.serving[mus]), cfg, rng)
        served = sum(m >= 0 for m in serving)
        assert len(design_links(channels, alloc, leakage, cfg)[0]) == served
