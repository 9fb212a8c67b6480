"""Every console script that pyproject.toml declares must import, every name a
subpackage exports must resolve, and names taken out of the API stay out."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import uav_iscc

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

SUBPACKAGES = ("uav_iscc.env", "uav_iscc.agents", "uav_iscc.mappo", "uav_iscc.numerics")

# module-level names and class attributes that were deleted as unused
DELETED_NAMES = ("apply_overrides", "_coerce", "MuObservation", "UavObservation",
                 "build_observations", "clip", "softmax", "roster_of")
DELETED_ATTRS = {
    ("uav_iscc.env.config", "ScenarioConfig"):
        ("horizon_slots", "reward_mode", "from_mapping", "field_names"),
    ("uav_iscc.numerics.tensor", "Tensor"):
        ("__pow__", "__truediv__", "__rtruediv__", "__rsub__", "log", "sqrt", "maximum",
         "zero_grad"),
    ("uav_iscc.numerics.nn", "MlpParams"): ("in_width",),
    ("uav_iscc.agents.rewards", "RewardBreakdown"): ("factors",),
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
        for attr in attrs:
            assert not hasattr(owner, attr), f"{module}.{cls}.{attr}"
