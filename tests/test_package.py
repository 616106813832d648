"""The package namespace: its core loads eagerly, its composite modules on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gyrokin

SRC = Path(gyrokin.__file__).parents[1]
CORE = ["gyrokin", "gyrokin.ball", "gyrokin.errors", "gyrokin.gyro"]

# Run in a fresh interpreter: prints what the package held before and after
# the first composite name was read.
PROBE = r'''
import json, sys, types
import gyrokin

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "gyrokin")

# The exports that carry no __module__ of their own: the constants.
CONSTANTS = {"BALL_MARGIN": "gyrokin.ball", "MAX_NORM": "gyrokin.ball",
             "ARCSEC_PER_RAD": "gyrokin.aberration"}

def home(name, obj):
    """The module that defines the export ``name``, if it holds ``obj`` there."""
    if isinstance(obj, types.ModuleType):
        return obj.__name__ if obj is sys.modules[f"gyrokin.{name}"] else None
    module = CONSTANTS.get(name, getattr(obj, "__module__", None))
    return module if vars(sys.modules[module]).get(name) is obj else None

out = {"on_import": loaded(), "hook_on_import": "__getattr__" in vars(gyrokin),
       "dir": sorted(set(gyrokin.__all__) - set(dir(gyrokin))),
       "all": gyrokin.__all__}
try:
    gyrokin.no_such_name
except AttributeError as exc:
    out["unknown"] = str(exc)
gyrokin.scalar_mul
out["hook_after"] = "__getattr__" in vars(gyrokin)
out["after"] = loaded()
out["homes"] = {n: home(n, vars(gyrokin)[n]) for n in gyrokin.__all__ if n in vars(gyrokin)}
try:
    gyrokin.no_such_name
except AttributeError as exc:
    out["unknown_after"] = str(exc)
star = {}
exec("from gyrokin import *", star)
out["star"] = sorted(set(star) - {"__builtins__"})
print(json.dumps(out))
'''


def fresh(code):
    """stdout of ``code`` run in a fresh interpreter on this checkout's src/."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    return proc.stdout


@pytest.fixture(scope="module")
def probe():
    return json.loads(fresh(PROBE))


def test_import_loads_the_core_only(probe):
    assert probe["on_import"] == CORE
    assert probe["hook_on_import"]


def test_all_is_listed_by_dir_before_any_load(probe):
    assert len(probe["all"]) == 77 and probe["dir"] == []


def test_first_composite_name_loads_all_four_and_removes_the_hook(probe):
    assert probe["after"] == sorted(CORE + [f"gyrokin.{m}" for m in
                                            ("space", "trig", "aberration", "mass")])
    assert probe["hook_after"] is False


def test_every_export_is_its_home_modules_object(probe):
    homes = probe["homes"]
    assert sorted(homes) == probe["all"]
    assert None not in homes.values(), homes
    assert homes["scalar_mul"] == "gyrokin.space" and homes["space"] == "gyrokin.space"
    assert homes["Particle"] == "gyrokin.mass" and homes["gamma"] == "gyrokin.gyro"
    assert homes["ParticleFormatError"] == "gyrokin.errors"


def test_star_import_binds_every_name(probe):
    assert probe["star"] == probe["all"]


def test_unknown_name_is_named(probe):
    message = "module 'gyrokin' has no attribute 'no_such_name'"
    assert probe["unknown"] == probe["unknown_after"] == message


def test_moved_names_keep_their_old_paths():
    assert gyrokin.mass.ParticleFormatError is gyrokin.errors.ParticleFormatError
    assert gyrokin.ParticleFormatError is gyrokin.errors.ParticleFormatError
    assert gyrokin.space.COLLINEAR_AREA_TOL == gyrokin.ball.COLLINEAR_AREA_TOL == 1e-12
    assert gyrokin.trig.RIGHT_ANGLE_TOL == gyrokin.ball.RIGHT_ANGLE_TOL == 1e-8
