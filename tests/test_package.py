"""The package namespace: its core loads eagerly, its composite modules and numpy on first use."""

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


# Run in a fresh interpreter: the exit code and output of one CLI invocation
# (or of ``import gyrokin`` alone), and whether numpy's package code ran.  A
# lazy numpy stands in sys.modules before it runs, so the probe asks for
# numpy.linalg, which numpy's own __init__ imports.
NUMPY_PROBE = r'''
import contextlib, io, json, sys
code, out = 0, io.StringIO()
if sys.argv[1:] == ["import"]:
    import gyrokin
else:
    from gyrokin.cli import main
    sys.argv[0] = "gyrokin"
    with contextlib.redirect_stdout(out):
        code = main(sys.argv[1:])
print(json.dumps([code, out.getvalue(), "numpy.linalg" in sys.modules]))
'''

UV = ["--u", "0.6,0,0", "--v", "0,0.6,0"]
AB = ["--a", "0.6,0,0", "--b", "0,0.6,0"]
# Each command's success path, with the first line it prints.
WITHOUT_NUMPY = {
    ("--help",): "Usage: gyrokin [OPTIONS] COMMAND [ARGS]...",
    ("--version",): "gyrokin, version 0.1.0",
    ("add", *UV): "result: 0.6,0.48,0",
    ("sub", *UV): "result: 0.6,-0.48,0",
    ("coadd", *UV): "result: 0.508474576271186,0.508474576271186,0",
    ("distance", *AB): "result: 0.768374908491942",
    ("gyr", *UV, "--w", "0.1,0.2,0.3"): "result: 0.141463414634146,0.173170731707317,0.3",
    ("midpoint", "--a", "0,0,0", "--b", "0.8,0,0"): "result: 0.5,0,0",
    ("parallelogram", "--a", "0,0,0", "--b", "0.6,0,0", "--c", "0,0.6,0"):
        "result: 0.508474576271186,0.508474576271186,0",
    ("triangle", "--mode", "sss", "--sides", "0.3,0.4,0.5"): "side_a: 0.3",
    ("triangle", "--mode", "aaa", "--angles", "30,40,90.0001", "--unit", "deg"):
        "side_a: 0.670147061553341",
}
WITH_NUMPY = {
    ("scale", "--r", "2", "--v", "0.5,0,0"): "result: 0.8,0,0",
    ("midpoint", "--a", "0,0,0", "--b", "0.8,0,0", "--t", "0.3"): "result: ",
    ("triangle", "--mode", "vertices", "--a", "0.6,0", "--b", "0,0.6", "--c", "0,0"):
        "side_a: ",
    ("aberration", "--model", "stellar", "--v", "0.5", "--theta-s", "1"): "model: stellar",
    ("aberration", "--model", "classical", "--v", "0.5c", "--sweep", "3", "--format", "csv"):
        "theta_s,",
    ("mass", "--in", "-"): "n_particles: 2",
}
PARTICLES = "1.0, 0.6, 0, 0\n1.0, -0.6, 0, 0\n"


def numpy_probe(*argv):
    """(exit code, stdout, whether numpy's code ran) of a fresh ``gyrokin *argv``."""
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE, *argv], input=PARTICLES,
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.stderr == ""
    return tuple(json.loads(proc.stdout))


def test_import_runs_no_numpy():
    assert numpy_probe("import") == (0, "", False)


@pytest.mark.parametrize("argv", WITHOUT_NUMPY, ids=" ".join)
def test_float_commands_run_no_numpy(argv):
    code, out, ran = numpy_probe(*argv)
    assert (code, out.splitlines()[0], ran) == (0, WITHOUT_NUMPY[argv], False)


# Run in a fresh interpreter: the output of ``gyrokin distance`` with the
# options in argv, and the gyrokin modules loaded when it ends.
DISTANCE_PROBE = r'''
import contextlib, io, json, sys
from gyrokin.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    main(["distance", *sys.argv[1:]])
print(json.dumps([out.getvalue(), sorted(m for m in sys.modules if m.startswith("gyrokin"))]))
'''


def test_distance_runs_without_space():
    """distance checks its symmetry by the norm of left_sub's floats route.

    That is gyrodistance's kernel, so the output keeps its bytes, and the
    command loads no gyrokin.space.
    """
    proc = subprocess.run([sys.executable, "-c", DISTANCE_PROBE, *AB], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == [
        "result: 0.768374908491942\ngamma: 1.5625\ncheck_symmetry_abs: 0\n",
        ["gyrokin", "gyrokin.ball", "gyrokin.cli", "gyrokin.errors", "gyrokin.gyro"]]


@pytest.mark.parametrize("argv", WITH_NUMPY, ids=" ".join)
def test_array_commands_load_numpy(argv):
    code, out, ran = numpy_probe(*argv)
    assert (code, ran) == (0, True)
    assert out.splitlines()[0].startswith(WITH_NUMPY[argv])


# Run in a fresh interpreter after the user's imports: whether every gyrokin
# module that binds numpy holds the user's numpy, and whether that numpy works.
SAME_NUMPY = r'''
import json, sys
import gyrokin, gyrokin.cli, gyrokin.space, gyrokin.trig
import numpy
print(json.dumps([all(vars(m).get("np", numpy) is numpy for m in sys.modules.values()
                      if m.__name__.startswith("gyrokin")),
                  gyrokin.ball.np is numpy, float(numpy.linalg.norm([3.0, 4.0]))]))
'''


@pytest.mark.parametrize("before", ["import numpy\n", ""], ids=["numpy first", "gyrokin first"])
def test_gyrokin_uses_the_users_numpy(before):
    assert json.loads(fresh(before + SAME_NUMPY)) == [True, True, 5.0]


# Run in a fresh interpreter: threads whose first calls all read numpy at once.
FIRST_USE_IN_THREADS = r'''
import json, threading
import gyrokin
barrier, results = threading.Barrier(8), []

def work():
    barrier.wait()
    try:
        results.append(gyrokin.einstein_add([0.5, 0.0, 0.0], [0.0, 0.5, 0.0]).tolist())
    except Exception as exc:
        results.append(repr(exc))

threads = [threading.Thread(target=work) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join()
print(json.dumps(results))
'''


def test_numpy_loads_once_for_threads_that_first_use_it_together():
    """No thread reads numpy while another runs its code."""
    want = gyrokin.einstein_add([0.5, 0.0, 0.0], [0.0, 0.5, 0.0]).tolist()
    assert json.loads(fresh(FIRST_USE_IN_THREADS)) == [want] * 8
