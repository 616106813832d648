import importlib

import numpy as np
import pytest

LAYERS = ("ball", "gyro", "space", "trig", "aberration", "mass", "cli")


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture
def validation_calls(monkeypatch):
    """The names passed to the admissibility check, from every gyrokin layer.

    ball._norm_sq_checked is the one check: as_velocity and as_ambient call
    it, and so do the kernels, inside each row block.  It is rebound
    wherever a gyrokin module holds it, so calls from every layer are
    counted.  Clear the list before the call counted.
    """
    original = importlib.import_module("gyrokin.ball")._norm_sq_checked
    calls = []

    def counting(arr, name, *args):
        calls.append(name)
        return original(arr, name, *args)

    modules = [importlib.import_module("gyrokin")]
    modules += [importlib.import_module(f"gyrokin.{m}") for m in LAYERS]
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, key, counting)
    return calls
