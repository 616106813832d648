import importlib

import numpy as np
import pytest

LAYERS = ("ball", "gyro", "space", "trig", "aberration", "mass", "cli")


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture
def validation_calls(monkeypatch):
    """The names passed to as_velocity, recorded from every gyrokin layer.

    as_velocity is rebound wherever a gyrokin module holds it, so calls
    from every layer are counted.  Clear the list before the call counted.
    """
    original = importlib.import_module("gyrokin.ball").as_velocity
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("name"))
        return original(*args, **kwargs)

    modules = [importlib.import_module("gyrokin")]
    modules += [importlib.import_module(f"gyrokin.{m}") for m in LAYERS]
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, key, counting)
    return calls
