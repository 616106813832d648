import importlib

import numpy as np
import pytest

LAYERS = ("ball", "gyro", "space", "trig", "aberration", "mass", "cli")


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def _count_checks(monkeypatch, record):
    """Rebind the admissibility check so that each call runs record(v, name) first.

    ball._norm_sq_checked is the one velocity check: as_velocity calls it,
    and so do the kernels, inside each row block.  It is rebound
    wherever a gyrokin module holds it, so calls from every layer are
    counted.
    """
    original = importlib.import_module("gyrokin.ball")._norm_sq_checked

    def counting(v, name, *args):
        record(v, name)
        return original(v, name, *args)

    modules = [importlib.import_module("gyrokin")]
    modules += [importlib.import_module(f"gyrokin.{m}") for m in LAYERS]
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, key, counting)


@pytest.fixture
def validation_calls(monkeypatch):
    """The names passed to the admissibility check, from every gyrokin layer.

    Clear the list before the call counted.
    """
    calls = []
    _count_checks(monkeypatch, lambda arr, name: calls.append(name))
    return calls


@pytest.fixture
def checked_rows(monkeypatch):
    """(name, rows) of each admissibility check: a batch's rows, 1 for one vector.

    The check takes a list of components: a batch's columns or one vector's floats.
    """
    calls = []
    _count_checks(monkeypatch,
                  lambda v, name: calls.append((name, len(v[0]) if np.ndim(v[0]) else 1)))
    return calls
