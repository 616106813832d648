"""Per-layer spans recorded from outside the program.

The traced run wraps every public function, and the public methods and
properties of every public class, that the gyrokin layer modules define,
and rebinds each wrapper under every module that imported the original.
Calls one layer makes into another (trig -> gyro -> ball) therefore pass
through the wrappers too.  Nothing inside the program is edited.

Spans are aggregated in memory as they close (calls, self time, rows and
bytes per name, calls per caller -> callee layer pair) and read out once
when the run ends.  A span's self time is its duration minus the durations
of the spans it directly contains.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("ball", "gyro", "space", "trig", "aberration", "mass", "cli")

# Functions whose result rows are counted: every gyro kernel, the validation
# boundary, and the pairwise relative-gamma kernel of the dark mass.
ROW_COUNTED = {"ball.as_velocity", "mass.gamma_rel_minus_1"}

# Row-counted functions whose result holds one scalar per row; the others
# return one n-vector per row.
SCALAR_RESULT = {"gamma", "gamma_of_speed", "speed_of_gamma", "add_speeds",
                 "gamma_rel_minus_1"}

CLASS_DUNDERS = {"__init__", "__post_init__", "__call__", "__len__"}


def _rows(name, result):
    if not isinstance(result, np.ndarray):
        return 0
    if name in SCALAR_RESULT or result.ndim == 0:
        return result.size
    return result.size // result.shape[-1]


def _nbytes(values):
    total = 0
    for x in values:
        if isinstance(x, np.ndarray):
            total += x.nbytes
        elif isinstance(x, float):
            total += 8
    return total


class Tracer:
    """Wraps the program's public names and aggregates the spans they record."""

    def __init__(self):
        self.on = True
        self._stack = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.rows = Counter()
        self.bytes = Counter()
        self.edges = Counter()
        self.emit_s = 0.0
        self._emit_depth = 0

    @contextlib.contextmanager
    def paused(self):
        """Run the body untraced (benchmark checks that call the program)."""
        was, self.on = self.on, False
        try:
            yield
        finally:
            self.on = was

    def wrap(self, name, fn, *, count_rows=False, count_bytes=False, emit=False):
        layer = name.split(".", 1)[0]
        short = name.rsplit(".", 1)[-1]
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            caller = stack[-1][0] if stack else "bench"
            if caller != layer:
                self.edges[caller, layer] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            if emit:
                self._emit_depth += 1
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                if emit:
                    self._emit_depth -= 1
                    if self._emit_depth == 0:
                        self.emit_s += elapsed
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame[1]
                if count_rows:
                    self.rows[name] += _rows(short, result)
                if count_bytes:
                    self.bytes[name] += _nbytes(args) + _nbytes((result,))

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap the public names of every gyrokin layer module in place."""
        import click

        package = importlib.import_module("gyrokin")
        modules = {layer: importlib.import_module(f"gyrokin.{layer}") for layer in LAYERS}
        holders = [package, *modules.values()]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(name, obj)
                elif inspect.isfunction(obj):
                    wrapped = self.wrap(name, obj,
                                        count_rows=layer == "gyro" or name in ROW_COUNTED,
                                        count_bytes=layer == "gyro")
                    for holder in holders:
                        for key, value in list(vars(holder).items()):
                            if value is obj:
                                setattr(holder, key, wrapped)
        # The CLI writes through click.echo, both from Config.emit and from
        # the hand-rolled sweep table; both count as the emit stage.  click
        # is its own layer, so cli.calls counts gyrokin's code only.
        click.echo = self.wrap("click.echo", click.echo, emit=True)

    def _wrap_class(self, name, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in CLASS_DUNDERS:
                continue
            span = f"{name}.{attr}"
            if inspect.isfunction(member):
                setattr(cls, attr, self.wrap(span, member, emit=span == "cli.Config.emit"))
            elif isinstance(member, property) and member.fget is not None:
                setattr(cls, attr, property(self.wrap(span, member.fget)))

    # --- read-out --------------------------------------------------------

    def total(self, table, prefix):
        """Sum of a per-name table over names equal to or under ``prefix``."""
        return sum(v for k, v in table.items()
                   if k == prefix or k.startswith(prefix + "."))
