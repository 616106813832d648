"""Checks on the library's source text."""

import ast
import pathlib

import pytest

from helpers import SQRT_MODULES

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "gyrokin"

# __init__ imports the public names in order to export them.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names a module imports but never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_finds_an_unused_import():
    assert unused_imports("import math\nfrom .ball import dot, norm\nnorm(1)\n") == [
        "math", "dot"]
    assert unused_imports("import os.path\nfrom x import y as z\nos.sep, z\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def binds_sqrt(source: str) -> bool:
    """Whether a module defines a function _sqrt or imports the name _sqrt."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == "_sqrt":
            return True
        if isinstance(node, ast.ImportFrom) and any(a.name == "_sqrt" for a in node.names):
            return True
    return False


def test_interval_runs_patch_every_sqrt():
    """helpers.on_intervals patches _sqrt in every module that defines or imports it."""
    binding = {"gyrokin" if p.stem == "__init__" else f"gyrokin.{p.stem}"
               for p in SRC.glob("*.py") if binds_sqrt(p.read_text(encoding="utf-8"))}
    assert set(SQRT_MODULES) == binding
    assert binds_sqrt("from .ball import _dot, _sqrt\n")
    assert binds_sqrt("def _sqrt(x):\n    return x\n")
    assert not binds_sqrt("from .ball import sqrt\nx = _sqrt\n")


# Helpers of ball's row blocks and real coercion that the other layers reach
# only through a checked boundary (ball._operation).
BOUNDARY_INTERNALS = {"_by_rows", "_on_components", "_real_array"}


@pytest.mark.parametrize("name", ["gyro", "space", "trig", "aberration"])
def test_layers_reach_row_blocks_only_through_a_boundary(name):
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    imported = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert imported & BOUNDARY_INTERNALS == set()


def forwarders(source: str) -> list:
    """The public module-level functions whose body, after its docstring, only
    returns a call of a private name."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        body = node.body[1:] if ast.get_docstring(node) is not None else node.body
        if (len(body) == 1 and isinstance(body[0], ast.Return)
                and isinstance(body[0].value, ast.Call)
                and isinstance(body[0].value.func, ast.Name)
                and body[0].value.func.id.startswith("_")):
            found.append(node.name)
    return found


def test_finds_a_forwarder():
    source = ('def f(x):\n    """Doc."""\n    return _g(x)\n\n\ndef g(x):\n    return _h(x, 1)\n\n\n'
              '@_declare(_k)\ndef h(x):\n    """Doc."""\n\n\ndef k(x):\n    return j(x)\n\n\n'
              'def _m(x):\n    return _k(x)\n\n\ndef n(x):\n    y = _k(x)\n    return y\n')
    assert forwarders(source) == ["f", "g"]


@pytest.mark.parametrize("name", ["gyro", "space", "trig", "aberration", "mass"])
def test_no_public_function_forwards_to_a_private_one(name):
    """A public operation is its own boundary (ball._declare), not a forwarder to one."""
    assert forwarders((SRC / f"{name}.py").read_text(encoding="utf-8")) == []
