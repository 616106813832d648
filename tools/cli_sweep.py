"""Run a fixed corpus of gyrokin invocations and print one line for each.

Each line holds the GYROKIN_C setting, the argv, the exit code and a digest
of stdout and stderr, tab-separated.  An invocation that raises instead of
exiting gets "raised" and the exception's class in place of its exit code,
its message joins the digest, and the sweep goes on.  Two runs compare by
``diff``: run the sweep once against each checkout's src/ directory, and any
line that differs is an invocation whose output, error text or exit code
changed.

    python3 tools/cli_sweep.py [SRC_DIR] > sweep.txt

The corpus covers every command with valid and invalid inputs, each crossed
with every --format and unit preset (including bad ones), a set of GYROKIN_C
values, and every --help text.  Invocations run in one process through
``gyrokin.cli.main``, inside a temporary directory that holds the particle
files, so that file names print the same in every run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import shlex
import sys
import tempfile
import warnings
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

FORMATS = [[], ["--format", "table"], ["--format", "json"], ["--format", "csv"],
           ["--format", "xml"]]
UNITS = [[], ["--units", "natural"], ["--units", "si"], ["--units", "cgs"],
         ["--c-value", "2.5"], ["--c-value", "0"], ["--c-value", "nan"],
         ["--c-value", "-1"], ["--c-value", "inf"], ["--c-value", "abc"]]
# None leaves GYROKIN_C unset.
ENVS = [None, "1", "2.5", "abc", "0", "nan", "-3", "inf", "", " 2 "]

PARTICLE_FILES = {
    "pair.csv": "# two particles\n1.0, 0.6, 0, 0\n1.0, -0.6, 0, 0\n",
    "single.csv": "2.0, 0.3, 0.4\n",
    "rigid.csv": "1, 0.5, 0.1, 0\n2, 0.5, 0.1, 0\n3, 0.5, 0.1, 0\n",
    "rows.csv": "# three\n1.0, 0.1, 0, 0\n\n2.0, 0, 0.2, 0\n1.0, 1.5, 0, 0\n",
    "negative.csv": "-1, 0.1, 0, 0\n2.0, 0, 0.2, 0\n",
    "malformed.csv": "1.0, 0.1, 0\nwhat even is this\n",
    "ragged.csv": "1.0, 0.1, 0\n1.0, 0.1\n",
    "empty.csv": "",
    "si.csv": "1.0, 1e8, 0, 0\n1.0, -1e8, 0, 0\n",
    "system.json": '[{"mass": 1, "velocity": [0.6, 0, 0]},'
                   ' {"mass": 2, "velocity": [-0.3, 0.1, 0]}]',
    "object.json": '{"mass": 1, "velocity": [0.1, 0.2]}',
    "scalar.json": '[{"mass": 1, "velocity": 0.5}]',
    "none.json": "[]",
    "broken.json": '[{"mass": 1, "velocity": [0.1, 0.2]',
}
LATIN1 = b"1.0, 0.1, 0\n\xff, 0.2, 0\n"


def _pairs(command, pairs, names=("--u", "--v")):
    return [[command, names[0], x, names[1], y] for x, y in pairs]


VECTOR_PAIRS = [
    ("0.3,0.1,0", "-0.2,0.5,0.1"), ("0.6,0", "0,0.6"), ("0.5", "0.5"),
    ("0.99999999,0,0", "0.99999999,0,0"), ("0.999999,0,0", "-0.4,0.9,0"),
    ("0.6,0.8", "0,0"), ("0.1,0.2", "0.1,0.2,0.3"), ("0.1,x", "0,0"),
    ("nan,0", "0,0"), ("1e308,0", "0,0"), ("0.3c,0.1c", "1e7,0"),
    ("", "0"), ("0.1,,0.2", "0,0,0"), ("0.2,0.1,0.05,0.3", "-0.1,0.4,0.2,0.1"),
]
# add inputs on which u.v summed in the kernels' order and np.dot's u.v
# differ in the last bit, so that add's printed gamma identity check differs
# between the two sums (numpy seed 0, components uniform in [-0.57, 0.57]).
DOT_ORDER_PAIRS = [
    ("0.48726327863199825,0.53343585651409675,-0.55323481233947902",
     "0.41454970287995629,0.54856234567563245,0.52121960475649842"),
    ("0.43331185828663943,0.35606235384682949,0.19139392235134034",
     "0.52259154022686516,0.48531461802443732,0.28300329376399957"),
    ("0.36684288311244462,0.096880255457273301,-0.026689199255421681",
     "-0.2779889755722027,-0.48716948254091402,-0.54960378017744815"),
]
TRIANGLE = [
    ["--mode", "vertices", "--a", "0,0", "--b", "0.5,0", "--c", "0,0.5"],
    ["--mode", "vertices", "--a", "0.1,0.2,0", "--b", "0.5,0,0.1", "--c", "0,0.4,-0.2"],
    ["--mode", "vertices", "--a", "0,0", "--b", "0.5,0"],
    ["--mode", "vertices", "--a", "0,0", "--b", "0.3,0", "--c", "0.5,0"],
    ["--mode", "vertices", "--a", "0.99999999999949,0", "--b", "-0.99999999999949,0",
     "--c", "0,0.5"],
    ["--mode", "vertices", "--a", "0,0", "--b", "0.5,0", "--c", "0,1.5"],
    ["--mode", "sss", "--sides", "0.3,0.4,0.5"],
    ["--mode", "sss", "--sides", "0.3,0.4"],
    ["--mode", "sss", "--sides", "0.3,0.4,0.9"],
    ["--mode", "sss", "--sides", "0.3c,0.4c,0.5c"],
    ["--mode", "sss", "--sides", "0.3,x,0.5"],
    ["--mode", "sss"],
    ["--mode", "aaa", "--angles", "30deg,40deg,90.0001deg"],
    ["--mode", "aaa", "--angles", "30deg,40deg,90.0001deg", "--tol", "1e-5"],
    ["--mode", "aaa", "--angles", "60,60,60", "--unit", "deg"],
    ["--mode", "aaa", "--angles", "0.5,0.6,0.7"],
    ["--mode", "aaa", "--angles", "20,30,40", "--unit", "deg", "--out", "deg"],
    ["--mode", "aaa", "--angles", "12xdeg,30deg,40deg"],
    ["--mode", "aaa", "--angles", "3000,4000,5000", "--unit", "arcsec", "--out", "arcsec"],
    ["--mode", "aaa"],
    ["--mode", "sss", "--sides", "0.3,0.4,0.5", "--tol", "0"],
    ["--mode", "sss", "--sides", "0.3,0.4,0.5", "--tol", "nan"],
    ["--mode", "sss", "--sides", "0.3,0.4,0.5", "--out", "deg"],
    ["--mode", "circle", "--sides", "0.3,0.4,0.5"],
    ["--sides", "0.3,0.4,0.5"],
]
ABERRATION = [
    *[["--model", model, "--v", v, *angle, *speed]
      for model in ("classical", "relativistic", "stellar")
      for v in ("0.5", "0.0001", "0.99999")
      for angle in (["--theta-s", "30deg"], ["--theta-e", "1.2"],
                    ["--theta-s", "1e-9"])
      for speed in ([], ["--p-s", "0.5"], ["--p-e", "0.9c"])],
    ["--model", "stellar", "--v", "0", "--theta-s", "1"],
    ["--model", "stellar", "--v", "-0.5", "--theta-s", "1"],
    ["--model", "relativistic", "--v", "1", "--theta-s", "1"],
    ["--model", "classical", "--v", "0.1c", "--p-s", "inf", "--theta-s", "0.5"],
    ["--model", "stellar", "--v", "0.5", "--theta-s", "12xdeg"],
    ["--model", "stellar", "--v", "0.5", "--theta-e", "5", "--unit", "deg", "--out", "arcsec"],
    ["--model", "stellar", "--v", "0.5", "--theta-s", "1.0", "--theta-e", "1.0"],
    ["--model", "stellar", "--v", "0.5"],
    ["--model", "stellar", "--v", "x", "--theta-s", "1"],
    ["--model", "stellar", "--v", "0.5", "--p-s", "x", "--theta-s", "1"],
    ["--model", "newtonian", "--v", "0.5", "--theta-s", "1"],
    *[["--model", model, "--v", "0.5c", "--sweep", n, *extra]
      for model in ("classical", "relativistic", "stellar")
      for n in ("1", "2", "5")
      for extra in ([], ["--p-s", "0.7"], ["--out", "deg"])],
    ["--model", "stellar", "--v", "0.5c", "--sweep", "0"],
    ["--model", "stellar", "--v", "0.5c", "--sweep", "-1"],
    ["--model", "stellar", "--v", "0.5c", "--sweep", "x"],
    # Counts whose table cannot be allocated: 71 PiB, and past numpy's largest size.
    ["--model", "stellar", "--v", "0.5c", "--sweep", "10000000000000000"],
    ["--model", "stellar", "--v", "0.5c", "--sweep", "100000000000000000000"],
]
CASES = [
    *[c for op in ("add", "sub", "coadd") for c in _pairs(op, VECTOR_PAIRS)],
    *_pairs("add", DOT_ORDER_PAIRS),
    ["add", "--u", "0.1,0"],
    ["add", "--u", "0.1,0", "--v", "0,0.1", "--out", "deg"],
    ["add", "--nope", "1"],
    *[["scale", "--r", r, "--v", v]
      for r in ("2", "-1", "0", "0.5", "1e7", "nan", "inf", "x")
      for v in ("0.3,0.4", "0.6,0.8", "0.999999")],
    *[["midpoint", *ab, *t]
      for ab in (["--a", "0.3,0.1", "--b", "-0.2,0.5"], ["--a", "0.6,0", "--b", "0.6,0.8"])
      for t in ([], ["--t", "0.5"], ["--t", "0.3"], ["--t", "-2"], ["--t", "nan"],
                ["--t", "inf"])],
    *[["parallelogram", *abc, *tol]
      for abc in (["--a", "0,0,0", "--b", "0.6,0,0", "--c", "0,0.6,0"],
                  ["--a", "0,0", "--b", "0.3,0", "--c", "0.5,0"],
                  ["--a", "0.1,0.2", "--b", "0.5,0.1", "--c", "-0.3,0.4"])
      for tol in ([], ["--tol", "1"], ["--tol", "0"], ["--tol", "nan"], ["--tol", "1e-30"])],
    *[["gyr", "--u", u, "--v", v, "--w", w, *out]
      for u, v, w in (("0.6,0,0", "0,0.6,0", "0.1,0.2,0.3"), ("0.6,0", "0,0.6", "2,0"),
                      ("0.6,0", "0,1.5", "0.1,0"), ("0.5,0.1", "0.2,0.3", "1e308,0"),
                      ("0.3,0.1,0,0.2", "0,0.4,0.1,0", "0.1,0,0,0"),
                      ("0.5", "0.3", "0.2"), ("0.6,0", "0,0.6", "0.1,0,0"))
      for out in ([], ["--out", "deg"], ["--out", "arcsec"])],
    *_pairs("distance", [("0.6,0,0", "0,0.6,0"), ("0.99999999999949,0", "-0.99999999999949,0"),
                         ("0.3", "0.3"), ("0.6,0.8", "0,0"), ("0.1,0", "0.1")],
            names=("--a", "--b")),
    *[["triangle", *args] for args in TRIANGLE],
    *[["aberration", *args] for args in ABERRATION],
    *[["mass", "--in", name] for name in [*PARTICLE_FILES, "latin.csv", "missing.csv", "-"]],
]
HELP = [[], ["--help"], ["--version"], ["nosuch"],
        *[[command, "--help"] for command in
          ("add", "sub", "coadd", "scale", "midpoint", "parallelogram", "gyr",
           "distance", "triangle", "aberration", "mass")]]
# The first case of each command, run under every GYROKIN_C value.
ENV_CASES = [next(c for c in CASES if c[0] == command) for command in dict.fromkeys(
    c[0] for c in CASES)]
STDIN = "1.0, 0.6, 0, 0\n1.0, -0.6, 0, 0\n"


def invocations():
    """(GYROKIN_C, argv) for every invocation of the corpus, in a fixed order."""
    for case, fmt, units in itertools.product(CASES, FORMATS, UNITS):
        yield None, [*case, *fmt, *units]
    for case, env, units in itertools.product(ENV_CASES, ENVS,
                                              [[], ["--units", "si"], ["--c-value", "2"]]):
        yield env, [*case, "--format", "json", *units]
    for argv in HELP:
        yield None, argv


def run_one(main, env, argv):
    """Exit code and digest of one invocation's stdout and stderr."""
    os.environ.pop("GYROKIN_C", None)
    if env is not None:
        os.environ["GYROKIN_C"] = env
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(STDIN)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except Exception as exc:  # a crash is one line of the sweep, not its end
            code = f"raised {type(exc).__name__}"
            err.write(f"{exc}\n")
    digest = hashlib.blake2b(f"{out.getvalue()}\0{err.getvalue()}".encode(),
                             digest_size=12).hexdigest()
    return code, digest


def main() -> None:
    src = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else SRC
    sys.path.insert(0, str(src))
    import gyrokin.cli

    # An installed gyrokin must not stand in for the checkout being swept.
    if not Path(gyrokin.cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"gyrokin was imported from {gyrokin.cli.__file__}, not from {src}")
    gyrokin_main = gyrokin.cli.main

    warnings.simplefilter("always")
    sys.argv[0] = "gyrokin"  # the program name that usage lines print
    stdout, here, count = sys.stdout, os.getcwd(), 0
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in PARTICLE_FILES.items():
                Path(name).write_text(text, encoding="utf-8")
            Path("latin.csv").write_bytes(LATIN1)
            for env, argv in invocations():
                code, digest = run_one(gyrokin_main, env, argv)
                print(f"GYROKIN_C={env!r}\t{shlex.join(argv)}\t{code}\t{digest}",
                      file=stdout)
                count += 1
        finally:
            os.chdir(here)
            sys.stdin = sys.__stdin__
    print(f"# {count} invocations", file=stdout)


if __name__ == "__main__":
    main()
