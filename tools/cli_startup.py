"""Print what each README command of the gyrokin CLI costs to start and run.

Every `gyrokin ...` line of the README's CLI block runs as its own fresh
interpreter, the way the installed command runs, so each time covers the
interpreter's start, the imports (numpy, click and the gyrokin modules the
command loads), parsing, the command and its output.  The first row,
`import gyrokin`, imports the package alone in a fresh interpreter and times
the import inside it, as bench/run.py's set-up probe does.  The table gives, for
each source tree, the median wall time over the rounds in ms, whether
numpy's package code ran ("yes" or "no"), and the gyrokin modules the
command loaded (short names, core first).  The trees take
turns within a round, and the tree that goes first changes from round to
round, so that a drift in processor speed falls on all of them alike.

    python3 tools/cli_startup.py [SRC_DIR ...] [--rounds R]

With no SRC_DIR the checkout's own src/ is measured; name two, a parent's
and a change's, to compare them column by column.  The environment passes
through unchanged: with PYTHONDONTWRITEBYTECODE set, each start compiles
every module it imports.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Runs one command in a fresh interpreter with one src/ on sys.path; its last
# line of stdout is [exit code, whether numpy ran, the gyrokin modules loaded].
# gyrokin binds numpy lazily, so "numpy" stands in sys.modules before its code
# runs; numpy.linalg, which numpy's own __init__ imports, shows that it ran.
WORKER = ("import json, sys; from gyrokin.cli import main; sys.argv[0] = 'gyrokin'; "
          "code = main(sys.argv[1:]); "
          "print(json.dumps([code, 'numpy.linalg' in sys.modules, "
          "sorted(m for m in sys.modules if m.startswith('gyrokin'))]))")

# Imports gyrokin alone; its last line of stdout is as WORKER's, followed by
# the seconds the import took, timed inside the interpreter.
IMPORT_WORKER = ("import json, sys, time; t = time.perf_counter(); import gyrokin; "
                 "t = time.perf_counter() - t; "
                 "print(json.dumps([0, 'numpy.linalg' in sys.modules, "
                 "sorted(m for m in sys.modules if m.startswith('gyrokin')), t]))")

# The README's `gyrokin mass --in particles.csv` reads this file.
PARTICLES = "# two particles\n1.0, 0.6, 0, 0\n1.0, -0.6, 0, 0\n"

# Short names print in load order: the core, the CLI, then the composites.
ORDER = ["gyrokin", "ball", "errors", "gyro", "cli", "space", "trig", "aberration", "mass"]


def readme_commands() -> list:
    """(row label, worker, argv): the import row, then each gyrokin command line of
    the README's CLI block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    argvs = [shlex.split(line, comments=True)[1:]
             for line in block.replace("\\\n", " ").splitlines() if line.startswith("gyrokin ")]
    return [("import gyrokin", IMPORT_WORKER, []),
            *((shlex.join(argv), WORKER, argv) for argv in argvs)]


def measure(src: Path, label, worker, argv, workdir) -> tuple:
    """(seconds, exit code, whether numpy ran, the gyrokin modules loaded by short name).

    The seconds are the wall time of the whole interpreter, or the import's
    own time for the import row.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", worker, *argv], env=env, cwd=workdir,
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if done.returncode:
        sys.exit(f"cli_startup: {label} on {src} failed:\n{done.stderr}")
    code, numpy, modules, *took = json.loads(done.stdout.splitlines()[-1])
    names = [m.removeprefix("gyrokin.") for m in modules]
    return (took or [elapsed])[0], code, numpy, sorted(names, key=ORDER.index)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    # Resolved, since each command runs in a temporary working directory.
    parser.add_argument("src", nargs="*", type=lambda p: Path(p).resolve(),
                        default=[ROOT / "src"])
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    commands = readme_commands()
    runs = {(src, i): [] for src in args.src for i in range(len(commands))}
    with tempfile.TemporaryDirectory() as workdir:
        Path(workdir, "particles.csv").write_text(PARTICLES, encoding="utf-8")
        for r in range(args.rounds):
            # Each round starts with the next tree, so that no tree always
            # runs first in a round.
            trees = args.src[r % len(args.src):] + args.src[:r % len(args.src)]
            for i, command in enumerate(commands):
                for src in trees:
                    runs[src, i].append(measure(src, *command, workdir))
    for j, src in enumerate(args.src):
        print(f"# {j}: {src}")
    print("\t".join(["command", "exit", *(f"{j}:{column}" for column in ("ms", "numpy", "modules")
                                           for j in range(len(args.src)))]))
    for i, (label, _, _) in enumerate(commands):
        first = runs[args.src[0], i][0]
        cells = [label, str(first[1])]
        cells += [f"{statistics.median(run[0] for run in runs[src, i]) * 1e3:.1f}"
                  for src in args.src]
        cells += ["yes" if runs[src, i][0][2] else "no" for src in args.src]
        cells += [" ".join(runs[src, i][0][3]) for src in args.src]
        print("\t".join(cells))


if __name__ == "__main__":
    main()
