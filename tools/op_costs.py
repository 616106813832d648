"""Print what each public batch operation of gyrokin costs, per call and per element.

For every operation that accepts a batch, the table gives the time of one
call at k = 1 in us, and the time per row at k = 1e3 and k = 1e6 in ns.
The operations that take single values only (gyrations made once, triangles
and the scalar triangle functions, the aberration scene and sweep) get the
k = 1 column alone, on one fixed input each.
Velocities have n = 3 components.  Each round runs in a fresh interpreter,
and a figure is the median over the rounds of the fastest of three timed
repeats in one interpreter.

    python3 tools/op_costs.py [SRC_DIR ...] [--rounds R] [--sizes 1,1000,1000000]

With no SRC_DIR the checkout's own src/ is measured; name two, a parent's
and a change's, to compare them column by column.  Each tree's gyrokin is
copied under its own package name (gyrokin_0, gyrokin_1, ...) and every
round imports them all into one interpreter: each operation's
inputs are drawn once, and the trees take turns inside each repeat, the
tree that goes first changing from repeat to repeat and round to round, so
that a drift in processor speed falls on all of them alike.  The last
column counts the repeats in which the second tree was faster than the
first, at each size.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Repeats timed per operation, size and round.
REPEATS = 3

# Runs in a fresh interpreter: argv[1] holds the sizes, argv[2] the names of
# the packages to import, one per tree, argv[3] the tree that goes first in
# the first repeat and argv[4] the number of repeats.  Prints a JSON object
# {op: {k: [[seconds per call of each tree], repeats the second tree won]}};
# the single-value calls appear only when k = 1 is among the sizes.
WORKER = r'''
import importlib, json, sys, time
import numpy as np

sizes, packages = json.loads(sys.argv[1]), json.loads(sys.argv[2])
first, repeats = int(sys.argv[3]), int(sys.argv[4])
trees = [importlib.import_module(p) for p in packages]


def ops(gk):
    return {
        "as_velocity": (gk.ball.as_velocity, "v"),
        "gamma": (gk.gamma, "v"),
        "einstein_add": (gk.einstein_add, "vv"),
        "einstein_sub": (gk.einstein_sub, "vv"),
        "left_sub": (gk.left_sub, "vv"),
        "coadd": (gk.coadd, "vv"),
        "coadd_via_gyration": (gk.coadd_via_gyration, "vv"),
        "cosub": (gk.cosub, "vv"),
        "gyrate": (gk.gyrate, "vvw"),
        "gyrate_definitional": (gk.gyrate_definitional, "vvv"),
        "Gyration.apply": (gk.Gyration([0.6, 0.0, 0.0], [0.0, 0.6, 0.0]).apply, "w"),
        "gamma_of_speed": (gk.gamma_of_speed, "s"),
        "speed_of_gamma": (gk.speed_of_gamma, "g"),
        "add_speeds": (gk.add_speeds, "ss"),
        "scalar_mul": (gk.scalar_mul, "tv"),
        "gyrodistance": (gk.gyrodistance, "vv"),
        "gyromidpoint": (gk.gyromidpoint, "vv"),
        "gyroline_point": (gk.gyroline_point, "vvt"),
        "gyroparallelogram_fourth": (gk.gyroparallelogram_fourth, "vvv"),
        "gyrovector_between": (gk.gyrovector_between, "vv"),
        "triangle_area": (gk.triangle_area, "vvv"),
        "gamma_rel_minus_1": (gk.gamma_rel_minus_1, "vv"),
        "classical_aberration": (gk.classical_aberration, "ass"),
        "classical_aberration_inv": (gk.classical_aberration_inv, "ass"),
        "relativistic_aberration": (gk.relativistic_aberration, "ass"),
        "relativistic_aberration_inv": (gk.relativistic_aberration_inv, "ass"),
        "stellar_aberration": (gk.stellar_aberration, "as"),
        "classical_matched_p_e": (gk.classical_matched_p_e, "aas"),
        "relativistic_matched_p_e": (gk.relativistic_matched_p_e, "aas"),
    }


def singles(gk, u, v, a, b, c):
    """The single-value calls of ``gk``, each with its fixed arguments."""
    gyr, tri = gk.Gyration(u, v), gk.triangle_from_vertices(a, b, c)
    return {
        "Gyration": (gk.Gyration, (u, v)),
        "Gyration.matrix": (gyr.matrix, ()),
        "Gyration.rotation_angle": (gyr.rotation_angle, ()),
        "gyroangle": (gk.gyroangle, (a, b, c)),
        "triangle_from_vertices": (gk.triangle_from_vertices, (a, b, c)),
        "triangle_from_sides": (gk.triangle_from_sides, (tri.side_a, tri.side_b, tri.side_c)),
        "triangle_from_angles": (gk.triangle_from_angles, (tri.alpha, tri.beta, tri.gamma)),
        "triangle_q": (gk.triangle_q, (tri.gamma_a, tri.gamma_b, tri.gamma_c)),
        "sss_to_aaa": (gk.sss_to_aaa, (tri.gamma_a, tri.gamma_b, tri.gamma_c)),
        "aaa_to_sss": (gk.aaa_to_sss, (tri.alpha, tri.beta, tri.gamma)),
        "law_of_gyrosines_ratios": (gk.law_of_gyrosines_ratios, (tri,)),
        "aberration_scene": (gk.aberration_scene, (0.5, 0.6, 1.0)),
        "aberration_sweep": (gk.aberration_sweep, (0.5, 0.6, 64)),
    }


def draw(rng, kind, k):
    shape = () if k == 1 else (k,)
    if kind in "vw":
        d = rng.normal(size=shape + (3,))
        if kind == "w":
            return d
        d /= np.linalg.norm(d, axis=-1, keepdims=True)
        return d * rng.uniform(0.0, 0.95, size=shape + (1,))
    low, high = {"s": (0.05, 0.9), "g": (1.0, 10.0), "t": (-2.0, 2.0), "a": (0.1, 3.0)}[kind]
    return rng.uniform(low, high, size=shape)


def per_call(calls, budget):
    """The fastest time of each (fn, args) call over the repeats, and the repeats
    in which the second call beat the first.

    A repeat runs each call about ``budget`` seconds in turn; the one that
    runs first moves on by one from repeat to repeat.
    """
    for fn, args in calls:
        fn(*args)
    t = time.perf_counter()
    calls[0][0](*calls[0][1])
    n = max(1, int(budget / max(time.perf_counter() - t, 1e-7)))
    best, won = [float("inf")] * len(calls), 0
    for r in range(repeats):
        took = [0.0] * len(calls)
        for j in range(len(calls)):
            i = (first + r + j) % len(calls)
            fn, args = calls[i]
            t = time.perf_counter()
            for _ in range(n):
                fn(*args)
            took[i] = (time.perf_counter() - t) / n
        best = [min(b, s) for b, s in zip(best, took)]
        won += len(calls) > 1 and took[1] < took[0]
    return best, won


out = {}
rng = np.random.default_rng(20130227)
tables = [ops(gk) for gk in trees]
for k in sizes:
    for name, (_, kinds) in tables[0].items():
        args = [draw(rng, kind, k) for kind in kinds]
        budget = 0.02 if k < 10 ** 6 else 0.2
        out.setdefault(name, {})[k] = per_call([(t[name][0], args) for t in tables], budget)
if 1 in sizes:
    # Each tree makes its own gyration and triangle from the same points.
    points = [draw(rng, "v", 1) for _ in range(5)]
    tables = [singles(gk, *points) for gk in trees]
    for name in tables[0]:
        out[name] = {1: per_call([t[name] for t in tables], 0.02)}
print(json.dumps(out))
'''


def measure(path: Path, packages, sizes, first: int) -> dict:
    """{op: {k: ([seconds of each package], repeats won)}} from one fresh interpreter.

    ``packages`` are imported from ``path``, and package ``first`` goes
    first in the first repeat.
    """
    env = dict(os.environ, PYTHONPATH=str(path))
    done = subprocess.run([sys.executable, "-c", WORKER, json.dumps(sizes),
                           json.dumps(packages), str(first), str(REPEATS)],
                          env=env, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"op_costs: the run of {', '.join(packages)} on {path} failed:\n"
                 f"{done.stderr}")
    return {op: {int(k): s for k, s in by_k.items()}
            for op, by_k in json.loads(done.stdout).items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="*", type=Path, default=[SRC])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--sizes", default="1,1000,1000000",
                        help="comma-separated batch lengths k (1 means one vector)")
    args = parser.parse_args()
    sizes = [int(float(k)) for k in args.sizes.split(",")]
    trees = len(args.src)
    with tempfile.TemporaryDirectory(prefix="op_costs-") as tmp:
        path, packages = Path(tmp), [f"gyrokin_{i}" for i in range(trees)]
        for src, package in zip(args.src, packages):
            shutil.copytree(src / "gyrokin", path / package,
                            ignore=shutil.ignore_patterns("__pycache__"))
        runs = [measure(path, packages, sizes, i % trees) for i in range(args.rounds)]
    header = ["op"] + [f"{i}:{'k=1 us' if k == 1 else f'k={k:.0e} ns/elt'}"
                       for i in range(trees) for k in sizes]
    if trees > 1:
        header.append(f"1 won/{REPEATS * args.rounds}")
    for i, src in enumerate(args.src):
        print(f"# {i}: {src}")
    print("\t".join(header))
    for op in runs[0]:
        cells, won = [op], []
        for i in range(trees):
            for k in sizes:
                if k not in runs[0][op]:  # a single-value call at k > 1
                    cells.append("-")
                    continue
                s = statistics.median(run[op][k][0][i] for run in runs)
                cells.append(f"{s * 1e6:.2f}" if k == 1 else f"{s / k * 1e9:.2f}")
                if i == 1:
                    won.append(str(sum(run[op][k][1] for run in runs)))
        if trees > 1:
            cells.append(",".join(won))
        print("\t".join(cells))


if __name__ == "__main__":
    main()
