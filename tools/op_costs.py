"""Print what each public batch operation of gyrokin costs, per call and per element.

For every operation that accepts a batch, the table gives the time of one
call at k = 1 in us, and the time per row at k = 1e3 and k = 1e6 in ns.
The operations that take single values only (gyrations made once, triangles,
the aberration scene) get the k = 1 column alone, on one fixed input each.
Each source tree is measured in fresh interpreters, one per round; the
trees take turns within a round, and the tree that goes first changes from
round to round, so that a drift in processor speed falls on all of them
alike.  A figure is the median over the rounds of the fastest of three
timed repeats in one interpreter.  Velocities have n = 3
components.

    python3 tools/op_costs.py [SRC_DIR ...] [--rounds R] [--sizes 1,1000,1000000]

With no SRC_DIR the checkout's own src/ is measured; name two, a parent's
and a change's, to compare them column by column.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter with one src/ on sys.path: prints a JSON object
# {op: {k: seconds per call}} for the sizes in argv[1]; the single-value
# calls appear only when k = 1 is among them.
WORKER = r'''
import json, sys, time
import numpy as np
import gyrokin as gk

OPS = {
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
    "relativistic_aberration": (gk.relativistic_aberration, "ass"),
    "stellar_aberration": (gk.stellar_aberration, "as"),
    "relativistic_matched_p_e": (gk.relativistic_matched_p_e, "aas"),
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


def per_call(fn, args, budget):
    """Fastest time of one call over three repeats of about ``budget`` seconds each."""
    t = time.perf_counter()
    fn(*args)
    calls = max(1, int(budget / max(time.perf_counter() - t, 1e-7)))
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        for _ in range(calls):
            fn(*args)
        best = min(best, (time.perf_counter() - t) / calls)
    return best


out = {}
rng = np.random.default_rng(20130227)
sizes = json.loads(sys.argv[1])
for k in sizes:
    for name, (fn, kinds) in OPS.items():
        args = [draw(rng, kind, k) for kind in kinds]
        out.setdefault(name, {})[k] = per_call(fn, args, 0.02 if k < 10 ** 6 else 0.2)
if 1 in sizes:
    u, v, a, b, c = (draw(rng, "v", 1) for _ in range(5))
    gyr, tri = gk.Gyration(u, v), gk.triangle_from_vertices(a, b, c)
    SINGLE = {
        "Gyration": (gk.Gyration, (u, v)),
        "Gyration.matrix": (gyr.matrix, ()),
        "Gyration.rotation_angle": (gyr.rotation_angle, ()),
        "triangle_from_vertices": (gk.triangle_from_vertices, (a, b, c)),
        "triangle_from_sides": (gk.triangle_from_sides, (tri.side_a, tri.side_b, tri.side_c)),
        "triangle_from_angles": (gk.triangle_from_angles, (tri.alpha, tri.beta, tri.gamma)),
        "sss_to_aaa": (gk.sss_to_aaa, (tri.gamma_a, tri.gamma_b, tri.gamma_c)),
        "aberration_scene": (gk.aberration_scene, (0.5, 0.6, 1.0)),
    }
    for name, (fn, args) in SINGLE.items():
        out[name] = {1: per_call(fn, args, 0.02)}
print(json.dumps(out))
'''


def measure(src: Path, sizes) -> dict:
    """{op: {k: seconds}} from one fresh interpreter running on ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", WORKER, json.dumps(sizes)], env=env,
                          capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"op_costs: the run on {src} failed:\n{done.stderr}")
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
    runs = {src: [] for src in args.src}
    for i in range(args.rounds):
        # Each round starts with the next tree, so that no tree always runs
        # first in a round.
        for src in args.src[i % len(args.src):] + args.src[:i % len(args.src)]:
            runs[src].append(measure(src, sizes))
    header = ["op"] + [f"{i}:{'k=1 us' if k == 1 else f'k={k:.0e} ns/elt'}"
                       for i in range(len(args.src)) for k in sizes]
    for i, src in enumerate(args.src):
        print(f"# {i}: {src}")
    print("\t".join(header))
    for op in runs[args.src[0]][0]:
        cells = [op]
        for src in args.src:
            for k in sizes:
                if k not in runs[src][0][op]:  # a single-value call at k > 1
                    cells.append("-")
                    continue
                s = statistics.median(run[op][k] for run in runs[src])
                cells.append(f"{s * 1e6:.2f}" if k == 1 else f"{s / k * 1e9:.2f}")
        print("\t".join(cells))


if __name__ == "__main__":
    main()
