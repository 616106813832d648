"""Benchmark for gyrokin: four seeded workloads, checked against oracles.

Run from the root of a checkout:

    python3 bench/run.py --workload batch --seed 1 --seconds 20 --trace 0

``--workload`` is one of batch, scalar, particles, cli, or ``all`` (each in
turn, in its own process).  The program is imported from ``src/`` of the
checkout and the CLI is run as ``gyrokin`` would run it, with that ``src/``
on PYTHONPATH.  A run sets up three times (import in a fresh interpreter,
input generation, warm-up) and reports the median, then runs whole
rounds of the workload until ``--seconds`` have passed and at least
``min_rounds`` rounds are done, checking every output.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it wraps the program's public names (see spans.py) and prints the per-layer
metrics instead.  Human-readable lines come first; the last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("batch", "scalar", "particles", "cli")

# Set-up is timed this many times and the median reported.  Each time pays
# one import of gyrokin in a fresh interpreter (numpy included), input
# generation and warm-up.
SETUP_REPEATS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import gyrokin; "
                "print(time.perf_counter() - t)")

# A tail percentile needs at least this many samples (ten beyond it, and the
# median alone below forty); every workload's rounds give more than this.
MIN_SAMPLES = 40


def tail(samples):
    """Highest percentile with at least ten samples beyond it, capped at p99."""
    ordered = sorted(samples)
    n = len(ordered)
    beyond = max(10, math.ceil(n / 100))
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def fresh_import_s():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    return float(proc.stdout)


def end_to_end(wl, rec, rounds, setup_s):
    """The bounded metrics, and the raw times they are made from.

    Each timing is divided by reference work timed next to it (see
    workloads.Workload): the ratio is what the program costs relative to
    fixed work of the same shape on the same machine at the same moment.
    The small operations are set against the median reference operation;
    each bulk operation against the mean of the two references around it.
    """
    op_p50 = statistics.median(rec.op_s)
    op_tail, pct = tail(rec.op_s)
    bulk = statistics.median(rec.bulk_s)
    ref_op = statistics.median(rec.ref_op_s)
    ref_bulk = statistics.median(rec.ref_bulk_s)
    before, after = rec.ref_bulk_s[0::2], rec.ref_bulk_s[1::2]
    bulk_rel = statistics.median(2.0 * b / (r0 + r1)
                                 for b, r0, r1 in zip(rec.bulk_s, before, after))
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(wl.rss_of).ru_maxrss / 1024.0, "MB"),
        "op_p50_rel": (op_p50 / ref_op, "ratio"),
        "bulk_rel": (bulk_rel, "ratio"),
    }
    times = {
        "op_p50_us": (op_p50 * 1e6, "us"),
        "op_tail_us": (op_tail * 1e6, "us"),
        "bulk_s": (bulk, "s"),
        "ref_op_p50_us": (ref_op * 1e6, "us"),
        "ref_bulk_s": (ref_bulk, "s"),
    }
    notes = [f"op samples {len(rec.op_s)}, tail percentile p{pct:.1f}; "
             f"bulk samples {len(rec.bulk_s)}; rounds {rounds}"]
    return metrics, times, notes


def per_layer(tracer, rec, rounds, e2e):
    from spans import LAYERS

    def per_round(x):
        return x / rounds

    calls, self_s = tracer.calls, tracer.self_s
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (per_round(tracer.total(calls, layer)), "calls/round")
        m[f"{layer}.self_s"] = (per_round(tracer.total(self_s, layer)), "s/round")
    m["ball.as_velocity.calls"] = (per_round(calls["ball.as_velocity"]), "calls/round")
    m["ball.as_velocity.elems"] = (per_round(tracer.rows["ball.as_velocity"]), "rows/round")
    m["ball.as_velocity.self_s"] = (per_round(self_s["ball.as_velocity"]), "s/round")
    m["gyro.elems"] = (per_round(tracer.total(tracer.rows, "gyro")), "rows/round")
    m["gyro.bytes_computed"] = (per_round(tracer.total(tracer.bytes, "gyro")), "bytes/round")
    for fn in ("einstein_add", "gyrate", "coadd", "gamma"):
        m[f"gyro.{fn}.calls"] = (per_round(calls[f"gyro.{fn}"]), "calls/round")
        m[f"gyro.{fn}.self_s"] = (per_round(self_s[f"gyro.{fn}"]), "s/round")
    for name in ("trig.triangle_from_vertices", "trig.gyroangle", "aberration.aberration_scene",
                 "space.scalar_mul", "mass.decompose", "mass.parse_particles", "mass.boost"):
        m[f"{name}.self_s"] = (per_round(self_s[name]), "s/round")
    m["trig.gyroangle.calls"] = (per_round(calls["trig.gyroangle"]), "calls/round")
    m["mass.ParticleSystem.self_s"] = (per_round(tracer.total(self_s, "mass.ParticleSystem")),
                                       "s/round")
    m["mass.gamma_rel_minus_1.elems"] = (per_round(tracer.rows["mass.gamma_rel_minus_1"]),
                                         "pairs/round")

    def median_of(key):
        values = rec.extra.get(key)
        return statistics.median(values) if values else 0.0

    m["cli.numpy_import_s"] = (median_of("numpy_import_s"), "s")
    m["cli.import_s"] = (median_of("import_s"), "s")
    m["cli.main_s"] = (median_of("main_s"), "s/round")
    m["cli.emit_s"] = (per_round(tracer.emit_s), "s/round")
    m["cli.stdout_bytes"] = (median_of("stdout_bytes"), "bytes/round")
    m["trace.rounds"] = (rounds, "count")
    m["trace.op_p50_rel"] = e2e["op_p50_rel"]
    m["trace.bulk_rel"] = e2e["bulk_rel"]
    notes = [f"layer edge {a} -> {b}: {per_round(n):.6g} calls/round"
             for (a, b), n in sorted(tracer.edges.items())]
    notes.append("tracing overhead: compare trace.op_p50_rel and trace.bulk_rel with "
                 "op_p50_rel and bulk_rel of an untraced run on the same seed")
    return m, notes


def run_one(args):
    if not os.path.isfile(os.path.join(SRC, "gyrokin", "__init__.py")):
        print(f"error: no gyrokin sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np
    import gyrokin
    if os.path.dirname(os.path.abspath(gyrokin.__file__)) != os.path.join(SRC, "gyrokin"):
        print(f"error: gyrokin imported from {gyrokin.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import oracles
    import workloads

    fixture_errors = oracles.self_check()
    if fixture_errors:
        print("\n".join(fixture_errors), file=sys.stderr)
        return 3

    print(f"machine: python {platform.python_version()}, numpy {np.__version__}, "
          f"cpus {os.cpu_count()}, {platform.machine()}")
    wl = workloads.WORKLOADS[args.workload](gyrokin, ROOT)
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            import_s = fresh_import_s()
            t0 = time.perf_counter()
            wl.prepare(np.random.default_rng(args.seed))
            wl.warm_up()
            setup_s.append(import_s + time.perf_counter() - t0)
        tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
            wl.tracer = tracer
        rec = workloads.Record()
        rounds = 0
        start = time.perf_counter()
        while rounds < wl.min_rounds or time.perf_counter() - start < args.seconds:
            wl.run_round(rec)
            rounds += 1
        measured_s = time.perf_counter() - start
    finally:
        wl.close()

    if len(rec.op_s) < MIN_SAMPLES:
        print(f"error: only {len(rec.op_s)} timed operations; need {MIN_SAMPLES}",
              file=sys.stderr)
        return 4
    metrics, times, notes = end_to_end(wl, rec, rounds, setup_s)
    times.update(wl.figures({k: v for k, (v, _) in times.items()}, rec))
    if tracer:
        metrics, layer_notes = per_layer(tracer, rec, rounds, metrics)
        notes += layer_notes
    correct = not rec.errors
    for err in rec.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"measured {measured_s:.1f} s, attempted {rec.attempted}, failed {rec.failed}, "
          f"checks failed {len(rec.errors)}, correct {str(correct).lower()}")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  metric {name} = {value:.6g} {unit}")
    for name, (value, unit) in times.items():
        print(f"  time {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in turn, in a fresh process; the last line maps name -> result."""
    results = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0:
            print("\n".join(lines))
            status = proc.returncode
            continue
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
