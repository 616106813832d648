"""Run bench/run.py of two checkouts in alternating pairs and write what each side read.

    python3 tools/bench_ab.py PARENT_ROOT CHANGE_ROOT --workload W [--workload W2 ...]
                              --pairs N --seed S [--seed S2 ...] --seconds T
                              [--out BENCH.json] [--table]

PARENT_ROOT and CHANGE_ROOT are the roots of two checkouts, each with its own
bench/ and src/.  For each workload and seed, a pair runs
``python3 <root>/bench/run.py --workload W --seed S --seconds T --trace 0``
once in each checkout, each run a fresh process started from that root; the
side that runs first changes from pair to pair (the parent first in pair 0),
so that a drift in processor speed falls on both alike.  From each run it
reads the ``metric`` and ``time`` lines and the closing JSON line
({"correct", "attempted", "failed", "metrics"}).

For every metric and time it gives each side's median, quartiles and raw
values, one a pair, and the pairs the change won: those where its value is
better, lower or higher as the change's BENCHMARK.json declares for the
end-to-end metrics (lower for the rest).  ``gap_exceeds_parent_iqr`` says
whether the medians differ by more than the parent's interquartile range.
It also records the machine (cores, Python, numpy), each checkout's root as
given, its commit and whether its tree had uncommitted changes, the seeds,
the seconds, and whether PYTHONDONTWRITEBYTECODE was set.

--out writes all of it as JSON after every pair, so an interrupted run
keeps the pairs it finished; entries of an existing file under other
workload/seed keys are kept.  --table prints the markdown table of the
medians.  A run that exits non-zero or prints no JSON line stops the
driver with its output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

SIDES = ("parent", "change")


def run_bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run of root's bench/run.py: its metrics, times and verdict."""
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    closing = json.loads(lines[-1])
    times = {}
    for line in lines:  # "  time NAME = VALUE UNIT"
        words = line.split()
        if len(words) >= 4 and words[0] == "time" and words[2] == "=":
            times[words[1]] = float(words[3])
    return {"correct": closing["correct"], "attempted": closing["attempted"],
            "failed": closing["failed"],
            "metrics": {k: m["value"] for k, m in closing["metrics"].items()}, "times": times}


def summary(values: list) -> dict:
    """Median, quartiles and raw values of one side's readings."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def compare(runs: list, better: dict) -> dict:
    """Per metric and time: each side's summary, the pairs the change won, the gap verdict."""
    out = {}
    for kind in ("metrics", "times"):
        for name in runs[0]["parent"][kind]:
            if not all(name in r[s][kind] for r in runs for s in SIDES):
                continue
            sign = -1.0 if better.get(name) == "higher" else 1.0
            sides = {s: summary([r[s][kind][name] for r in runs]) for s in SIDES}
            parent, change = sides["parent"], sides["change"]
            out[name] = {**sides, "better": "higher" if sign < 0 else "lower",
                         "change_won": sum(sign * c < sign * p for p, c in
                                           zip(parent["values"], change["values"])),
                         "gap_exceeds_parent_iqr": abs(change["median"] - parent["median"])
                         > parent["q3"] - parent["q1"]}
    return out


def commit(root: Path) -> dict:
    """The checkout's HEAD and whether its tree differs from it, or None outside git."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                              text=True, check=False)
        return proc.stdout.strip() if proc.returncode == 0 else None
    head = git("rev-parse", "HEAD")
    return {"head": head, "dirty": bool(git("status", "--porcelain")) if head else None}


def table(entries: dict) -> str:
    """The markdown table of each workload/seed's medians, with the parent's quartiles."""
    rows = ["| workload / seed | metric | parent median (q1-q3) | change median | "
            "change / parent | change won |", "|---|---|---|---|---|---|"]
    for key, entry in entries.items():
        pairs = len(entry["pairs"])
        for name, m in entry["compare"].items():
            p, c = m["parent"], m["change"]
            ratio = c["median"] / p["median"] if p["median"] else float("nan")
            rows.append(f"| {key} | {name} | {p['median']:.4g} ({p['q1']:.4g}-{p['q3']:.4g}) "
                        f"| {c['median']:.4g} | {ratio:.3f} | {m['change_won']}/{pairs} |")
    return "\n".join(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--table", action="store_true")
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    doc = json.loads(args.out.read_text()) if args.out and args.out.exists() else {}
    doc.update(machine={"cores": os.cpu_count(), "machine": platform.machine(),
                        "python": platform.python_version(), "numpy": version("numpy")},
               trees={s: {"root": str(given), **commit(roots[s])}
                      for s, given in zip(SIDES, (args.parent, args.change))},
               pythondontwritebytecode=bool(os.environ.get("PYTHONDONTWRITEBYTECODE")))
    entries = doc.setdefault("entries", {})
    for workload in args.workload:
        for seed in args.seed:
            key = f"{workload}/{seed}"
            pairs = []
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_bench(roots[side], workload, seed, args.seconds)
                pairs.append(pair)
                entries[key] = {"workload": workload, "seed": seed, "seconds": args.seconds,
                                "pairs": pairs, "compare": compare(pairs, better)}
                print(f"{key} pair {i + 1}/{args.pairs}: " + ", ".join(
                    f"{s} {m} {pair[s]['metrics'][m]:.4g}" for m in better for s in SIDES
                    if m in pair[s]["metrics"]), flush=True)
                if args.out:
                    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    if args.table:
        print(table({k: entries[k] for k in entries
                     if k.split("/")[0] in args.workload and int(k.split("/")[1]) in args.seed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
