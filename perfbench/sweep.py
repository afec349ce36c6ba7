#!/usr/bin/env python3
"""Run the benchmark over several seeds and workloads, interleaved, and summarise.

    python3 perfbench/sweep.py --seeds 1-10 --seconds 20
    python3 perfbench/sweep.py --seeds 1-10 --checkout ../parent --checkout .

Runs go seed by seed; within a seed the workload order rotates, and with
several ``--checkout`` trees (each holding the same perfbench/) the tree
order alternates too, so slow drift of the host lands on every workload
and every tree alike instead of passing for a regression. Each run is
``perfbench/run.py`` of its tree, started from that tree's root.

Every run is untraced (``--trace 0``) and covers all of BENCHMARK.json's
workloads. For every tree, workload and end-to-end metric of the report
line (null where it does not apply) the summary gives the median, the
quartiles and the spread (q3 - q1) / median, which BENCHMARK.json's bound
for the metric must exceed for a comparison to resolve. The raw output
lines of each run go to ``--out`` (one JSON object per run).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return [json.loads(line) for line in lines]


def _metrics(row) -> dict:
    """Every end-to-end metric of the report line."""
    return {k: m["value"] for k, m in row["lines"][-2]["report"].items()}


def summarise(rows, bounds) -> list[str]:
    out = []
    groups = {}
    for r in rows:
        groups.setdefault((r["tree"], r["workload"]), []).append(r)
    for (tree, wl), rs in groups.items():
        bad = sum(not r["lines"][-1]["correct"] for r in rs)
        out.append(f"{tree} {wl}: {len(rs)} runs, {bad} incorrect")
        for name in _metrics(rs[0]):
            vals = [_metrics(r)[name] for r in rs]
            if any(v is None for v in vals):
                out.append(f"  {name:32s} null (does not apply)")
                continue
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  spread above bound/3" if spread <= bound else "  SPREAD ABOVE BOUND"
            out.append(f"  {name:32s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                       f"spread {spread:.4f}"
                       + (f"  bound {bound}" if bound is not None else "") + flag)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=float)
    p.add_argument("--checkout", action="append", type=Path,
                   help="tree to run (repeatable); default: this one")
    p.add_argument("--out", type=Path, help="append raw results here")
    args = p.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    trees = [t.resolve() for t in (args.checkout or [HERE.parent])]
    workloads = [w["name"] for w in spec["workloads"]]
    rows = []
    for i, seed in enumerate(seed_range(args.seeds)):
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for wl in order:
            for tree in (trees if i % 2 == 0 else trees[::-1]):
                lines = run_one(tree, wl, seed, seconds)
                row = {"tree": str(tree), "workload": wl, "seed": seed,
                       "lines": lines}
                rows.append(row)
                if args.out:
                    with open(args.out, "a") as fh:
                        fh.write(json.dumps(row) + "\n")
                print(f"seed {seed} {wl} {tree.name}: "
                      f"correct={lines[-1]['correct']}",
                      file=sys.stderr, flush=True)
    print("\n".join(summarise(rows, bounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
