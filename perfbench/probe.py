#!/usr/bin/env python3
"""Steadiness probe: run each workload N times and compare spreads with
the bounds of ``BENCHMARK.json``.

    python3 perfbench/probe.py --runs 10
    python3 perfbench/probe.py --runs 5 --workloads rmat-serve --seed 11

Run ``i`` of a workload uses seed ``--seed + i``, in its own process, one
after another.  For every end-to-end metric the table gives the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``) and
the spread ``(q3 - q1) / median`` next to the metric's bound; a spread
above a third of the bound is flagged.  The last column is the share of
failed operations.  Exits 1 when a run fails, reports incorrect output,
or a spread (other than ``setup_s``'s) exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def machine() -> str:
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    return f"nproc {os.cpu_count()}, memory {mem:.1f} GiB"


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    wall = time.perf_counter() - t0
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}: {done.stderr[-2000:]}")
    return json.loads(lines[-1]), wall


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)

    print(f"# {machine()}; {args.runs} runs of {args.seconds} s, "
          f"seeds {args.seed}..{args.seed + args.runs - 1}")
    print("| workload | metric | median | q1 | q3 | spread | bound | |")
    print("|---|---|---|---|---|---|---|---|")
    bad = False
    for workload in args.workloads.split(","):
        results, walls = [], []
        for i in range(args.runs):
            result, wall = run_once(workload, args.seed + i, args.seconds)
            results.append(result)
            walls.append(wall)
            bad |= not result["correct"]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "over bound" if spread > bound else (
                "over bound/3" if spread > bound / 3 else "ok")
            bad |= spread > bound and name != "setup_s"
            print(f"| {workload} | {name} | {med:.4g} | {q1:.4g} | "
                  f"{q3:.4g} | {spread:.3f} | {bound} | {flag} |")
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"| {workload} | failed/attempted | {failed}/{attempted} | "
              f"| | | | wall {min(walls):.0f}-{max(walls):.0f} s |")
        sys.stdout.flush()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
