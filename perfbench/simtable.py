#!/usr/bin/env python3
"""Print the simulated figures of every workload as a Markdown table.

    python3 perfbench/simtable.py [--seed 1]

Each workload runs once, for one second, in its own process.  The
figures are those of the simulated GPUs (milliseconds, GTEPS, serve
makespan and throughput, cluster bytes exchanged); they do not depend on
the host, and every run checks that they repeat exactly.  This is the
command that regenerates the table in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    print("| workload | figures |")
    print("|---|---|")
    for workload in (w["name"] for w in spec["workloads"]):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", "1", "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=600,
            check=True)
        lines = done.stdout.strip().splitlines()
        if not json.loads(lines[-1])["correct"]:
            raise SystemExit(f"{workload}: incorrect output\n{done.stdout}")
        for line in lines[:-1]:
            if line.startswith(f"sim {workload} "):
                print(f"| {workload} | "
                      f"{line[len(f'sim {workload} '):]} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
