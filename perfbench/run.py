#!/usr/bin/env python3
"""Host benchmark of the Enterprise BFS simulator, one workload per run.

    python3 perfbench/run.py --workload rmat-solve --seed 1 --seconds 10 \
        --trace 0

Runs from the root of a checkout, builds nothing and imports ``repro``
from that checkout's ``src/``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` its per-layer metrics, and the
run's spans are written to ``perfbench/out/``.  The lines before it give
the simulated figures and any failed check.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# One thread: set before NumPy or SciPy load a BLAS.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rmat-solve", "road-solve", "rmat-serve", "rmat-cluster")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import ``repro`` from this checkout's ``src/``, or explain why not."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"error: cannot import repro from {src}: {exc}")
    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"error: repro was imported from {repro.__file__}, "
                         f"not from {src}")


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    load_program()
    import workloads

    tally, metrics, rec = workloads.run(args.workload, args.seed,
                                        args.seconds, bool(args.trace))
    if set(metrics) != {m["name"] for m in declared}:
        raise SystemExit("error: measured metrics "
                         f"{sorted(metrics)} do not match BENCHMARK.json")
    if args.trace:
        rec.write(HERE / "out" / f"spans-{args.workload}-{args.seed}.json")
    for line in tally.sim:
        print(line)
    for failure in tally.failures:
        print(f"operation failed: {failure}")
    for err in tally.errors:
        print(f"check failed: {err}")
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
