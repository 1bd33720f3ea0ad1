"""Benchmark of the TransUKAN training step and inference forward.

Run from the repository root:

    python3 perfbench/run.py --workload train-64-b4 --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is a separate run that records spans and prints the per-layer
metrics. The last line of standard output is the result as one JSON object;
the lines before it list the same metrics with their units, and a fuller
record (provenance included) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="TransUKAN step benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "transukan", "__init__.py")):
        print(f"perfbench: no transukan package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(bench.WORKLOADS)}")
    record = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT)
    line = record["result"]
    print(f"# {record['workload']} seed={args.seed} trace={args.trace} "
          f"correct={line['correct']} attempted={line['attempted']} "
          f"failed={line['failed']} checks={record['checks']}")
    if "tail_percentile" in record:
        print(f"# step_ms_tail is p{record['tail_percentile']:.1f} "
              f"of {record['samples']} samples")
    print(f"# provenance {json.dumps(record['provenance'])}")
    for name, m in line["metrics"].items():
        print(f"{name:<44} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
