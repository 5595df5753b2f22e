"""Run one camalign benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-full --seed 1 --seconds 30 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics (from a separate
traced pass, plus its overhead) with ``--trace 1``.  The full result with its
machine block, and the spans of a traced run, go to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import gzip
import json
import os
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads: the program is single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train-full", "train-base-2view", "decode")


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "camalign" / "__init__.py").is_file():
        print(f"camalign sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import report
    import workloads

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload]
    machine = report.machine_block(ROOT, args.seed)
    result = workloads.run(wl, args.seed, args.seconds, bool(args.trace), out_dir)

    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("machine " + json.dumps(machine))
    kind = "per-layer (traced run)" if args.trace else "end-to-end"
    report.print_metrics(f"{kind} metrics:", result.metrics)
    report.print_metrics("also reported:", {
        "ops": report.metric(result.attempted, "count", 1),
        "ops_failed": report.metric(result.failed, "count", 1),
        **{k: v for k, v in result.extra.items() if isinstance(v, dict)}})
    for key, value in result.extra.items():
        if not isinstance(value, dict):
            print(f"  {key:<40} {value}")
    for violation in result.violations[:20]:
        print(f"  check failed: {violation}")

    (out_dir / f"{stem}.json").write_text(json.dumps({
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "metrics": result.metrics,
        "extra": result.extra, "attempted": result.attempted, "failed": result.failed,
        "violations": result.violations}, indent=1))
    if result.spans is not None:
        with gzip.open(out_dir / f"{stem}-spans.jsonl.gz", "wt") as fh:
            fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "group"]}) + "\n")
            for span in result.spans:
                fh.write(json.dumps(span) + "\n")
    print(report.result_line(result.failed == 0 and not result.violations,
                             result.attempted, result.failed, result.metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
