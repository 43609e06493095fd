"""The repository benchmark: one command per workload, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload pipeline_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload served_reads --seed 1 --seconds 2 --trace 1 --smoke
    python3 perfbench/run.py --write-expected

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; diagnostics go to
standard error.  See ``perfbench/README.md`` for the workloads, metrics and
seeds.
"""

from __future__ import annotations

import argparse
import sys

import common

#: The first two are the benchmark's workloads (BENCHMARK.json); the served
#: ones are auxiliary (see README.md).
WORKLOADS = ("pipeline_cold", "session_edits", "served_reads",
             "served_warm_restart")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the harness's own tests")
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate pipeline_cold's expected digests")
    args = parser.parse_args(argv)
    common.use_source_tree()

    import pipeline
    if args.write_expected:
        return pipeline.write_expected()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "pipeline_cold":
        pipeline.run(args.seed, args.seconds, bool(args.trace), args.smoke)
    elif args.workload == "session_edits":
        import edits
        edits.run(args.seed, args.seconds, bool(args.trace), args.smoke)
    else:
        import served
        served.run(args.workload == "served_warm_restart", args.seed,
                   args.seconds, bool(args.trace), args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
