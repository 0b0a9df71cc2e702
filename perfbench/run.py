"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload scan_clean --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The line before the result holds the run's
environment (Python, numpy and scipy versions, nproc, CPU model) and where
the full report was written. Exits with code 2, printing no result, when the
checkout has no program to import or the workload is unknown.
"""

import argparse
import json
import os
import sys

import harness


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # harness imports no numpy at module level, so the pools are pinned in time.
    for var in harness.THREAD_VARIABLES:
        os.environ[var] = "1"
    try:
        result, report = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    info = {k: report[k] for k in ("workload", "seed", "trace", "environment", "report_file")}
    info["scans"] = len(report["scan_samples_s"])
    info["traced_scans"] = len(report["traced_scan_samples_s"])
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
