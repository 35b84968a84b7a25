"""Run every workload and print each metric by name, with its unit.

    python3 bench/report.py                  # end-to-end metrics, 30 s a workload
    python3 bench/report.py --trace          # and the per-layer metrics
    python3 bench/report.py --smoke          # tiny size, both kinds: a quick check

Each run must report every metric that BENCHMARK.json names for its kind,
and every job must match its recorded exit code and digests; otherwise this
exits with 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run_one(workload: str, seed: int, seconds: float, trace: int, smoke: bool,
            names: list[str]) -> list[str]:
    """Run one workload; print its metrics; return the problems found."""
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        return ["%s trace %d: exit %d: %s" % (workload, trace, proc.returncode,
                                              proc.stderr.strip()[-500:])]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    print("%s (trace %d): %d jobs run, %d failed"
          % (workload, trace, result["attempted"], result["failed"]))
    for name, m in metrics.items():
        print("  %-58s %14.6f %s" % (name, m["value"], m["unit"]))
    problems = ["%s trace %d: missing metric %s" % (workload, trace, n)
                for n in names if n not in metrics]
    if not result["correct"] or result["failed"]:
        problems.append("%s trace %d: %d of %d jobs failed their recorded digests"
                        % (workload, trace, result["failed"], result["attempted"]))
    return problems


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", action="store_true", help="also run traced")
    p.add_argument("--smoke", action="store_true",
                   help="tiny size, traced and untraced")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    kinds = [(0, [m["name"] for m in spec["end_to_end"]])]
    if args.trace or args.smoke:
        kinds.append((1, [m["name"] for m in spec["per_layer"]]))
    problems = []
    for w in spec["workloads"]:
        for trace, names in kinds:
            problems += run_one(w["name"], args.seed, args.seconds, trace,
                                args.smoke, names)
    for line in problems:
        print("FAIL " + line)
    print("FAIL" if problems else "OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
