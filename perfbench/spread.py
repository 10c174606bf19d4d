"""Run one workload on several seeds and report each end-to-end metric's
median, quartiles and quartile spread against its bound.

    python3 perfbench/spread.py --workload eval --seeds 1-10 [--json out.json]

A metric is steady when its spread, (Q3 - Q1) / median over the seeds, is
below a third of its bound; setup_s is exempt from the spread rule. Use this
before comparing two commits: the runs of both must come from the same
benchmark code and settings.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import monotonic

from stats import quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(spec: str) -> list[int]:
    seeds: list[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write every run's result here")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    runs = []
    for seed in parse_seeds(args.seeds):
        start = monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        digests = dict(line.split()[1:3] for line in proc.stdout.splitlines()
                       if line.startswith("digest "))
        runs.append({"seed": seed, "result": result, "digests": digests})
        print(f"seed {seed} ({monotonic() - start:.0f} s): correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(runs, fh, indent=1)
    if len(runs) < 2 or args.trace:
        return 0
    for m in bench["end_to_end"]:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = quartile_spread(values)
        verdict = ("exempt" if m["name"] == "setup_s"
                   else "steady" if spread < m["bound"] / 3
                   else "within bound" if spread <= m["bound"] else "TOO WIDE")
        print(f"{m['name']}: median {med:.5g} {m['unit']}, quartiles {q1:.5g}..{q3:.5g}, "
              f"spread {spread:.4f} of bound {m['bound']} -> {verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
