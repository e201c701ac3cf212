"""Run-to-run spread of the benchmark's metrics over several seeds.

Run from the repository root:

    python3 cimbench/spread.py --workload ber_grid --seeds 1 2 3 4 5 --out runs.json
    python3 cimbench/spread.py --compare first.json second.json

The first form runs the benchmark once per seed (as BENCHMARK.json's
command, with its run_seconds) and prints, per end-to-end metric, the
median and the quartile spread (Q3 - Q1) / median of
``statistics.quantiles(values, n=4)``, next to the metric's bound.  The
second form compares the medians of two such files metric by metric and
flags any that worsened by more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=True)
    *_, record, result = done.stdout.strip().splitlines()
    return {**json.loads(result), **json.loads(record)}


def summary(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def report(bench: dict, runs: dict) -> None:
    for workload, results in runs.items():
        failed = sum(r["failed"] for r in results)
        print(f"{workload}: {len(results)} runs, correct "
              f"{all(r['correct'] for r in results)}, failed {failed}")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            median, spread = summary(values)
            flag = "" if m["name"] == "setup_s" or spread < m["bound"] / 3 \
                else "  <-- spread above a third of the bound"
            print(f"  {m['name']:<14} median {median:12.6g} {m['unit']:<5} "
                  f"spread {spread:6.3f}  bound {m['bound']}{flag}")


def compare(bench: dict, first: dict, second: dict) -> int:
    worse = 0
    for workload in first:
        for m in bench["end_to_end"]:
            a = statistics.median(r["metrics"][m["name"]]["value"]
                                  for r in first[workload])
            b = statistics.median(r["metrics"][m["name"]]["value"]
                                  for r in second[workload])
            change = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "  <-- worse by more than the bound" \
                if change > m["bound"] else ""
            worse += bool(flag)
            print(f"{workload:<18} {m['name']:<14} {a:12.6g} -> {b:12.6g} "
                  f"worse by {change:+.3f} (bound {m['bound']}){flag}")
    return 1 if worse else 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append",
                   help="repeatable; default: every workload")
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, help="write every result here")
    p.add_argument("--compare", type=Path, nargs=2, metavar="RUNS_JSON")
    args = p.parse_args()
    bench = spec()
    if args.compare:
        first, second = (json.loads(f.read_text()) for f in args.compare)
        return compare(bench, first, second)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    runs = {}
    for workload in names:
        runs[workload] = []
        for seed in args.seeds:
            runs[workload].append(run_once(bench, workload, seed, args.trace))
            if args.out:
                args.out.write_text(json.dumps(runs, indent=1))
    if args.trace == 0:
        report(bench, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
