"""Self-test of the benchmark at tiny size.

Run from the repository root:

    python3 cimbench/selftest.py

Runs every workload of BENCHMARK.json with ``--size tiny`` for one
second, untraced and traced, and asserts that the last line has exactly
the result keys, that every end-to-end (untraced) or per-layer (traced)
metric is printed with its unit and a finite value, that end-to-end
values are positive, and that no operation failed (failed_frac == 0).
Then it checks that the benchmark exits nonzero without a result in a
directory that holds only BENCHMARK.json and the benchmark's files.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(bench: dict, cwd: Path, workload: str, trace: int,
        size: str = "tiny") -> subprocess.CompletedProcess:
    cmd = [*bench["command"], "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--size", size]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_result(bench: dict, workload: str, trace: int) -> None:
    done = run(bench, ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS, result.keys()
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], done.stdout
    expected = bench["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {k: v["unit"] for k, v in result["metrics"].items()}, \
        sorted(result["metrics"])
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), name
        assert trace or value > 0, f"{name} is {value}"
    print(f"ok  {workload} trace={trace}: {len(expected)} metrics, "
          f"{result['attempted']} operations, failed_frac 0")


def check_without_program(bench: dict) -> None:
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bench, bare, bench["workloads"][0]["name"], 0, "full")
    assert done.returncode != 0, done.stdout
    assert "metrics" not in done.stdout, done.stdout
    print("ok  exits", done.returncode, "without the program's sources")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            check_result(bench, workload, trace)
    check_without_program(bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
