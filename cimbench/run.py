"""cimsim benchmark: BER sweeps and 0.25-degree radiation patterns.

Run from the repository root:

    python3 cimbench/run.py --workload ber_grid --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the same checkout.  The run sets
up its inputs from ``--seed``, repeats the workload's unit of work for
about ``--seconds`` seconds, checks every output, and prints as its last
line one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics from a traced run with ``--trace 1``.  Earlier lines record the
environment and the run (BER count digest, failed share, unit times).
See README.md in this directory for the metrics and workloads.
"""

import time

_STARTED = time.perf_counter()      # setup_s counts from here

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 5                    # this process plus four fresh ones
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: minimal inputs, for the self-test")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print setup_s and exit (one setup sample)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Import cimsim from this checkout's src/, or exit with code 2."""
    if not (SRC / "cimsim" / "__init__.py").is_file():
        print(f"cimsim sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import cimsim
    if Path(cimsim.__file__).resolve().parent != SRC / "cimsim":
        print(f"imported cimsim from {cimsim.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    commit, dirty = None, None
    if (ROOT / ".git").exists():
        def git(*cmd):
            return subprocess.run(["git", "-C", str(ROOT), *cmd],
                                  capture_output=True, text=True,
                                  timeout=30).stdout.strip()
        commit = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in THREAD_VARIABLES},
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "git_commit": commit,
        "git_dirty": dirty,
    }


def measure(workload, seconds: float, tracer):
    """Run units of work for about ``seconds``.

    A unit starts only if the median unit so far still fits, and at
    least one always runs.  With a tracer, each unit runs twice, untraced
    and then traced, so the pairs give the tracing overhead.
    Returns (untraced results, traced results).
    """
    untraced, traced = [], []
    units = workload.units()
    started = time.perf_counter()
    runs_per_unit = 1 if tracer is None else 2

    def time_left() -> bool:
        walls = [u.wall_s for u in untraced + traced if u.wall_s == u.wall_s]
        estimate = runs_per_unit * statistics.median(walls) if walls else 0.0
        return time.perf_counter() - started + estimate <= seconds

    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
        out_dir = Path(tmp)
        while not untraced or time_left():
            unit = next(units)
            untraced.append(workload.run_unit(unit, None, out_dir))
            if tracer is not None:
                tracer.run_id = len(traced)
                with tracer.patched(workload.trace_targets()):
                    traced.append(workload.run_unit(unit, tracer, out_dir))
    return untraced, traced


def _median(values, default=0.0) -> float:
    values = [v for v in values if v == v]
    return float(statistics.median(values)) if values else default


def end_to_end_metrics(untraced, setup_samples, rss_mb) -> dict:
    """Unit time and throughput over the whole run, not per-unit medians:
    machine speed changes in spells longer than a unit, and a median unit
    jumps between spells where the run average moves smoothly."""
    done = [u for u in untraced if u.wall_s == u.wall_s]
    wall = sum(u.wall_s for u in done)
    return {
        "setup_s": (_median(setup_samples), "s"),
        "wall_s": (wall / len(done), "s"),
        "work_per_s": (sum(u.work for u in done) / wall, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer_metrics(tracer, untraced, traced) -> dict:
    from workloads import GEOMETRIES
    spans = tracer.finished()
    self_times = tracer.self_times()
    n_units = len(traced)
    total = [defaultdict(float) for _ in range(n_units)]
    self_total = [defaultdict(float) for _ in range(n_units)]
    calls = [defaultdict(int) for _ in range(n_units)]
    durations = defaultdict(list)
    for span, self_s in zip(spans, self_times):
        total[span.run_id][span.name] += span.duration
        self_total[span.run_id][span.name] += self_s
        calls[span.run_id][span.name] += 1
        durations[span.name].append(span.duration)

    def per_unit(table, *names) -> float:
        """Median over the traced units of the per-unit sum."""
        return _median([sum(t[n] for n in names) for t in table])

    traced_wall = sum(u.wall_s for u in traced if u.wall_s == u.wall_s)

    def share(*names) -> float:
        return sum(sum(t[n] for n in names) for t in total) / traced_wall

    def info(key) -> float:
        return _median([u.info.get(key, float("nan")) for u in traced])

    def ms_p50(name) -> float:
        return _median(durations[name]) * 1e3

    cb = ("codebook.build_codebook.op", "codebook.build_codebook.he")
    m = {
        "channel.sample_realization.calls":
            (per_unit(calls, "channel.sample_realization"), "count"),
        "channel.sample_realization.total_s":
            (per_unit(total, "channel.sample_realization"), "s"),
        "channel.sample_realization.p50_ms":
            (ms_p50("channel.sample_realization"), "ms"),
        "codebook.build_codebook.calls": (per_unit(calls, *cb), "count"),
        "codebook.build_codebook.total_s": (per_unit(total, *cb), "s"),
        "codebook.build_codebook.op.p50_ms": (ms_p50(cb[0]), "ms"),
        "codebook.build_codebook.he.p50_ms": (ms_p50(cb[1]), "ms"),
        "link.branch_amplitudes.calls":
            (per_unit(calls, "link.branch_amplitudes"), "count"),
        "link.branch_amplitudes.total_s":
            (per_unit(total, "link.branch_amplitudes"), "s"),
        "harness.run_sweep.self_s":
            (per_unit(self_total, "harness.run_sweep"), "s"),
        "harness.realizations_used_frac":
            (info("realizations_used_frac"), "frac"),
        "harness.worker_busy_frac": (info("worker_busy_frac"), "frac"),
        "harness.aggregate_and_emit.s": (info("emit_s"), "s"),
        "harness.aggregate_and_emit.bytes": (info("emit_bytes"), "bytes"),
        "patterns.compute_pattern.calls":
            (per_unit(calls, "patterns.compute_pattern"), "count"),
        "patterns.compute_pattern.total_s":
            (per_unit(total, "patterns.compute_pattern"), "s"),
    }
    kernel = [t["patterns.compute_pattern"] for t in total]
    for kind in GEOMETRIES:
        m[f"patterns.compute_pattern.{kind}.s"] = (_median(
            [k for k, u in zip(kernel, traced)
             if u.info.get("geometry") == kind]), "s")
    dir_elems = sum(u.info.get("directions", 0) * u.info.get("elements", 0)
                    for u in traced)
    m["patterns.compute_pattern.ns_per_dir_elem"] = (
        sum(kernel) / dir_elems * 1e9 if dir_elems else 0.0, "ns")
    m["patterns.summarize.total_s"] = (per_unit(total, "patterns.summarize"),
                                       "s")
    m["channel.share"] = (share("channel.sample_realization"), "frac")
    m["codebook.share"] = (share(*cb), "frac")
    m["link.share"] = (share("link.branch_amplitudes"), "frac")
    m["harness.run_sweep.self_share"] = (
        sum(t["harness.run_sweep"] for t in self_total) / traced_wall,
        "frac")
    m["patterns.compute_pattern.share"] = (share("patterns.compute_pattern"),
                                           "frac")
    m["patterns.summarize.share"] = (share("patterns.summarize"), "frac")

    m["trace.overhead_frac"] = (_median(
        [t.wall_s / u.wall_s - 1.0 for u, t in zip(untraced, traced)]), "frac")
    return m


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times its largest child.

    Read before any setup sample starts, so the only children that have
    ended by then are the sweep's pool workers.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if workers > 1 else 0)) / 1024.0


def setup_sample(args) -> float:
    """setup_s of a fresh interpreter running this script's setup only."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads
    from tracing import Tracer
    try:
        workload = workloads.build(args.workload, args.seed,
                                   args.size == "tiny")
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    workload.warm_up()
    setup_s = time.perf_counter() - _STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    print(json.dumps({"env": environment()}), flush=True)
    tracer = Tracer() if args.trace else None
    untraced, traced = measure(workload, args.seconds, tracer)
    if not any(u.wall_s == u.wall_s for u in untraced):
        print("no unit of work completed", file=sys.stderr)
        return 1
    final_attempted, final_failed = workload.final_checks()
    rss_mb = peak_rss_mb(workload.workers)

    units = untraced + traced
    attempted = sum(u.attempted for u in units) + final_attempted
    failed = sum(u.failed for u in units) + final_failed
    record = {"workload": args.workload, "seed": args.seed,
              "size": args.size, "workers": workload.workers,
              "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted,
              "units": len(untraced),
              "unit_s_p50": _median([u.wall_s for u in untraced]),
              "untraced_unit_s": [u.wall_s for u in untraced],
              "traced_unit_s": [u.wall_s for u in traced],
              **workload.record()}

    if tracer is None:
        setup_samples = [setup_s] + [setup_sample(args)
                                     for _ in range(SETUP_SAMPLES - 1)]
        record["setup_samples_s"] = setup_samples
        metrics = end_to_end_metrics(untraced, setup_samples, rss_mb)
    else:
        metrics = per_layer_metrics(tracer, untraced, traced)
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
        tracer.dump(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))

    print(json.dumps({"run": record}), flush=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
