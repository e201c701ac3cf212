"""Monte Carlo BER sweeps over (geometry, signaling, hardware, power).

One task covers one (geometry, signaling) pair: every hardware model
and every power point of it.  Each realization of a task is drawn once
(channel, steering matrices, codebook selection, payload bits, noise and
the detector's hypothesis values) and feeds the transmit path of every
hardware model, so hardware models and power points share channel
realizations, payload bits and noise (common random numbers).  One
``detect`` call decides all live power points of a hardware model.  Early
stopping stays per (hardware, power) point.

Seeding is position-based: the channel and payload streams of trial r of
a (geometry, signaling) pair depend only on the master seed and the grid
position, never on the worker schedule, the hardware model or the power
point, so runs are bit-reproducible for any worker count and for any
subset of the hardware models.

The hardware-efficient (HE) model applies the quantized weights in the
signal path while detection keeps the ideal-hardware hypothesis values,
which is what makes coarse banks floor out at high power.

A sweep run on a process pool gives each worker process its share of the
usable CPUs for BLAS threads, so workers x BLAS threads never exceed the
CPUs; the serial path leaves BLAS as it is.  The parent caps its own
BLAS threads around the pool, so forked workers inherit the cap and
start no BLAS threads; workers started by spawn or forkserver cap their
own.
"""

from __future__ import annotations

import ctypes
import dataclasses
import json
import os
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .arrays import element_positions, scenario_geometry
from .channel import ChannelConfig, require_finite, sample_realization
from .codebook import FpsBank, build_codebook, quantize_codebook
from .link import (array_gain_db, branch_amplitudes, count_bit_errors,
                   db_to_linear, dbm_to_watt, detect, psk_constellation,
                   transmit)

DEFAULT_POWERS_DBM = tuple(float(p) for p in range(-10, 45, 5))


@dataclass(frozen=True)
class HardwareSpec:
    """Analog network model: ideal phase shifters or an FPS bank."""

    kind: str                  # "OP" or "HE"
    n_shifters: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("OP", "HE"):
            raise ValueError("hardware kind must be OP or HE")
        if self.kind == "HE":
            try:
                FpsBank(self.n_shifters)
            except ValueError as exc:
                raise ValueError(f"hardware {self.label}: {exc}") from None

    @staticmethod
    def parse(token: str) -> "HardwareSpec":
        name = token.strip().upper().replace("(", "").replace(")", "")
        if name == "OP":
            return HardwareSpec("OP")
        if name.startswith("HE") and name[2:].isdecimal():
            return HardwareSpec("HE", int(name[2:]))
        raise ValueError(f"unknown hardware token: {token.strip()!r}")

    @property
    def label(self) -> str:
        return "OP" if self.kind == "OP" else f"HE{self.n_shifters}"

    @property
    def bank(self) -> FpsBank | None:
        return FpsBank(self.n_shifters) if self.kind == "HE" else None


# Smallest accepted SimConfig counts and seed; load_config checks each
# value as it parses it, so the error names the file line.
_LOWER_BOUNDS = {"realizations": 1, "symbols_per_realization": 1,
                 "error_limit": 1, "seed": 0}


def _check_lower_bound(key: str, value: int) -> None:
    low = _LOWER_BOUNDS.get(key)
    if low is not None and value < low:
        raise ValueError(f"{key} must be at least {low}, got {value}")


@dataclass(frozen=True)
class SimConfig:
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    geometries: tuple[str, ...] = ("ULA", "URA", "UCA", "CCA")
    signalings: tuple[tuple[int, int], ...] = ((2, 4),)
    hardware: tuple[str, ...] = ("OP",)
    powers_dbm: tuple[float, ...] = DEFAULT_POWERS_DBM
    realizations: int = 200
    symbols_per_realization: int = 100
    seed: int = 1
    n_elements: int = 82
    noise_dbm: float = -90.0
    error_limit: int = 500

    def __post_init__(self) -> None:
        for key in _LOWER_BOUNDS:
            _check_lower_bound(key, getattr(self, key))
        for key in ("powers_dbm", "noise_dbm"):
            require_finite(key, getattr(self, key))
        if not self.powers_dbm:
            raise ValueError("power sweep must be nonempty")
        for g in self.geometries:
            try:
                scenario_geometry(g, self.channel.wavelength, self.n_elements)
            except ValueError as exc:
                raise ValueError(f"geometry {g} with n_elements="
                                 f"{self.n_elements}: {exc}") from None
        for token in self.hardware:
            HardwareSpec.parse(token)
        for order, constellation in self.signalings:
            for v in (order, constellation):
                if v < 1 or (v & (v - 1)) != 0:
                    raise ValueError("B and M must be powers of two")
            if order > self.channel.clusters:
                raise ValueError("B must not exceed the cluster count")


@dataclass
class BerResult:
    """One (geometry, signaling, hardware, power) point of a sweep.

    ``elapsed_s`` is the wall time of the task that produced the point
    split evenly over that task's hardware x power points, so summing it
    over a sweep gives the summed task time.
    """

    geometry: str
    order: int
    constellation: int
    hardware: str
    n_shifters: int
    power_dbm: float
    bit_errors: int
    bits_total: int
    seed: int
    realizations_used: int
    elapsed_s: float = 0.0

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits_total if self.bits_total else float("nan")

    @property
    def standard_error(self) -> float:
        """Binomial standard error of the BER estimate."""
        if not self.bits_total:
            return float("nan")
        p = self.ber
        return float(np.sqrt(p * (1.0 - p) / self.bits_total))


def _run_task(cfg: SimConfig, geometry_index: int,
              signaling_index: int) -> list[BerResult]:
    """Every hardware and power point of one (geometry, signaling) pair,
    ordered hardware-major.  A failure names the pair that raised it."""
    try:
        return _sweep_pair(cfg, geometry_index, signaling_index)
    except Exception as exc:
        order, constellation = cfg.signalings[signaling_index]
        raise RuntimeError(f"{cfg.geometries[geometry_index]} "
                           f"{order}x{constellation}: {exc}") from exc


def _sweep_pair(cfg: SimConfig, geometry_index: int,
                signaling_index: int) -> list[BerResult]:
    started = time.perf_counter()
    geometry = cfg.geometries[geometry_index]
    order, constellation = cfg.signalings[signaling_index]
    hardware = [HardwareSpec.parse(token) for token in cfg.hardware]
    banks = [hw.bank for hw in hardware]

    spec = scenario_geometry(geometry, cfg.channel.wavelength, cfg.n_elements)
    positions = element_positions(spec)
    n = spec.n_elements
    gain = db_to_linear(array_gain_db(n))
    noise_w = dbm_to_watt(cfg.noise_dbm)
    points = psk_constellation(constellation)
    bits_per_use = int(np.log2(order) + np.log2(constellation))
    # sqrt(P) G_t G_r per power point
    amplitudes = np.array([np.sqrt(dbm_to_watt(p)) * gain * gain
                           for p in cfg.powers_dbm])

    n_powers = len(cfg.powers_dbm)
    errors = np.zeros((len(hardware), n_powers), dtype=np.int64)
    used = np.zeros_like(errors)
    t_symbols = cfg.symbols_per_realization
    sigma = np.sqrt(noise_w / 2.0)
    noise = np.empty((t_symbols, n), dtype=complex)

    for r in range(cfg.realizations):
        live = errors < cfg.error_limit
        if not live.any():
            break
        channel_seed = np.random.SeedSequence(
            [cfg.seed, geometry_index, signaling_index, r, 0])
        realization = sample_realization(cfg.channel, positions, positions,
                                         channel_seed)
        cb_detect = build_codebook(realization, order)

        payload_rng = np.random.default_rng(np.random.SeedSequence(
            [cfg.seed, geometry_index, signaling_index, r, 1]))
        x0 = payload_rng.integers(0, order, t_symbols)
        x1 = payload_rng.integers(0, constellation, t_symbols)
        noise.real = payload_rng.normal(0.0, sigma, (t_symbols, n))
        noise.imag = payload_rng.normal(0.0, sigma, (t_symbols, n))
        symbols = points[x1]
        hyp = branch_amplitudes(cb_detect, realization.matrix)  # (B,)

        for h, bank in enumerate(banks):
            active = np.flatnonzero(live[h])
            if active.size == 0:
                continue
            cb_tx = cb_detect if bank is None \
                else quantize_codebook(cb_detect, bank)
            signal, combined_noise = transmit(cb_tx, realization.matrix, x0,
                                              symbols, noise)
            c_hat, s_hat = detect(signal, combined_noise, amplitudes[active],
                                  hyp, points)
            errors[h, active] += count_bit_errors(x0, x1, c_hat, s_hat)
            used[h, active] += 1

    elapsed_s = (time.perf_counter() - started) / errors.size
    return [BerResult(geometry=geometry, order=order,
                      constellation=constellation, hardware=hw.label,
                      n_shifters=hw.n_shifters,
                      power_dbm=float(cfg.powers_dbm[i]),
                      bit_errors=int(errors[h, i]),
                      bits_total=int(used[h, i]) * t_symbols * bits_per_use,
                      seed=cfg.seed, realizations_used=int(used[h, i]),
                      elapsed_s=elapsed_s)
            for h, hw in enumerate(hardware) for i in range(n_powers)]


def run_sweep(cfg: SimConfig, workers: int = 1) -> list[BerResult]:
    """Full grid sweep; results ordered geometry-major, then signaling,
    then hardware, power-minor.

    With ``workers > 1`` and more than one task, ``min(workers, tasks)``
    processes share the tasks with their BLAS threads capped at
    ``_worker_blas_threads``.  This process holds the same cap while the
    pool runs and gets its own thread counts back when the pool closes,
    also when a task fails."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    tasks = [(gi, si)
             for gi in range(len(cfg.geometries))
             for si in range(len(cfg.signalings))]
    threads = _worker_blas_threads(workers, len(tasks))
    if threads is None:
        results = [_run_task(cfg, *task) for task in tasks]
    else:
        # forked workers inherit this cap and start no BLAS threads; the
        # initializer caps workers started by spawn or forkserver
        capped = _limit_blas_threads(threads)
        try:
            with ProcessPoolExecutor(max_workers=min(workers, len(tasks)),
                                     initializer=_limit_blas_threads,
                                     initargs=(threads,)) as pool:
                results = list(pool.map(_pool_task,
                                        [(cfg, *task) for task in tasks]))
        finally:
            for setter, count in capped:
                setter(count)
    return [result for task in results for result in task]


def _pool_task(payload: tuple) -> list[BerResult]:
    return _run_task(*payload)


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS
    has one, else the machine's count)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _worker_blas_threads(workers: int, n_tasks: int) -> int | None:
    """BLAS threads per pool worker: the usable CPUs split over the
    ``min(workers, n_tasks)`` worker processes, at least one.  None when
    the sweep runs serially, which leaves BLAS threads as they are."""
    processes = min(workers, n_tasks)
    if processes <= 1:
        return None
    return max(1, _usable_cpus() // processes)


# Thread-count getters and setters of OpenBLAS builds, most specific
# first: numpy's 64-bit-integer wheel build, scipy's wheel build, then
# plain OpenBLAS.  A build's getter and setter share an index.
_OPENBLAS_GET_THREADS = ("scipy_openblas_get_num_threads64_",
                         "scipy_openblas_get_num_threads",
                         "openblas_get_num_threads64_",
                         "openblas_get_num_threads")
_OPENBLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_",
                         "scipy_openblas_set_num_threads",
                         "openblas_set_num_threads64_",
                         "openblas_set_num_threads")


def _openblas_libraries() -> list[ctypes.CDLL]:
    """OpenBLAS shared libraries mapped into this process, read from
    ``/proc/self/maps``; empty where that file does not exist (an OS
    other than Linux) or no mapped path names OpenBLAS."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {fields[5].strip() for fields in
                     (line.split(None, 5) for line in maps)
                     if len(fields) == 6 and "openblas" in fields[5]}
    except OSError:
        return []
    libraries = []
    for path in sorted(paths):
        try:
            libraries.append(ctypes.CDLL(path))
        except OSError:    # a mapped file since deleted: "<path> (deleted)"
            pass
    return libraries


def _limit_blas_threads(threads: int) -> list[tuple[Callable, int]]:
    """Cap every mapped OpenBLAS library's thread pool at ``threads``
    through its first exported getter/setter pair; returns the setter
    and previous count of each library it changed, for the caller to
    restore.  Also the pool worker initializer.

    A library already at ``threads`` is left alone: a forked process
    has none of the library's server threads, and the setter would
    start them, to busy-wait for a first job.  A worker forked from a
    parent that holds the cap therefore keeps its single OS thread.

    A no-op where no OpenBLAS library is found: on an OS without
    ``/proc/self/maps``, or with another BLAS (MKL, Accelerate, BLIS),
    whose threads then stay at their defaults."""
    changed = []
    for lib in _openblas_libraries():
        for get_name, set_name in zip(_OPENBLAS_GET_THREADS,
                                      _OPENBLAS_SET_THREADS):
            getter = getattr(lib, get_name, None)
            setter = getattr(lib, set_name, None)
            if getter is None or setter is None:
                continue
            getter.argtypes = []
            getter.restype = ctypes.c_int
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            previous = getter()
            if previous != threads:
                setter(threads)
                changed.append((setter, previous))
            break
    return changed


def _environment(workers: int | None, n_tasks: int) -> dict:
    """numpy/BLAS build, usable CPUs and thread variables of this run;
    with a worker count, also the BLAS thread cap of each pool worker."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpus": _usable_cpus(),
        "thread_variables": {name: os.environ.get(name) for name in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                              "MKL_NUM_THREADS")},
    }
    if workers is not None:
        env["workers"] = workers
        env["blas_threads"] = _worker_blas_threads(workers, n_tasks)
    return env


CSV_HEADER = ("geometry,B,M,hardware,N_F,P_dBm,bits_total,bit_errors,"
              "ber,seed\n")


def results_to_csv(results: list[BerResult]) -> str:
    lines = [CSV_HEADER]
    for r in results:
        lines.append(f"{r.geometry},{r.order},{r.constellation},{r.hardware},"
                     f"{r.n_shifters},{r.power_dbm:.6g},{r.bits_total},"
                     f"{r.bit_errors},{r.ber:.10e},{r.seed}\n")
    return "".join(lines)


def aggregate_and_emit(results: list[BerResult], out_dir: "str | Path",
                       cfg: SimConfig, *,
                       workers: int | None = None) -> tuple[Path, Path]:
    """Write ber_results.csv plus a JSON run manifest; returns both paths.

    ``workers`` is the worker count the sweep ran with; the manifest's
    ``environment`` then also records it and the per-worker BLAS thread
    cap (null on the serial path)."""
    if not results:
        raise ValueError("no results to emit")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "ber_results.csv"
    csv_path.write_text(results_to_csv(results))

    n_tasks = len(cfg.geometries) * len(cfg.signalings)
    manifest = {
        "version": __version__,
        "environment": _environment(workers, n_tasks),
        "config": _config_dict(cfg),
        "elements": _element_counts(cfg),
        "points": len(results),
        "realizations_used": {f"{r.geometry}/{r.order}x{r.constellation}/"
                              f"{r.hardware}/{r.power_dbm:g}": r.realizations_used
                              for r in results},
    }
    manifest_path = out / "run_manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return csv_path, manifest_path


def _element_counts(cfg: SimConfig) -> dict[str, int]:
    """Elements each geometry really has; the URA rounds ``n_elements``
    to a square (82 -> 81)."""
    return {g: scenario_geometry(g, cfg.channel.wavelength,
                                 cfg.n_elements).n_elements
            for g in cfg.geometries}


def _config_dict(cfg: SimConfig) -> dict:
    d = dataclasses.asdict(cfg)
    d["channel"]["angular_spread_deg"] = float(
        np.rad2deg(cfg.channel.angular_spread_rad))
    return d


# --- flat key=value config files -------------------------------------------

_CHANNEL_KEYS = {
    "clusters": int,
    "paths_per_cluster": int,
    "pathloss_intercept_db": float,
    "pathloss_exponent": float,
    "shadowing_std_db": float,
    "carrier_hz": float,
}
_SIM_KEYS = {
    "realizations": int,
    "symbols_per_realization": int,
    "seed": int,
    "n_elements": int,
    "noise_dbm": float,
    "error_limit": int,
}


def _parse_powers(text: str) -> tuple[float, ...]:
    text = text.strip()
    if ":" in text:
        bounds = require_finite(
            "powers_dbm", tuple(float(v) for v in text.split(":")))
        if len(bounds) != 3:
            raise ValueError(f"powers_dbm range must be lo:hi:step, "
                             f"got {text!r}")
        lo, hi, step = bounds
        if step == 0:
            raise ValueError(f"range {text!r} has a zero step")
        powers = tuple(np.arange(lo, hi + step / 2.0, step).tolist())
        if not powers:
            raise ValueError(f"range {text!r} is empty")
        return powers
    return tuple(float(v) for v in text.split(","))


def _parse_signalings(text: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for token in text.split(","):
        b, m = token.lower().split("x")
        pairs.append((int(b), int(m)))
    return tuple(pairs)


def load_config(path: "str | Path") -> SimConfig:
    """Flat key=value config; '#' comments; unknown keys are an error."""
    sim_kwargs: dict = {}
    chan_kwargs: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        try:
            _parse_entry(key, value, sim_kwargs, chan_kwargs)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return SimConfig(channel=ChannelConfig(**chan_kwargs), **sim_kwargs)


def _parse_entry(key: str, value: str, sim_kwargs: dict,
                 chan_kwargs: dict) -> None:
    """Store one config entry in the SimConfig or ChannelConfig kwargs."""
    if key in _SIM_KEYS:
        sim_kwargs[key] = require_finite(key, _SIM_KEYS[key](value))
        _check_lower_bound(key, sim_kwargs[key])
    elif key in _CHANNEL_KEYS:
        chan_kwargs[key] = require_finite(key, _CHANNEL_KEYS[key](value))
    elif key == "geometries":
        sim_kwargs["geometries"] = tuple(v.strip().upper()
                                         for v in value.split(","))
    elif key == "signalings":
        sim_kwargs["signalings"] = _parse_signalings(value)
    elif key == "hardware":
        sim_kwargs["hardware"] = tuple(v.strip() for v in value.split(","))
        for token in sim_kwargs["hardware"]:
            HardwareSpec.parse(token)
    elif key == "powers_dbm":
        sim_kwargs["powers_dbm"] = require_finite(key, _parse_powers(value))
    elif key == "angular_spread_deg":
        chan_kwargs["angular_spread_rad"] = float(np.deg2rad(
            require_finite(key, float(value))))
    elif key in ("tx_position", "rx_position"):
        chan_kwargs[key] = require_finite(
            key, tuple(float(v) for v in value.split(",")))
    else:
        raise ValueError("unknown key")
