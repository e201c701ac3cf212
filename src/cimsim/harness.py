"""Monte Carlo BER sweeps over (geometry, signaling, hardware, power).

A task covers a contiguous group of the grid's geometry-major (geometry,
signaling) pairs: every hardware model and every power point of each.
The serial sweep is one task of every pair; a pool of W workers runs
min(W, pairs) tasks.  Each realization of a task draws its paths once
(``draw_paths``), its payload bits and noise once per signaling, and is
realized once per geometry (steering matrices and channel matrix).  Per
pair, its codebook selection and the detector's hypothesis values then
feed the transmit path of every hardware model.  Early stopping stays
per (pair, hardware, power) point.

A task draws, realizes, selects and counts its realizations in blocks
of K, one K for every pair of the task: ``BLOCK_USES`` bounds a block's
channel uses and ``BLOCK_CHANNEL_ELEMENTS`` its channel matrices at the
task's largest element count.  Per hardware model, one
``quantize_weights`` and one ``transmit`` call over a leading
realization axis take a pair's whole block, and ``detect`` and
``count_bit_errors`` take it in chunks that keep the detector's metric
entries (T B M per realization) within ``BLOCK_ELEMENTS``; together they
count the block at every power point of the pair live at its start.
The early stop is then replayed realization by realization: a point
takes realization r's counts only while it is still below
``error_limit``.  Realization r's counts depend only on (seed, r), so
this gives exactly the rows of a loop over single realizations, whatever
the block and chunk sizes or the pairs a task holds.  A block is drawn
only if some point of the task is live at its start, realized on a
geometry only if one of its pairs' points is, and counted for a pair
only if one of the pair's points is, so at most K - 1 realizations are
drawn and selected past a pair's last stop, and none is counted.  No
draw outlives its block.

Receive noise is drawn in branch space, at the noise floor ``NOISE_DBM``:
one white (T, B) block per realization, which ``transmit`` maps through
the R factor of each hardware model's combiners (W = QR).  Since
n W^* = (n Q^*) R^* with n Q^* white, each model's combined noise has
exactly the law of antenna noise n combined by its W, and depends on no
other model of the grid.

Realization r draws its paths from ``SeedSequence([seed, r, 0])`` and
its payload and noise from ``SeedSequence([seed, r, 1])``, never from a
grid position: every geometry, signaling, hardware model and power point
shares realization r's draws (common random numbers), and a row depends
only on the config values and the seed, not on the worker schedule nor
on the grid's other points or their order.

Each point keeps the sum and the sum of squares of its per-realization
bit error counts, so its standard error can take the realization, not
the bit, as the sampling unit (``BerResult.se_robust``).

The hardware-efficient (HE) model applies the quantized weights in the
signal path while detection keeps the ideal-hardware hypothesis values,
which is what makes coarse banks floor out at high power.

Every process of a sweep runs BLAS on one thread: 82-element matrices are
too small for BLAS threads to help, and idle ones busy-wait against the
sweep and any other process on the CPUs.  Forked pool workers inherit
the sweep's cap and start no BLAS threads; others cap their own.
"""

from __future__ import annotations

import ctypes
import dataclasses
import json
import math
import os
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from itertools import groupby, product, repeat
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__
from .arrays import ArrayKind, WAVELENGTH, scenario_geometry
from .channel import (ChannelConfig, ChannelRealization, draw_paths,
                      require_number, sample_realization)
from .codebook import FpsBank, build_codebook, quantize_weights
from .link import (array_gain_db, branch_amplitudes, count_bit_errors,
                   db_to_linear, dbm_to_watt, detect, psk_constellation,
                   transmit)

DEFAULT_POWERS_DBM = tuple(float(p) for p in range(-10, 45, 5))

# Receive noise power per branch.  With the fixed path loss it sets where
# the transmit powers fall: another floor only shifts every power.
NOISE_DBM = -90.0

# Realizations per block: as many as keep the block's channel uses (T per
# realization) within BLOCK_USES and its stacked channel matrices (n^2
# entries each at the task's largest element count n, 16 MiB in all)
# within BLOCK_CHANNEL_ELEMENTS, and no more than the sweep's realizations.
# The detector takes a block in chunks of as many realizations (at least
# one) as keep its metric entries (T B M per realization) within
# BLOCK_ELEMENTS; ``detect`` allocates about four floats per entry, 1 MiB.
BLOCK_USES = 2048
BLOCK_CHANNEL_ELEMENTS = 1 << 20
BLOCK_ELEMENTS = 32768


def parse_hardware(token: str) -> FpsBank | None:
    """The analog network a hardware token names: None for ideal phase
    shifters (``OP``), a fixed phase shifter bank for ``HE<n>``."""
    if not isinstance(token, str):
        raise ValueError(f"hardware tokens must be strings, got {token!r}")
    name = token.strip().upper().replace("(", "").replace(")", "")
    if name == "OP":
        return None
    if name.startswith("HE") and name[2:].isdecimal():
        n_shifters = int(name[2:])
        try:
            return FpsBank(n_shifters)
        except ValueError as exc:
            raise ValueError(f"hardware HE{n_shifters}: {exc}") from None
    raise ValueError(f"unknown hardware token: {token.strip()!r}")


# SimConfig's integer keys and their smallest accepted values; load_config
# checks each value as it parses it, so the error names the file line.
_LOWER_BOUNDS = {"realizations": 1, "symbols_per_realization": 1,
                 "error_limit": 1, "seed": 0, "n_elements": 1}


_GRID_KEYS = ("geometries", "signalings", "hardware", "powers_dbm")


def _check_axis(key: str, values: tuple) -> None:
    """A grid axis of a SimConfig is a tuple of at least one value and
    lists none twice, since a repeated value only repeats rows.  Powers
    must be finite real numbers, signalings (B, M) pairs and geometries
    array kinds.  Hardware tokens are parsed, which validates them, and
    compared as the banks they name: HE8 and he(8) are the same value."""
    if not isinstance(values, tuple):
        raise ValueError(f"{key} must be a tuple, got {values!r}")
    if not values:
        raise ValueError(f"{key} must be nonempty")
    check = {"geometries": ArrayKind, "hardware": parse_hardware,
             "signalings": _check_signaling,
             "powers_dbm": lambda v: require_number(key, v)}[key]
    seen = set()
    for value in values:
        same = check(value)
        if same in seen:
            raise ValueError(f"{key} repeats {value!r}")
        seen.add(same)


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
    error_limit: int = 500

    def __post_init__(self) -> None:
        if not isinstance(self.channel, ChannelConfig):
            raise ValueError(f"channel must be a ChannelConfig, got "
                             f"{self.channel!r}")
        for key, low in _LOWER_BOUNDS.items():
            require_number(key, getattr(self, key), low)
        for key in _GRID_KEYS:
            _check_axis(key, getattr(self, key))
        for g in self.geometries:
            try:
                scenario_geometry(g, WAVELENGTH, self.n_elements)
            except ValueError as exc:
                raise ValueError(f"geometry {g} with n_elements="
                                 f"{self.n_elements}: {exc}") from None
        for order, constellation in self.signalings:
            if order > self.channel.clusters:
                raise ValueError(
                    f"signalings {order}x{constellation}: B must not exceed "
                    f"clusters = {self.channel.clusters}")


def _check_signaling(signaling: tuple[int, int]) -> tuple[int, int]:
    """``signaling`` if it is a (B, M) pair of powers of two with B M > 1
    (one hypothesis carries no bits)."""
    if not (isinstance(signaling, tuple) and len(signaling) == 2
            and all(type(v) is int for v in signaling)):
        raise ValueError(f"signalings must be (B, M) pairs of integers, "
                         f"got {signaling!r}")
    order, constellation = signaling
    for v in signaling:
        if v < 1 or (v & (v - 1)) != 0:
            raise ValueError(f"B and M must be powers of two, got "
                             f"{order}x{constellation}")
    if order * constellation == 1:
        raise ValueError("signalings 1x1 carries no bits: B*M must be at "
                         "least 2")
    return signaling


@dataclass
class BerResult:
    """One (geometry, signaling, hardware, power) point of a sweep.

    ``error_squares`` is the sum over the used realizations of the
    squared per-realization bit error count (float64: it can exceed the
    int64 range at the largest accepted sizes).  ``elapsed_s`` is the
    wall time of the task that produced the point split evenly over that
    task's points (its pairs x hardware x powers), so summing it over a
    sweep gives the summed task time.
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
    error_squares: float
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

    @property
    def se_robust(self) -> float:
        """Standard error of the BER with the realization as the sampling
        unit: the standard error of the mean per-realization error count
        over bits per realization; NaN below two realizations.  Errors
        cluster by channel draw, so it is usually wider than the binomial
        ``standard_error``."""
        n = self.realizations_used
        if n < 2:
            return float("nan")
        mean = self.bit_errors / n
        variance = max(self.error_squares - n * mean * mean, 0.0) / (n - 1)
        bits_per_realization = self.bits_total / n
        return float(np.sqrt(variance / n) / bits_per_realization)

    @property
    def ci95(self) -> tuple[float, float]:
        """BER -+ 1.96 ``se_robust``, clipped to [0, 1]."""
        half = 1.96 * self.se_robust
        return (float(np.clip(self.ber - half, 0.0, 1.0)),
                float(np.clip(self.ber + half, 0.0, 1.0)))


class _Pair:
    """One (geometry, signaling) pair of a task: its element positions,
    the running counts of its hardware x power points and its selections
    (codebook weights and hypothesis values) of the task's block."""

    def __init__(self, cfg: SimConfig, geometry: str,
                 signaling: tuple[int, int]) -> None:
        self.geometry = geometry
        self.signaling = order, constellation = signaling
        self.label = f"{geometry} {order}x{constellation}"
        self.positions = scenario_geometry(geometry, WAVELENGTH,
                                           cfg.n_elements).positions
        gain = db_to_linear(array_gain_db(len(self.positions)))
        # sqrt(P) G_t G_r per power point
        self.amplitudes = np.array([np.sqrt(dbm_to_watt(p)) * gain * gain
                                    for p in cfg.powers_dbm])
        self.points = psk_constellation(constellation)
        shape = (len(cfg.hardware), len(cfg.powers_dbm))
        self.errors = np.zeros(shape, dtype=np.int64)
        self.squares = np.zeros(shape)
        self.used = np.zeros_like(self.errors)

    def bind(self, size: int) -> None:
        """Allocate the selections of a block of ``size`` realizations."""
        n = len(self.positions)
        order = self.signaling[0]
        self.weights = np.empty((2, size, n, order), dtype=complex)   # F, W
        self.hyp = np.empty((size, order), dtype=complex)

    def live(self, cfg: SimConfig) -> bool:
        return bool((self.errors < cfg.error_limit).any())

    def select(self, i: int, realization: ChannelRealization) -> None:
        """Codebook weights and hypothesis values of the block's
        realization ``i``."""
        cb_detect = build_codebook(realization, self.signaling[0])
        self.hyp[i] = branch_amplitudes(cb_detect, realization.matrix)
        self.weights[0, i] = cb_detect.beamformers
        self.weights[1, i] = cb_detect.combiners

    def count_block(self, cfg: SimConfig, banks: list[FpsBank | None],
                    channels: np.ndarray,
                    payload: tuple[np.ndarray, ...]) -> None:
        """Count the block's selected realizations over ``channels`` and
        their ``payload`` (``_draw_payload``) at every point live at the
        block's start, the detector taking them in chunks sized by
        ``BLOCK_ELEMENTS``; their counts are then added in realization
        order while each point stays below ``error_limit``."""
        live = self.errors < cfg.error_limit
        k = len(channels)
        x0, x1, noise = payload
        sent = x0 * self.points.size + x1
        chunk = max(1, BLOCK_ELEMENTS // (cfg.symbols_per_realization
                                          * math.prod(self.signaling)))
        # counts of the points live at the block's start, (k, hardware, P)
        counts = np.zeros((k,) + self.errors.shape, dtype=np.int64)
        for h, bank in enumerate(banks):
            active = np.flatnonzero(live[h])
            if active.size == 0:
                continue
            weights = self.weights[:, :k]
            f, w = weights if bank is None \
                else quantize_weights(weights, bank)
            v, combined_noise = transmit(f, w, channels, noise)
            for start in range(0, k, chunk):
                part = slice(start, min(start + chunk, k))
                decided = detect(v[part], sent[part], combined_noise[part],
                                 self.amplitudes[active], self.hyp[part],
                                 self.points)
                counts[part, h, active] = count_bit_errors(sent[part, None],
                                                           decided)

        # the per-realization early stop, replayed in realization order
        for count in counts:
            live = self.errors < cfg.error_limit
            np.add(self.errors, count, out=self.errors, where=live)
            np.add(self.squares, np.square(count, dtype=float),
                   out=self.squares, where=live)
            self.used += live

    def results(self, cfg: SimConfig, banks: list[FpsBank | None],
                elapsed_s: float) -> list[BerResult]:
        order, constellation = self.signaling
        bits_per_use = int(np.log2(order) + np.log2(constellation))
        n_shifters = [0 if bank is None else bank.n_shifters for bank in banks]
        return [BerResult(geometry=self.geometry, order=order,
                          constellation=constellation,
                          hardware=f"HE{n_f}" if n_f else "OP",
                          n_shifters=n_f, power_dbm=float(power),
                          bit_errors=int(self.errors[h, i]),
                          bits_total=int(self.used[h, i])
                          * cfg.symbols_per_realization * bits_per_use,
                          seed=cfg.seed,
                          realizations_used=int(self.used[h, i]),
                          error_squares=float(self.squares[h, i]),
                          elapsed_s=elapsed_s)
                for h, n_f in enumerate(n_shifters)
                for i, power in enumerate(cfg.powers_dbm)]


def _draw_payload(cfg: SimConfig, signaling: tuple[int, int], start: int,
                  k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Codeword indices (k, T), PSK indices (k, T) and white branch-space
    noise (k, T, B) of realizations ``start`` to ``start + k - 1``."""
    order, constellation = signaling
    t_symbols = cfg.symbols_per_realization
    sigma = np.sqrt(dbm_to_watt(NOISE_DBM) / 2.0)
    x0, x1 = np.empty((2, k, t_symbols), dtype=np.int64)
    noise = np.empty((k, t_symbols, order), dtype=complex)
    for i in range(k):
        payload_rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, start + i, 1]))
        x0[i] = payload_rng.integers(0, order, t_symbols)
        x1[i] = payload_rng.integers(0, constellation, t_symbols)
        noise[i].real = payload_rng.normal(0.0, sigma, (t_symbols, order))
        noise[i].imag = payload_rng.normal(0.0, sigma, (t_symbols, order))
    return x0, x1, noise


def _run_task(cfg: SimConfig,
              pairs: list[tuple[str, tuple[int, int]]]) -> list[BerResult]:
    """Every hardware and power point of a group of (geometry, signaling)
    pairs, pair by pair in the group's order, each ordered
    hardware-major.  A failure names the pair that raised it, or every
    pair that shares the draw or realization that raised it."""
    started = time.perf_counter()
    banks = [parse_hardware(token) for token in cfg.hardware]
    group = [_Pair(cfg, geometry, signaling) for geometry, signaling in pairs]
    n = max(len(pair.positions) for pair in group)
    size = max(1, min(BLOCK_USES // cfg.symbols_per_realization,
                      BLOCK_CHANNEL_ELEMENTS // (n * n), cfg.realizations))
    channel_buffer = np.empty(size * n * n, dtype=complex)
    for pair in group:
        pair.bind(size)

    label = ", ".join(pair.label for pair in group)
    try:
        for start in range(0, cfg.realizations, size):
            live = [pair for pair in group if pair.live(cfg)]
            if not live:
                break
            label = ", ".join(pair.label for pair in live)
            k = min(size, cfg.realizations - start)
            paths = [draw_paths(cfg.channel, [cfg.seed, r, 0])
                     for r in range(start, start + k)]
            payloads = {s: _draw_payload(cfg, s, start, k)
                        for s in {pair.signaling for pair in live}}
            # live pairs of one geometry are adjacent: the pairs are
            # geometry-major
            for _, same in groupby(live, key=attrgetter("geometry")):
                same = list(same)
                label = ", ".join(pair.label for pair in same)
                positions = same[0].positions
                channels = channel_buffer[:k * len(positions) ** 2].reshape(
                    k, len(positions), len(positions))
                for i, drawn in enumerate(paths):
                    realization = sample_realization(drawn, positions)
                    channels[i] = realization.matrix
                    for pair in same:
                        pair.select(i, realization)
                # the last realization's steering and channel matrices are
                # copied or selected: free them before counting
                del realization
                for pair in same:
                    label = pair.label
                    pair.count_block(cfg, banks, channels,
                                     payloads[pair.signaling])
    except Exception as exc:
        raise RuntimeError(f"{label}: {exc}") from exc

    elapsed_s = (time.perf_counter() - started) / (
        len(group) * len(banks) * len(cfg.powers_dbm))
    return [result for pair in group
            for result in pair.results(cfg, banks, elapsed_s)]


def _split(pairs: list, n_groups: int) -> list[list]:
    """``pairs`` cut into ``n_groups`` contiguous groups whose sizes differ
    by at most one, the larger groups first."""
    size, extra = divmod(len(pairs), n_groups)
    bounds = [i * size + min(i, extra) for i in range(n_groups + 1)]
    return [pairs[a:b] for a, b in zip(bounds, bounds[1:])]


def run_sweep(cfg: SimConfig, workers: int = 1) -> list[BerResult]:
    """Full grid sweep; results ordered geometry-major, then signaling,
    then hardware, power-minor.

    A task is a contiguous group of the geometry-major (geometry,
    signaling) pairs; the serial path runs one task of every pair.  With
    ``workers > 1`` and more than one pair, ``min(workers, pairs)``
    processes run one task each.  This process and every worker run BLAS
    on one thread (``_limit_blas_threads``); this process gets its own
    thread counts back when the sweep ends, also when a task fails."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    pairs = list(product(cfg.geometries, cfg.signalings))
    groups = _split(pairs, min(workers, len(pairs)))
    capped = _limit_blas_threads()
    try:
        if len(groups) == 1:
            results = [_run_task(cfg, pairs)]
        else:
            with ProcessPoolExecutor(max_workers=len(groups),
                                     initializer=_limit_blas_threads) as pool:
                results = list(pool.map(_run_task, repeat(cfg, len(groups)),
                                        groups))
    finally:
        for setter, count in capped:
            setter(count)
    return [result for task in results for result in task]


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


def _limit_blas_threads() -> list[tuple[Callable, int]]:
    """Cap every mapped OpenBLAS library's thread pool at one thread
    through its first exported getter/setter pair; returns the setter
    and previous count of each library it changed, for the caller to
    restore.  Also the pool worker initializer.

    A library already at one thread is left alone: a forked process has
    none of the library's server threads, and the setter would start
    them, to busy-wait for a first job.  A worker forked from a parent
    that holds the cap therefore keeps its single OS thread.

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
            if previous != 1:
                setter(1)
                changed.append((setter, previous))
            break
    return changed


def _environment(workers: int | None) -> dict:
    """numpy/BLAS build, usable CPUs (the affinity mask where the OS has
    one) and thread variables of this run, and the worker count if given."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    env = {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpus": cpus,
        "thread_variables": {name: os.environ.get(name) for name in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                              "MKL_NUM_THREADS")},
    }
    if workers is not None:
        env["workers"] = workers
    return env


CSV_HEADER = ("geometry,B,M,hardware,N_F,P_dBm,bits_total,bit_errors,"
              "ber,seed,se_robust,ci95_lo,ci95_hi\n")


def _power_text(power_dbm: float) -> str:
    """The shortest text that reads back as the same float, so two
    distinct powers never print alike."""
    return np.format_float_positional(power_dbm, trim="-")


def results_to_csv(results: list[BerResult]) -> str:
    lines = [CSV_HEADER]
    for r in results:
        lo, hi = r.ci95
        lines.append(f"{r.geometry},{r.order},{r.constellation},{r.hardware},"
                     f"{r.n_shifters},{_power_text(r.power_dbm)},"
                     f"{r.bits_total},{r.bit_errors},{r.ber:.10e},{r.seed},"
                     f"{r.se_robust:.10e},{lo:.10e},{hi:.10e}\n")
    return "".join(lines)


def aggregate_and_emit(results: list[BerResult], out_dir: "str | Path",
                       cfg: SimConfig, *,
                       workers: int | None = None) -> tuple[Path, Path]:
    """Write ber_results.csv plus a JSON run manifest; returns both paths.

    ``workers`` is the worker count the sweep ran with; the manifest's
    ``environment`` then also records it."""
    if not results:
        raise ValueError("no results to emit")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "ber_results.csv"
    csv_path.write_text(results_to_csv(results))

    manifest = {
        "version": __version__,
        "environment": _environment(workers),
        "config": dataclasses.asdict(cfg),
        "elements": _element_counts(cfg),
        "points": len(results),
        "realizations_used": {
            f"{r.geometry}/{r.order}x{r.constellation}/{r.hardware}/"
            f"{_power_text(r.power_dbm)}": r.realizations_used
            for r in results},
    }
    manifest_path = out / "run_manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return csv_path, manifest_path


def _element_counts(cfg: SimConfig) -> dict[str, int]:
    """Elements each geometry really has; the URA rounds ``n_elements``
    to a square (82 -> 81)."""
    return {g: scenario_geometry(g, WAVELENGTH, cfg.n_elements).n_elements
            for g in cfg.geometries}


# --- flat key=value config files -------------------------------------------

_CHANNEL_KEYS = {"clusters": int, "paths_per_cluster": int,
                 "angular_spread_deg": float, "shadowing_std_db": float}


def _parse_powers(text: str) -> tuple[float, ...]:
    """A comma list, or ``lo:hi:step`` with hi included, whose value k is
    the float nearest lo + k step in the typed decimals (0.3, not 0.1 * 3)."""
    text = text.strip()
    ranged = ":" in text
    fields = text.split(":" if ranged else ",")
    if ranged and len(fields) != 3:
        raise ValueError(f"powers_dbm range must be lo:hi:step, got {text!r}")
    try:
        values = tuple(map(float, fields))
    except ValueError:
        raise ValueError(f"powers_dbm must be lo:hi:step or a comma list of "
                         f"numbers, got {text!r}") from None
    if not ranged:
        return values
    lo, hi, step = (require_number("powers_dbm", v) for v in values)
    if step == 0:
        raise ValueError(f"powers_dbm range {text!r} has a zero step")
    count = len(np.arange(lo, hi + step / 2.0, step))
    if not count:
        raise ValueError(f"powers_dbm range {text!r} is empty")
    first, _, delta = (Fraction(Decimal(v)) for v in fields)
    return tuple(float(first + k * delta) for k in range(count))


def _parse_signalings(text: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for token in text.split(","):
        parts = token.strip().lower().split("x")
        if len(parts) != 2:
            raise ValueError(f"signaling must be BxM, got {token.strip()!r}")
        pairs.append((int(parts[0]), int(parts[1])))
    return tuple(pairs)


def load_config(path: "str | Path") -> SimConfig:
    """Flat key=value config; '#' comments; unknown or repeated keys fail.

    A value that breaks a rule of its own key fails with
    ``<path>:<line>: <key>: ...``; a rule between keys (signalings
    against clusters, a geometry against n_elements) fails with
    ``<path>: ...`` naming both keys."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ValueError(f"{path}: cannot read config file: "
                         f"{exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: cannot read config file: {exc}") from None
    sim_kwargs: dict = {}
    chan_kwargs: dict = {}
    first_lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
            first = first_lines.setdefault(key, lineno)
            if first != lineno:
                raise ValueError(f"already set on line {first}")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    try:
        return SimConfig(channel=ChannelConfig(**chan_kwargs), **sim_kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_entry(key: str, value: str, sim_kwargs: dict,
                 chan_kwargs: dict) -> None:
    """Store one config entry in the SimConfig or ChannelConfig kwargs."""
    if key in _LOWER_BOUNDS:
        sim_kwargs[key] = require_number(key, int(value), _LOWER_BOUNDS[key])
    elif key in _CHANNEL_KEYS:
        chan_kwargs[key] = _CHANNEL_KEYS[key](value)
        ChannelConfig(**{key: chan_kwargs[key]})    # this key's own rules
    elif key == "geometries":
        sim_kwargs["geometries"] = tuple(v.strip().upper()
                                         for v in value.split(","))
    elif key == "signalings":
        sim_kwargs["signalings"] = _parse_signalings(value)
    elif key == "hardware":
        sim_kwargs["hardware"] = tuple(v.strip() for v in value.split(","))
    elif key == "powers_dbm":
        sim_kwargs["powers_dbm"] = _parse_powers(value)
    else:
        raise ValueError("unknown key")
    if key in _GRID_KEYS:
        _check_axis(key, sim_kwargs[key])
