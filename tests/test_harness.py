import contextlib
import ctypes
import dataclasses
import functools
import json
import multiprocessing
import os
import re
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cimsim import harness
from cimsim.arrays import WAVELENGTH, scenario_geometry
from cimsim.channel import ChannelConfig, draw_paths, sample_realization
from cimsim.codebook import build_codebook
from cimsim.harness import (SimConfig, aggregate_and_emit, load_config,
                            parse_hardware, results_to_csv, run_sweep)
from cimsim.link import (array_gain_db, db_to_linear, dbm_to_watt,
                         psk_constellation)

TINY = dict(geometries=("ULA", "URA"), signalings=((2, 4),), hardware=("OP",),
            powers_dbm=(-20.0, -10.0), realizations=3,
            symbols_per_realization=8, seed=7, n_elements=16)


# ULA/URA/UCA at 16 elements with early stops that differ between
# points; the grid that subsets of geometries and signalings are run
# against
GRID = SimConfig(geometries=("ULA", "URA", "UCA"),
                 signalings=((2, 4), (4, 8), (2, 2)), hardware=("OP", "HE4"),
                 powers_dbm=(-20.0, -10.0, 10.0), realizations=6,
                 symbols_per_realization=16, seed=13, n_elements=16,
                 error_limit=40)


def _rows(results) -> list[tuple]:
    """((geometry, signaling, hardware, power), counts) of each result."""
    return [((r.geometry, (r.order, r.constellation), r.hardware,
              r.power_dbm),
             (r.bit_errors, r.bits_total, r.realizations_used))
            for r in results]


@pytest.fixture(scope="module")
def full_grid():
    return GRID, dict(_rows(run_sweep(GRID)))


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


def _blas_thread_counts(*_task) -> list[tuple[str, int]]:
    """(path, thread count) of every OpenBLAS library the harness finds
    mapped into this process."""
    counts = []
    for lib in harness._openblas_libraries():
        name = next(n for n in harness._OPENBLAS_GET_THREADS
                    if hasattr(lib, n))
        getter = getattr(lib, name)
        getter.argtypes = []
        getter.restype = ctypes.c_int
        counts.append((lib._name, getter()))
    return counts


def _blas_thread_report(*_task) -> list[dict[str, int]]:
    """A task's one row: the thread count of each OpenBLAS library the
    harness finds mapped into this process, by path."""
    return [dict(_blas_thread_counts())]


@functools.cache
def _numpy_openblas_paths() -> frozenset[str]:
    """Paths of the OpenBLAS libraries that a fresh interpreter maps
    once it has imported numpy alone."""
    script = ("import numpy\n"
              "for line in open('/proc/self/maps'):\n"
              "    fields = line.split(None, 5)\n"
              "    if len(fields) == 6 and 'openblas' in fields[5]:\n"
              "        print(fields[5].strip())\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, timeout=120).stdout
    return frozenset(out.split())


@contextlib.contextmanager
def _numpy_blas_threads(threads: int):
    """Run the body with numpy's OpenBLAS libraries set to ``threads``
    through their own setters; their counts are set back after it."""
    counts = dict(_blas_thread_counts())
    setters = []
    for lib in harness._openblas_libraries():
        if lib._name not in _numpy_openblas_paths():
            continue
        index = next(i for i, n in enumerate(harness._OPENBLAS_GET_THREADS)
                     if hasattr(lib, n))
        setter = getattr(lib, harness._OPENBLAS_SET_THREADS[index])
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setters.append((setter, counts[lib._name]))
    assert setters, "numpy's OpenBLAS library not found"
    for setter, _ in setters:
        setter(threads)
    try:
        yield
    finally:
        for setter, count in setters:
            setter(count)


def _os_thread_count(*_task) -> list[int]:
    """OS threads of this process, as a one-row task result."""
    return [len(os.listdir("/proc/self/task"))]


def _require_openblas() -> None:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in str(blas.get("name")).lower():
        pytest.skip("numpy is not built against OpenBLAS")


def _start_pool_by(monkeypatch, method: str) -> None:
    """Make the harness start its pool workers by ``method``."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {method} is not available here")
    monkeypatch.setattr(harness, "ProcessPoolExecutor", functools.partial(
        ProcessPoolExecutor, mp_context=multiprocessing.get_context(method)))


class TestHardwareSpec:
    @pytest.mark.parametrize("token,kind,nf", [
        ("OP", "OP", 0), ("op", "OP", 0), ("HE8", "HE", 8),
        ("he4", "HE", 4), ("HE(6)", "HE", 6),
    ])
    def test_parse(self, token, kind, nf):
        bank = parse_hardware(token)
        if kind == "OP":
            assert bank is None
        else:
            assert bank.n_shifters == nf

    @pytest.mark.parametrize("token,message", [
        ("XX", "unknown hardware token: 'XX'"),
        ("HE1", "hardware HE1: need at least two"),
        ("HE", "unknown hardware token: 'HE'"),
        ("HEx", "unknown hardware token: 'HEx'"),
    ], ids=["XX", "HE1", "HE", "HEx"])
    def test_parse_rejects(self, token, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            parse_hardware(token)


# SimConfig values of the wrong type: integers must be ints (not bools),
# reals ints or floats, grid axes tuples, signalings pairs of ints and the
# channel a ChannelConfig.
WRONG_TYPES = [
    ("realizations", 2.5),
    ("symbols_per_realization", 4.0),
    ("seed", 1.5),
    ("seed", True),
    ("error_limit", "60"),
    ("n_elements", 16.0),
    ("error_limit", None),
    ("realizations", "5"),
    ("powers_dbm", (0.0, "x")),
    ("powers_dbm", [0.0]),
    ("geometries", "ULA"),
    ("hardware", "OP"),
    ("signalings", ((2, 4.0),)),
    ("signalings", ((2, True),)),
    ("signalings", ((2, 4, 8),)),
    ("signalings", ([2, 4],)),
    ("channel", "x"),
]


def refusal(key, message):
    """Expect ``SimConfig(**{key: value})`` to fail naming ``key``: with a
    ValueError matching ``message``, or, for ``noise_dbm``, with the
    constructor's TypeError.  The noise floor is the scenario's NOISE_DBM, so
    that key is refused whatever the value."""
    if key == "noise_dbm":
        return pytest.raises(TypeError,
                             match=f"unexpected keyword argument '{key}'$")
    return pytest.raises(ValueError, match=message)


class TestSimConfig:
    def test_defaults_are_scenario_scale(self):
        cfg = SimConfig()
        assert cfg.geometries == ("ULA", "URA", "UCA", "CCA")
        assert cfg.realizations * cfg.symbols_per_realization == 20_000

    @pytest.mark.parametrize("kwargs", [
        dict(signalings=((16, 4),)),               # B > clusters
        dict(signalings=((3, 4),)),                # not a power of two
        dict(error_limit=0),
        dict(geometries=("XLA",)),
        dict(hardware=("HE0",)),
        dict(powers_dbm=()),
        dict(realizations=0),
        dict(seed=-1),
        dict(signalings=((2, 5),)),                # M not a power of two
        dict(geometries=()),
        dict(signalings=()),
        dict(hardware=()),
        dict(geometries=("URA", "URA")),
        dict(signalings=((2, 4), (4, 4), (2, 4))),
        dict(hardware=("HE8", "OP", "he(8)")),
        dict(powers_dbm=(-10.0, 0.0, -10.0)),
        dict(powers_dbm=(0.0, -0.0)),
        *(dict([case]) for case in WRONG_TYPES),
        dict(signalings=((1, 1),)),                # one hypothesis, no bits
    ])
    def test_invalid_configs_raise(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**{**dict(), **kwargs})

    @pytest.mark.parametrize(
        "key,value", WRONG_TYPES + [("noise_dbm", "x"), ("noise_dbm", None)],
        ids=[f"{k}={v!r}" for k, v in WRONG_TYPES]
        + ["noise_dbm='x'", "noise_dbm=None"])
    def test_wrong_type_names_the_key(self, key, value):
        # rejected when the config is built, not inside the sweep
        with refusal(key, rf"^{key} must be "):
            SimConfig(**{key: value})

    @pytest.mark.parametrize("key,value,shown", [
        ("powers_dbm", (np.nan,), "nan"),
        ("powers_dbm", (-10.0, np.inf), "inf"),
        ("noise_dbm", np.inf, "inf"),
        ("noise_dbm", -np.inf, "-inf"),
    ])
    def test_non_finite_values_rejected(self, key, value, shown):
        # another noise floor only shifts the powers: no value is taken
        with refusal(key, f"^{key} must be finite, got {shown}$"):
            SimConfig(**{key: value})

    @pytest.mark.parametrize("name", ["XYZ", "ula", "XLA"])
    def test_unknown_geometry_names_value_and_kinds(self, name):
        # the name alone is wrong: the message does not blame n_elements
        with pytest.raises(ValueError) as info:
            SimConfig(geometries=("ULA", name), n_elements=16)
        assert str(info.value) == (f"{name!r} is not a valid ArrayKind "
                                   f"(geometries: ULA, URA, UCA, CCA)")

    def test_scenario_layout_checked_per_geometry(self):
        with pytest.raises(ValueError, match="geometry CCA with n_elements=16"):
            SimConfig(geometries=("ULA", "CCA"), n_elements=16)

    def test_phase_step_below_wrapped_phase_resolution_rejected(self):
        resolution = np.spacing(2 * np.pi)
        finest = max(n for n in range(2, 128)
                     if 2 * np.pi / 2 ** (n - 1) >= resolution)
        SimConfig(hardware=("OP", f"HE{finest}"))
        for n in (finest + 1, 70):
            with pytest.raises(ValueError, match=f"HE{n}"):
                SimConfig(hardware=(f"HE{n}",))


class TestRunSweep:
    def test_noiseless_sweep_has_zero_errors(self, monkeypatch):
        monkeypatch.setattr(harness, "NOISE_DBM", -10_000.0)
        cfg = SimConfig(**{**TINY, "realizations": 1,
                           "symbols_per_realization": 4})
        for r in run_sweep(cfg):
            assert r.bit_errors == 0 and r.ber == 0.0

    def test_grid_cardinality_and_order(self):
        cfg = SimConfig(**{**TINY, "hardware": ("OP", "HE4")})
        results = run_sweep(cfg)
        assert len(results) == 2 * 1 * 2 * 2
        keys = [(r.geometry, r.hardware, r.power_dbm) for r in results]
        assert keys == [(g, h, p) for g in ("ULA", "URA")
                        for h in ("OP", "HE4") for p in (-20.0, -10.0)]

    def test_deterministic_across_runs_and_workers(self):
        cfg = SimConfig(**TINY)
        csv_a = results_to_csv(run_sweep(cfg, workers=1))
        csv_b = results_to_csv(run_sweep(cfg, workers=1))
        csv_c = results_to_csv(run_sweep(cfg, workers=2))
        assert csv_a == csv_b == csv_c

    def test_bits_accounting(self):
        cfg = SimConfig(**TINY)
        for r in run_sweep(cfg):
            assert r.bits_total == r.realizations_used * 8 * 3
            assert 0.0 <= r.ber <= 1.0

    def test_early_exit_stops_consuming_realizations(self):
        noisy = SimConfig(**{**TINY, "powers_dbm": (-60.0,),
                             "realizations": 50, "error_limit": 5})
        r = run_sweep(noisy)[0]
        assert r.bit_errors >= 5
        assert r.realizations_used < 50
        assert r.bits_total == r.realizations_used * 8 * 3

    def test_hardware_shares_channel_and_payload_streams(self):
        cfg = SimConfig(**{**TINY, "hardware": ("OP", "HE8"),
                           "powers_dbm": (-10.0,)})
        results = run_sweep(cfg)
        op = [r for r in results if r.hardware == "OP"]
        he = [r for r in results if r.hardware == "HE8"]
        # 7-bit quantization barely moves decisions under shared seeds
        for a, b in zip(op, he):
            assert abs(a.ber - b.ber) < 0.05

    def test_hardware_subset_gives_same_rows(self):
        # error_limit 50 stops OP and HE4 after different realization
        # counts at some power points
        cfg = SimConfig(**{**TINY, "hardware": ("OP", "HE4"),
                           "powers_dbm": (-20.0, -10.0, 10.0),
                           "realizations": 12, "symbols_per_realization": 16,
                           "error_limit": 50})

        def rows(c):
            return [(r.geometry, r.hardware, r.power_dbm, r.bit_errors,
                     r.bits_total, r.realizations_used) for r in run_sweep(c)]

        joint = rows(cfg)
        alone = (rows(dataclasses.replace(cfg, hardware=("OP",)))
                 + rows(dataclasses.replace(cfg, hardware=("HE4",))))
        assert joint == [row for g in cfg.geometries for row in alone
                         if row[0] == g]
        used = {row[:3]: row[5] for row in joint}
        assert any(used[g, "OP", p] != used[g, "HE4", p]
                   for g in cfg.geometries for p in cfg.powers_dbm)

    def test_hardware_order_gives_same_rows(self):
        # each model's combined noise comes from its own R factor, so
        # listing HE8 first changes no row
        cfg = SimConfig(**{**TINY, "hardware": ("OP", "HE8"),
                           "powers_dbm": (-20.0, 0.0),
                           "realizations": 4, "symbols_per_realization": 16})
        forward = dict(_rows(run_sweep(cfg)))
        backward = _rows(run_sweep(dataclasses.replace(
            cfg, hardware=("HE8", "OP"))))
        assert backward == [((g, (2, 4), h, p), forward[g, (2, 4), h, p])
                            for g in cfg.geometries for h in ("HE8", "OP")
                            for p in cfg.powers_dbm]

    def test_fewer_receive_elements_than_branches(self):
        # 4 elements, B = 8: R is (4, 8), so only 4 of the 8 branch
        # noise columns reach the combiners
        cfg = SimConfig(geometries=("ULA", "URA"), signalings=((8, 4),),
                        hardware=("OP", "HE4"), powers_dbm=(-10.0, 20.0),
                        realizations=3, symbols_per_realization=8, seed=2,
                        n_elements=4)
        serial = run_sweep(cfg)
        assert len(serial) == 2 * 2 * 2
        assert all(r.bits_total == 3 * 8 * 5 for r in serial)
        assert (results_to_csv(serial)
                == results_to_csv(run_sweep(cfg, workers=2)))

    @pytest.mark.parametrize("powers", [(10.0, -20.0), (-10.0,),
                                        (10.0, -10.0, -20.0)])
    def test_power_subset_and_order_give_same_rows(self, powers):
        # the test_hardware_subset_gives_same_rows grid with error_limit
        # 53, which stops OP and HE4 after different realization counts
        # at a power point of every parametrization
        cfg = SimConfig(**{**TINY, "hardware": ("OP", "HE4"),
                           "powers_dbm": (-20.0, -10.0, 10.0),
                           "realizations": 12, "symbols_per_realization": 16,
                           "error_limit": 53})

        def rows(c):
            return [((r.geometry, r.hardware, r.power_dbm),
                     (r.bit_errors, r.bits_total, r.realizations_used))
                    for r in run_sweep(c)]

        full = dict(rows(cfg))
        subset = rows(dataclasses.replace(cfg, powers_dbm=powers))
        assert subset == [((g, h, p), full[g, h, p]) for g in cfg.geometries
                          for h in cfg.hardware for p in powers]
        assert any(full[g, "OP", p][2] != full[g, "HE4", p][2]
                   for g in cfg.geometries for p in powers)

    def test_rows_do_not_depend_on_the_block_size(self, monkeypatch):
        # 16 channel uses, 128 detector metric entries and 16 x 16 = 256
        # channel entries per realization: blocks of all 10 realizations,
        # of 1, and of 3 (which does not divide 10) set by either block
        # bound; detector chunks of 1 and 3 in blocks of 10, and of 2 in
        # blocks of 5; error_limit 80 stops points after 4, 5 and 7
        # realizations, inside blocks of 3 and of 5
        cfg = SimConfig(**{**TINY, "hardware": ("OP", "HE4"),
                           "powers_dbm": (-20.0, -10.0, 10.0),
                           "realizations": 10, "symbols_per_realization": 16,
                           "error_limit": 80})
        assert harness.BLOCK_USES // 16 >= cfg.realizations
        assert harness.BLOCK_ELEMENTS // 128 >= cfg.realizations
        assert harness.BLOCK_CHANNEL_ELEMENTS // 256 >= cfg.realizations

        def rows(**bounds):
            with monkeypatch.context() as patch:
                for name, value in bounds.items():
                    patch.setattr(harness, name, value)
                results = run_sweep(cfg)
            return results_to_csv(results), [
                (r.error_squares, r.realizations_used) for r in results]

        default = rows()
        assert rows(BLOCK_USES=16) == default
        assert rows(BLOCK_USES=3 * 16) == default
        assert rows(BLOCK_CHANNEL_ELEMENTS=3 * 256) == default
        assert rows(BLOCK_ELEMENTS=128) == default
        assert rows(BLOCK_ELEMENTS=3 * 128) == default
        assert rows(BLOCK_USES=5 * 16, BLOCK_ELEMENTS=2 * 128) == default
        assert {used % 3 for _, used in default[1] if used < 10} == {1, 2}

    @pytest.mark.parametrize("signalings", [((2, 4),), ((2, 4), (4, 8))])
    def test_paths_drawn_once_per_realization(self, monkeypatch, signalings):
        # the serial sweep is one task of every pair: realization r's
        # paths are drawn once and realized once on each of the 4
        # layouts, whatever the number of signalings sharing a layout
        calls = dict.fromkeys(("draw_paths", "sample_realization"), 0)

        def counted(name):
            call = getattr(harness, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return call(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(harness, name, counted(name))
        cfg = SimConfig(signalings=signalings, hardware=("OP",),
                        powers_dbm=(0.0,), realizations=5,
                        symbols_per_realization=4, error_limit=10 ** 9)
        assert len(run_sweep(cfg)) == 4 * len(signalings)
        assert calls == {"draw_paths": 5, "sample_realization": 20}

    def test_each_pair_counts_in_its_own_blocks(self, monkeypatch):
        # at 128 uses per realization a task of 2x2 and 4x8 draws one
        # block of all 10 realizations and transmits it in one call per
        # pair; the detector takes 2x2's block in one chunk and 4x8's in
        # chunks of 8 and 2 realizations
        assert harness.BLOCK_USES // 128 >= 10
        assert harness.BLOCK_ELEMENTS // (128 * 2 * 2) >= 10
        assert harness.BLOCK_ELEMENTS // (128 * 4 * 8) == 8
        calls = []

        def recorded(name, call):
            def wrapper(first, *args):
                calls.append((name, first.shape[-1], len(first)))
                return call(first, *args)
            return wrapper

        for name in ("transmit", "detect"):
            monkeypatch.setattr(harness, name,
                                recorded(name, getattr(harness, name)))
        cfg = SimConfig(geometries=("ULA",), signalings=((2, 2), (4, 8)),
                        hardware=("OP",), powers_dbm=(0.0,), realizations=10,
                        symbols_per_realization=128, n_elements=16,
                        error_limit=10 ** 9)
        run_sweep(cfg)
        assert calls == [("transmit", 2, 10), ("detect", 2, 10),
                         ("transmit", 4, 10), ("detect", 4, 8),
                         ("detect", 4, 2)]

    def test_block_channels_fit_the_task_buffer(self, monkeypatch):
        # at one use per realization the channel bound sets the block: the
        # task's buffer holds K matrices of its largest array (ULA, 82
        # elements), so the URA (81) counts ULA's blocks of 155, not the
        # 159 that would fit its own matrices
        assert harness.BLOCK_CHANNEL_ELEMENTS // (82 * 82) == 155
        assert harness.BLOCK_CHANNEL_ELEMENTS // (81 * 81) == 159
        assert harness.BLOCK_USES >= 160
        shapes = []
        transmit = harness.transmit

        def recorded(f, w, h, *args):
            shapes.append(h.shape)
            return transmit(f, w, h, *args)

        monkeypatch.setattr(harness, "transmit", recorded)
        cfg = SimConfig(geometries=("ULA", "URA"), hardware=("OP",),
                        powers_dbm=(0.0,), realizations=160,
                        symbols_per_realization=1, error_limit=10 ** 9)
        run_sweep(cfg)
        assert shapes == [(155, 82, 82), (155, 81, 81),
                          (5, 82, 82), (5, 81, 81)]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_group_rows_equal_each_pair_swept_alone(self, workers):
        # at 256 uses per realization a task draws blocks of 8 and 2
        # realizations; the detector takes 2x2's blocks whole and 4x8's
        # in chunks of 4, 4 and 2.  error_limit 600 stops 2x2 points
        # after 3 realizations and 4x8 points after 1, 3 and 7, inside
        # blocks and chunks.  Workers 1, 2 and 3 make tasks of 4, 2 + 2
        # and 2 + 1 + 1 pairs
        cfg = SimConfig(geometries=("ULA", "URA"),
                        signalings=((2, 2), (4, 8)), hardware=("OP", "HE4"),
                        powers_dbm=(-20.0, -10.0, 10.0), realizations=10,
                        symbols_per_realization=256, seed=17, n_elements=16,
                        error_limit=600)
        assert harness.BLOCK_USES // 256 == 8
        assert harness.BLOCK_ELEMENTS // (256 * 4 * 8) == 4
        assert harness.BLOCK_ELEMENTS // (256 * 2 * 2) >= 8
        alone = [row for g, s in product(cfg.geometries, cfg.signalings)
                 for row in _rows(run_sweep(dataclasses.replace(
                     cfg, geometries=(g,), signalings=(s,))))]
        assert _rows(run_sweep(cfg, workers=workers)) == alone
        used = {counts[2] for _, counts in alone}
        assert used & {1, 2, 3} and used & {5, 6, 7}

    def test_golden_counts(self):
        # (geometry, B, M, hardware, P_dBm, bit_errors, realizations_used)
        # of a fixed sweep with early stopping live; any change to the
        # channel, codebook, payload, noise or detector shows here
        cfg = SimConfig(geometries=("URA", "ULA"),
                        signalings=((2, 4), (4, 8)), hardware=("OP", "HE4"),
                        powers_dbm=(-10.0, 10.0, 30.0), realizations=6,
                        symbols_per_realization=16, seed=11, n_elements=16,
                        error_limit=60)
        rows = [(r.geometry, r.order, r.constellation, r.hardware,
                 r.power_dbm, r.bit_errors, r.realizations_used)
                for r in run_sweep(cfg)]
        assert rows == [
            ("URA", 2, 4, "OP", -10.0, 60, 2),
            ("URA", 2, 4, "OP", 10.0, 0, 6),
            ("URA", 2, 4, "OP", 30.0, 0, 6),
            ("URA", 2, 4, "HE4", -10.0, 60, 2),
            ("URA", 2, 4, "HE4", 10.0, 2, 6),
            ("URA", 2, 4, "HE4", 30.0, 0, 6),
            ("URA", 4, 8, "OP", -10.0, 78, 2),
            ("URA", 4, 8, "OP", 10.0, 20, 6),
            ("URA", 4, 8, "OP", 30.0, 0, 6),
            ("URA", 4, 8, "HE4", -10.0, 84, 2),
            ("URA", 4, 8, "HE4", 10.0, 30, 6),
            ("URA", 4, 8, "HE4", 30.0, 15, 6),
            ("ULA", 2, 4, "OP", -10.0, 87, 4),
            ("ULA", 2, 4, "OP", 10.0, 2, 6),
            ("ULA", 2, 4, "OP", 30.0, 0, 6),
            ("ULA", 2, 4, "HE4", -10.0, 66, 3),
            ("ULA", 2, 4, "HE4", 10.0, 25, 6),
            ("ULA", 2, 4, "HE4", 30.0, 16, 6),
            ("ULA", 4, 8, "OP", -10.0, 86, 2),
            ("ULA", 4, 8, "OP", 10.0, 60, 5),
            ("ULA", 4, 8, "OP", 30.0, 0, 6),
            ("ULA", 4, 8, "HE4", -10.0, 78, 2),
            ("ULA", 4, 8, "HE4", 10.0, 70, 3),
            ("ULA", 4, 8, "HE4", 30.0, 61, 3),
        ]

    def test_shadowing_is_a_power_shift(self):
        # a draw's shadow s scales every path gain by 10**(-s / 20), so at
        # power P it makes the errors of the unshadowed draw at P - s.
        # Seed 9 draws s = 13.2 dB; every count here stays the same with
        # P - s moved 1e-6 dB either way, so none sits on a near tie
        cfg = SimConfig(geometries=("ULA", "URA", "UCA", "CCA"),
                        hardware=("OP", "HE8"),
                        powers_dbm=(-25.0, -20.0, -15.0), realizations=1,
                        symbols_per_realization=200, seed=9)
        shadow = draw_paths(cfg.channel, [9, 0, 0]).shadow_db
        flat = dataclasses.replace(
            cfg, channel=ChannelConfig(shadowing_std_db=0.0),
            powers_dbm=tuple(p - shadow for p in cfg.powers_dbm))
        shadowed, unshadowed = (
            [(r.geometry, r.hardware, r.bit_errors, r.bits_total)
             for r in run_sweep(c)] for c in (cfg, flat))
        assert shadow > 10.0 and all(row[2] for row in shadowed)
        assert shadowed == unshadowed

    def test_noise_floor_is_a_power_shift(self, monkeypatch):
        # only P - N0 reaches the detector: the noise floor and every power
        # raised by 30 dB give the same rows.  At seed 9 every count here
        # stays the same with the powers moved 1e-6 dB either way, so none
        # sits on a near tie
        cfg = SimConfig(geometries=("ULA", "URA", "UCA", "CCA"),
                        hardware=("OP", "HE8"),
                        powers_dbm=(-25.0, -20.0, -15.0), realizations=1,
                        symbols_per_realization=200, seed=9)
        raised = dataclasses.replace(
            cfg, powers_dbm=tuple(p + 30.0 for p in cfg.powers_dbm))
        at_floor = [(r.geometry, r.hardware, r.bit_errors, r.bits_total)
                    for r in run_sweep(cfg)]
        monkeypatch.setattr(harness, "NOISE_DBM", harness.NOISE_DBM + 30.0)
        assert all(row[2] for row in at_floor)
        assert [(r.geometry, r.hardware, r.bit_errors, r.bits_total)
                for r in run_sweep(raised)] == at_floor

    def test_geometry_rows_do_not_depend_on_the_other_geometries(self):
        # seeded by grid position, URA read 525 errors in this grid and
        # 519 when it ran alone
        cfg = SimConfig(geometries=("ULA", "URA", "UCA"),
                        signalings=((2, 4),), hardware=("OP",),
                        powers_dbm=(-10.0,), realizations=20,
                        symbols_per_realization=50, seed=5, n_elements=16)
        in_grid = [r for r in run_sweep(cfg) if r.geometry == "URA"]
        alone = run_sweep(dataclasses.replace(cfg, geometries=("URA",)))
        assert results_to_csv(in_grid) == results_to_csv(alone)

    @settings(max_examples=20, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_property_rows_do_not_depend_on_grid_subset_order_or_workers(
            self, full_grid, data):
        cfg, full = full_grid
        geometries = tuple(data.draw(st.permutations(cfg.geometries))[
            :data.draw(st.integers(1, len(cfg.geometries)))])
        signalings = tuple(data.draw(st.permutations(cfg.signalings))[
            :data.draw(st.integers(1, len(cfg.signalings)))])
        workers = data.draw(st.integers(1, 3))
        sub = dataclasses.replace(cfg, geometries=geometries,
                                  signalings=signalings)
        assert _rows(run_sweep(sub, workers=workers)) == [
            (key, full[key]) for key in
            product(geometries, signalings, cfg.hardware, cfg.powers_dbm)]

    def test_pool_with_more_tasks_than_workers(self):
        cfg = SimConfig(**{**TINY, "geometries": ("ULA", "URA", "UCA"),
                           "hardware": ("OP", "HE4")})
        assert (results_to_csv(run_sweep(cfg, workers=2))
                == results_to_csv(run_sweep(cfg, workers=1)))

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_rejected(self, workers):
        with pytest.raises(ValueError,
                           match=f"workers must be at least 1, got {workers}"):
            run_sweep(SimConfig(**TINY), workers=workers)

    @pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
    @pytest.mark.parametrize("workers,geometries", [
        (2, ("ULA", "URA")), (8, ("ULA", "URA", "UCA"))])
    def test_pool_workers_cap_blas_threads(self, monkeypatch, workers,
                                           geometries, method):
        _require_openblas()
        parent = _blas_thread_counts()
        numpy_paths = _numpy_openblas_paths()
        assert numpy_paths, "numpy's OpenBLAS library not found"
        assert numpy_paths <= dict(parent).keys()
        # each worker runs the task stub, which reports its BLAS thread
        # counts instead of sweeping; a forked worker inherits this
        # process's cap and every library it maps, one started by spawn
        # or forkserver maps what its imports load and sets its own cap
        monkeypatch.setattr(harness, "_run_task", _blas_thread_report)
        _start_pool_by(monkeypatch, method)
        cfg = SimConfig(**{**TINY, "geometries": geometries})
        reports = run_sweep(cfg, workers=workers)
        assert len(reports) == len(geometries)
        for report in reports:
            assert set(report.values()) == {1}
            assert numpy_paths <= report.keys() <= dict(parent).keys()
        assert _blas_thread_counts() == parent    # this process: untouched

    @pytest.mark.parametrize("workers,geometries", [
        (1, ("ULA", "URA")), (4, ("URA",))])
    @pytest.mark.parametrize("fails", [False, True],
                             ids=["task-returns", "task-raises"])
    def test_serial_sweep_caps_blas_threads(self, monkeypatch, workers,
                                            geometries, fails):
        _require_openblas()
        reports = []

        def task(*args):
            # the serial task runs in this process: it reports the BLAS
            # thread counts it sees instead of sweeping
            reports.extend(_blas_thread_report(*args))
            if fails:
                raise ZeroDivisionError("channel draw failed")
            return []

        monkeypatch.setattr(harness, "_run_task", task)
        cfg = SimConfig(**{**TINY, "geometries": geometries})
        with _numpy_blas_threads(2):
            caller = _blas_thread_counts()
            assert {dict(caller)[path]
                    for path in _numpy_openblas_paths()} == {2}
            if fails:
                with pytest.raises(ZeroDivisionError):
                    run_sweep(cfg, workers=workers)
            else:
                assert run_sweep(cfg, workers=workers) == []
            assert _blas_thread_counts() == caller
        assert len(reports) == 1
        assert set(reports[0].values()) == {1}
        assert _numpy_openblas_paths() <= reports[0].keys()

    def test_forked_pool_workers_start_single_threaded(self, monkeypatch):
        _require_openblas()
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc/self/task to count OS threads")
        # each forked worker reports its OS threads instead of sweeping;
        # a BLAS thread started while capping the worker would add to them.
        # 3 pairs on 2 workers make 2 tasks, of 2 pairs and of 1
        monkeypatch.setattr(harness, "_run_task", _os_thread_count)
        _start_pool_by(monkeypatch, "fork")
        cfg = SimConfig(**{**TINY, "geometries": ("ULA", "URA", "UCA")})
        assert run_sweep(cfg, workers=2) == [1, 1]

    def test_task_failure_names_its_curve(self, monkeypatch):
        def fail(*args, **kwargs):
            raise ZeroDivisionError("channel draw failed")

        monkeypatch.setattr(harness, "sample_realization", fail)
        cfg = SimConfig(**{**TINY, "geometries": ("URA",),
                           "signalings": ((4, 2),)})
        with pytest.raises(RuntimeError,
                           match=r"^URA 4x2: channel draw failed$") as info:
            run_sweep(cfg)
        assert isinstance(info.value.__cause__, ZeroDivisionError)

    def test_failed_pool_sweep_restores_blas_threads(self, monkeypatch):
        _require_openblas()

        def fail(*args, **kwargs):
            raise ZeroDivisionError("channel draw failed")

        monkeypatch.setattr(harness, "sample_realization", fail)
        _start_pool_by(monkeypatch, "fork")
        parent = _blas_thread_counts()
        assert parent, "numpy's OpenBLAS library not found in /proc/self/maps"
        with pytest.raises(RuntimeError, match="channel draw failed"):
            run_sweep(SimConfig(**TINY), workers=2)
        assert _blas_thread_counts() == parent

    def test_elapsed_splits_task_time_over_its_points(self):
        cfg = SimConfig(**{**TINY, "hardware": ("OP", "HE4")})
        started = time.perf_counter()
        results = run_sweep(cfg)
        wall = time.perf_counter() - started
        assert 0.0 < sum(r.elapsed_s for r in results) <= wall
        for g in cfg.geometries:
            assert len({r.elapsed_s for r in results if r.geometry == g}) == 1

    def test_matches_per_symbol_link_pipeline(self):
        # rebuild one grid point symbol by symbol, with an exhaustive
        # search over the B x M hypotheses as the detector
        cfg = SimConfig(geometries=("ULA",), signalings=((2, 4),),
                        hardware=("OP",), powers_dbm=(-15.0,),
                        realizations=4, symbols_per_realization=16,
                        seed=3, n_elements=8)
        result = run_sweep(cfg)[0]

        spec = scenario_geometry("ULA", WAVELENGTH, 8)
        positions = spec.positions
        gain = db_to_linear(array_gain_db(8))
        amplitude = np.sqrt(dbm_to_watt(-15.0)) * gain * gain
        points = psk_constellation(4)
        sigma = np.sqrt(dbm_to_watt(harness.NOISE_DBM) / 2.0)
        total = 0
        for r in range(4):
            realization = sample_realization(
                draw_paths(cfg.channel, [3, r, 0]), positions)
            h = realization.matrix
            cb = build_codebook(realization, 2)
            hyp = [cb.combiners[:, c].conj() @ h @ cb.beamformers[:, c]
                   for c in range(2)]
            rng = np.random.default_rng(np.random.SeedSequence([3, r, 1]))
            x0 = rng.integers(0, 2, 16)
            x1 = rng.integers(0, 4, 16)
            # white branch-space noise through the R factor of W = QR
            branch = rng.normal(0, sigma, (16, 2)) + 1j * rng.normal(0, sigma, (16, 2))
            noise = branch @ np.linalg.qr(cb.combiners, mode="r").conj()
            for t in range(16):
                y = amplitude * (h @ cb.beamformers[:, x0[t]]) * points[x1[t]]
                z = cb.combiners.conj().T @ y + noise[t]
                best = None
                for c in range(2):
                    for s in range(4):
                        d = abs(z[c] - amplitude * hyp[c] * points[s]) ** 2
                        if best is None or d < best[0]:
                            best = (d, c, s)
                total += bin(x0[t] ^ best[1]).count("1")
                total += bin(x1[t] ^ best[2]).count("1")
        assert total == result.bit_errors


class TestRobustStandardError:
    # URA, OP, 0 dBm: BER 0.25, with most errors from a few bad channel
    # draws (the robust SE is 5.8 times the binomial one)
    CLUSTERED = SimConfig(geometries=("URA",), signalings=((2, 4),),
                          hardware=("OP",), powers_dbm=(0.0,),
                          realizations=8, symbols_per_realization=50, seed=5,
                          n_elements=16, error_limit=10 ** 9)

    def test_equals_standard_error_of_per_realization_counts(self):
        # realization r's count is the difference of the sweeps with r+1
        # and r realizations, since realization r has its own seed
        cfg = self.CLUSTERED
        totals = [0] + [run_sweep(dataclasses.replace(
            cfg, realizations=k))[0].bit_errors
            for k in range(1, cfg.realizations + 1)]
        counts = np.diff(totals)
        result = run_sweep(cfg)[0]
        assert result.error_squares == float(np.sum(counts ** 2))
        bits_per_realization = 50 * 3
        expected = (np.std(counts, ddof=1) / np.sqrt(cfg.realizations)
                    / bits_per_realization)
        assert result.se_robust == pytest.approx(expected, rel=1e-12)

    def test_clustered_errors_widen_the_standard_error(self):
        result = run_sweep(self.CLUSTERED)[0]
        assert result.bit_errors > 0
        assert result.se_robust > 3.0 * result.standard_error
        lo, hi = result.ci95
        assert lo == pytest.approx(max(0.0, result.ber
                                       - 1.96 * result.se_robust))
        assert hi == pytest.approx(result.ber + 1.96 * result.se_robust)

    def test_one_realization_has_no_robust_error(self):
        result = run_sweep(dataclasses.replace(self.CLUSTERED,
                                               realizations=1))[0]
        assert np.isnan(result.se_robust)
        assert all(np.isnan(bound) for bound in result.ci95)

    def test_interval_is_clipped_to_the_unit_range(self):
        # counts 10 and 0 over 100 bits each: BER 0.05, and the mean
        # count 5 has standard error 5, so SE 0.05 and BER - 1.96 SE < 0
        result = harness.BerResult(
            geometry="URA", order=2, constellation=4, hardware="OP",
            n_shifters=0, power_dbm=0.0, bit_errors=10, bits_total=200,
            seed=1, realizations_used=2, error_squares=100.0)
        assert result.se_robust == pytest.approx(0.05, rel=1e-12)
        assert result.ci95 == pytest.approx((0.0, 0.05 + 1.96 * 0.05))


class TestEmit:
    def test_csv_header(self):
        assert results_to_csv([]) == (
            "geometry,B,M,hardware,N_F,P_dBm,bits_total,bit_errors,ber,"
            "seed,se_robust,ci95_lo,ci95_hi\n")

    def test_empty_results_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            aggregate_and_emit([], tmp_path, SimConfig(**TINY))
        assert not (tmp_path / "ber_results.csv").exists()

    def test_csv_and_manifest_written(self, tmp_path):
        cfg = SimConfig(**{**TINY, "realizations": 1,
                           "symbols_per_realization": 2})
        results = run_sweep(cfg)
        csv_path, manifest_path = aggregate_and_emit(results, tmp_path, cfg)
        text = csv_path.read_text()
        assert text.startswith("geometry,B,M,hardware,N_F,P_dBm,")
        assert len(text.splitlines()) == len(results) + 1
        manifest = json.loads(manifest_path.read_text())
        assert manifest["config"]["seed"] == 7
        assert manifest["points"] == len(results)
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env = manifest["environment"]
        assert env["numpy"] == np.__version__
        assert env["blas"] == {"name": blas["name"],
                               "version": blas["version"]}
        assert env["cpus"] == _cpus()
        assert "workers" not in env and "blas_threads" not in env

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_manifest_records_threads_and_workers(self, tmp_path, monkeypatch,
                                                  workers):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        cfg = SimConfig(**{**TINY, "realizations": 1,
                           "symbols_per_realization": 2})
        _, manifest_path = aggregate_and_emit(run_sweep(cfg), tmp_path, cfg,
                                              workers=workers)
        env = json.loads(manifest_path.read_text())["environment"]
        assert env["thread_variables"] == {"OMP_NUM_THREADS": None,
                                           "OPENBLAS_NUM_THREADS": "3",
                                           "MKL_NUM_THREADS": None}
        assert env["workers"] == workers
        assert "blas_threads" not in env

    def test_manifest_records_element_counts(self, tmp_path):
        # the URA rounds n_elements to a square; the manifest shows it
        cfg = SimConfig(**{**TINY, "geometries": ("ULA", "URA", "UCA", "CCA"),
                           "n_elements": 82, "powers_dbm": (0.0,),
                           "realizations": 1, "symbols_per_realization": 2})
        _, manifest_path = aggregate_and_emit(run_sweep(cfg), tmp_path, cfg)
        manifest = json.loads(manifest_path.read_text())
        assert manifest["elements"] == {"ULA": 82, "URA": 81, "UCA": 82,
                                        "CCA": 82}

    def test_distinct_powers_print_distinctly(self, tmp_path):
        # two powers that agree to 6 significant digits keep their own
        # CSV cell and manifest entry
        cfg = SimConfig(geometries=("ULA",), powers_dbm=(-10.0, -10.0000001),
                        realizations=2, symbols_per_realization=4,
                        n_elements=16)
        results = run_sweep(cfg)
        csv_path, manifest_path = aggregate_and_emit(results, tmp_path, cfg)
        rows = csv_path.read_text().splitlines()[1:]
        powers = {row.split(",")[5] for row in rows}
        assert powers == {"-10", "-10.0000001"}
        used = json.loads(manifest_path.read_text())["realizations_used"]
        assert len(used) == len(results)

    def test_same_config_same_bytes(self, tmp_path):
        cfg = SimConfig(**{**TINY, "realizations": 2})
        a = aggregate_and_emit(run_sweep(cfg), tmp_path / "a",
                               cfg)[0].read_text()
        b = aggregate_and_emit(run_sweep(cfg), tmp_path / "b",
                               cfg)[0].read_text()
        assert a == b


class TestConfigFile:
    def test_full_roundtrip(self, tmp_path):
        text = """
        # scenario
        geometries = URA, CCA
        signalings = 2x4, 4x4
        hardware = OP, HE8
        powers_dbm = -20:0:10
        realizations = 5
        symbols_per_realization = 9
        seed = 42
        n_elements = 82
        clusters = 8
        paths_per_cluster = 10
        angular_spread_deg = 7.5
        shadowing_std_db = 8.7
        """
        path = tmp_path / "sim.cfg"
        path.write_text(text)
        cfg = load_config(path)
        assert cfg.geometries == ("URA", "CCA")
        assert cfg.signalings == ((2, 4), (4, 4))
        assert cfg.hardware == ("OP", "HE8")
        assert cfg.powers_dbm == (-20.0, -10.0, 0.0)
        assert cfg.realizations == 5 and cfg.seed == 42
        assert cfg.channel.clusters == 8
        assert cfg.channel.angular_spread_deg == 7.5
        assert cfg.channel.shadowing_std_db == 8.7

    @pytest.mark.parametrize("text,powers", [
        ("0:1:0.1", (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)),
        ("-0.5:0.5:0.25", (-0.5, -0.25, 0.0, 0.25, 0.5)),
        ("-20:10:5", (-20.0, -15.0, -10.0, -5.0, 0.0, 5.0, 10.0)),
    ])
    def test_power_range_values_are_the_typed_decimals(self, tmp_path, text,
                                                       powers):
        # no float accumulation noise such as 0.30000000000000004
        path = tmp_path / "sim.cfg"
        path.write_text(f"powers_dbm = {text}\n")
        assert load_config(path).powers_dbm == powers

    @settings(max_examples=30, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_property_roundtrip_every_key(self, tmp_path_factory, data):
        floats = st.floats(-1e3, 1e3)
        clusters = data.draw(st.integers(1, 16))
        n_elements = data.draw(st.sampled_from([4, 16, 50, 82]))
        kinds = ["ULA", "URA", "UCA"] + (["CCA"] if n_elements == 82 else [])
        sim = dict(
            geometries=tuple(data.draw(st.lists(st.sampled_from(kinds),
                                                min_size=1, max_size=4,
                                                unique=True))),
            signalings=tuple(data.draw(st.lists(st.tuples(
                st.sampled_from([b for b in (1, 2, 4, 8, 16)
                                 if b <= clusters]),
                st.sampled_from([2, 4, 8, 16])), min_size=1, max_size=3,
                unique=True))),
            hardware=tuple(data.draw(st.lists(st.sampled_from(
                ["OP"] + [f"HE{n}" for n in range(2, 54)]),
                min_size=1, max_size=3, unique=True))),
            powers_dbm=tuple(data.draw(st.lists(floats, min_size=1,
                                                max_size=5, unique=True))),
            realizations=data.draw(st.integers(1, 10 ** 6)),
            symbols_per_realization=data.draw(st.integers(1, 10 ** 6)),
            seed=data.draw(st.integers(0, 2 ** 63)),
            n_elements=n_elements,
            error_limit=data.draw(st.integers(1, 10 ** 9)))
        channel = dict(
            clusters=clusters,
            angular_spread_deg=data.draw(st.floats(1e-3, 90.0)),
            paths_per_cluster=data.draw(st.integers(1, 50)),
            shadowing_std_db=data.draw(st.floats(0.0, 20.0)))

        def text(value):
            if isinstance(value, tuple):
                return ", ".join(map(text, value))
            return repr(value) if isinstance(value, float) else str(value)

        entries = {**sim, **channel,
                   "signalings": tuple(f"{b}x{m}"
                                       for b, m in sim["signalings"])}
        lines = [f"{key} = {text(value)}" for key, value in entries.items()]
        path = tmp_path_factory.mktemp("cfg") / "sim.cfg"
        path.write_text("\n".join(lines) + "\n")
        expected = SimConfig(channel=ChannelConfig(**channel), **sim)
        assert load_config(path) == expected

    def test_readme_example_sets_every_channel_key(self, tmp_path):
        # README.md's ini block, cut out as the CI step "README config
        # example" cuts it, so adding or removing a channel key without
        # documenting it fails here
        readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
        text = "".join(re.findall(r"^```ini\n(.*?)^```$", readme, re.M | re.S))
        path = tmp_path / "readme.cfg"
        path.write_text(text)
        load_config(path)
        keys = {line.split("=")[0].strip() for line in text.splitlines()
                if "=" in line.split("#")[0]}
        assert set(harness._CHANNEL_KEYS) <= keys

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("geometries = ULA\nbogus_key = 3\n")
        with pytest.raises(ValueError, match=r"bad\.cfg:2: bogus_key: unknown"):
            load_config(path)

    def test_zero_power_step_names_key_and_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("geometries = ULA\npowers_dbm = 0:10:0\n")
        with pytest.raises(ValueError, match=r"bad\.cfg:2: powers_dbm"):
            load_config(path)

    def test_unrealizable_bank_names_key_and_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("hardware = OP, HE70\n")
        with pytest.raises(ValueError, match=r"bad\.cfg:1: hardware: .*HE70"):
            load_config(path)

    @pytest.mark.parametrize("line,message", [
        ("error_limit = 0", "error_limit must be at least 1"),
        ("seed = -1", "seed must be at least 0"),
        ("powers_dbm = -10, inf", "powers_dbm must be finite, got inf"),
        ("carrier_hz = 28e9", "unknown key"),
        ("tx_position = 25, 25, 9", "unknown key"),
        ("rx_position = 25, 175, 9", "unknown key"),
        ("noise_dbm = -90", "unknown key"),
        ("pathloss_intercept_db = 72", "unknown key"),
        ("pathloss_exponent = 2.92", "unknown key"),
        ("distance_m = 150", "unknown key"),
        *(pytest.param(f"distance_m = {v}", "unknown key",
                       id=f"distance_m = {v}-distance_m must not be set")
          for v in ("0", "-1", "nan")),
        ("angular_spread_deg = nan",
         "angular_spread_deg must be finite, got nan"),
        ("shadowing_std_db = nan", "shadowing_std_db must be finite, got nan"),
        ("powers_dbm = 0:1", "powers_dbm range must be lo:hi:step, got '0:1'"),
        ("powers_dbm = 0:1:2:3",
         "powers_dbm range must be lo:hi:step, got '0:1:2:3'"),
        ("powers_dbm = abc",
         "powers_dbm must be lo:hi:step or a comma list of numbers, "
         "got 'abc'"),
        ("powers_dbm = 0:10:0", "powers_dbm range '0:10:0' has a zero step"),
        ("powers_dbm = 10:0:1", "powers_dbm range '10:0:1' is empty"),
        ("powers_dbm = 0:10:2:x",
         "powers_dbm range must be lo:hi:step, got '0:10:2:x'"),
        ("signalings = 3x4", "B and M must be powers of two, got 3x4"),
        ("signalings = 2x4x8", "signaling must be BxM, got '2x4x8'"),
        ("signalings = 2x4,", "signaling must be BxM, got ''"),
        ("clusters = 0", "clusters must be at least 1, got 0"),
        ("geometries = XYZ", "'XYZ' is not a valid ArrayKind"),
        ("geometries = URA", "already set on line 1"),
        ("signalings = 2x4, 4x4, 2x4", r"signalings repeats \(2, 4\)"),
        ("hardware = HE8, OP, he(8)", r"hardware repeats 'he\(8\)'"),
        ("powers_dbm = -10, 0, -10", "powers_dbm repeats -10.0"),
        ("hardware = HE2000", "hardware HE2000: 2000 fixed phase shifters"),
        ("signalings = 1x1", "signalings 1x1 carries no bits"),
    ])
    def test_bad_value_names_key_and_line(self, tmp_path, line, message):
        path = tmp_path / "bad.cfg"
        path.write_text(f"geometries = ULA\n{line}\n")
        key = line.split()[0]
        with pytest.raises(ValueError, match=rf"bad\.cfg:2: {key}: {message}"):
            load_config(path)

    @pytest.mark.parametrize("lines,message", [
        ("signalings = 16x4", "signalings 16x4: B must not exceed clusters = 8"),
        ("clusters = 2\nsignalings = 4x4",
         "signalings 4x4: B must not exceed clusters = 2"),
        ("geometries = CCA\nn_elements = 16",
         "geometry CCA with n_elements=16: CCA scenario layout is fixed"),
    ])
    def test_cross_key_error_names_file_and_both_keys(self, tmp_path, lines,
                                                      message):
        path = tmp_path / "bad.cfg"
        path.write_text(lines + "\n")
        with pytest.raises(ValueError, match=rf"^.*bad\.cfg: {message}"):
            load_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("geometries ULA\n")
        with pytest.raises(ValueError, match="key = value"):
            load_config(path)

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbfseed = 3\n")
        assert load_config(path).seed == 3
