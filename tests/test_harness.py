import ctypes
import dataclasses
import functools
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cimsim import harness
from cimsim.arrays import element_positions, scenario_geometry
from cimsim.channel import ChannelConfig, sample_realization
from cimsim.codebook import build_codebook
from cimsim.harness import (HardwareSpec, SimConfig, aggregate_and_emit,
                            load_config, results_to_csv, run_sweep)
from cimsim.link import (array_gain_db, db_to_linear, dbm_to_watt,
                         psk_constellation)

TINY = dict(geometries=("ULA", "URA"), signalings=((2, 4),), hardware=("OP",),
            powers_dbm=(-20.0, -10.0), realizations=3,
            symbols_per_realization=8, seed=7, n_elements=16)


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


def _os_thread_count(*_task) -> list[int]:
    """OS threads of this process, as a one-row task result."""
    return [len(os.listdir("/proc/self/task"))]


def _require_openblas() -> None:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in str(blas.get("name")).lower():
        pytest.skip("numpy is not built against OpenBLAS")


def _fork_pool(monkeypatch) -> None:
    """Make the harness start its pool workers by fork."""
    monkeypatch.setattr(harness, "ProcessPoolExecutor", functools.partial(
        ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))


class TestHardwareSpec:
    @pytest.mark.parametrize("token,kind,nf", [
        ("OP", "OP", 0), ("op", "OP", 0), ("HE8", "HE", 8),
        ("he4", "HE", 4), ("HE(6)", "HE", 6),
    ])
    def test_parse(self, token, kind, nf):
        spec = HardwareSpec.parse(token)
        assert (spec.kind, spec.n_shifters) == (kind, nf)

    @pytest.mark.parametrize("token,message", [
        ("XX", "unknown hardware token: 'XX'"),
        ("HE1", "hardware HE1: need at least two"),
        ("HE", "unknown hardware token: 'HE'"),
        ("HEx", "unknown hardware token: 'HEx'"),
    ], ids=["XX", "HE1", "HE", "HEx"])
    def test_parse_rejects(self, token, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            HardwareSpec.parse(token)


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
    ])
    def test_invalid_configs_raise(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**{**dict(), **kwargs})

    @pytest.mark.parametrize("key,value,shown", [
        ("powers_dbm", (np.nan,), "nan"),
        ("powers_dbm", (-10.0, np.inf), "inf"),
        ("noise_dbm", np.inf, "inf"),
        ("noise_dbm", -np.inf, "-inf"),
    ])
    def test_non_finite_values_rejected(self, key, value, shown):
        with pytest.raises(ValueError,
                           match=f"^{key} must be finite, got {shown}$"):
            SimConfig(**{key: value})

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
    def test_noiseless_sweep_has_zero_errors(self):
        cfg = SimConfig(**{**TINY, "noise_dbm": -10_000.0,
                           "realizations": 1, "symbols_per_realization": 4})
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
        # error_limit 40 stops OP and HE4 after different realization
        # counts at some ULA power points
        cfg = SimConfig(**{**TINY, "hardware": ("OP", "HE4"),
                           "powers_dbm": (-20.0, -10.0, 10.0),
                           "realizations": 12, "symbols_per_realization": 16,
                           "error_limit": 40})

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

    @pytest.mark.parametrize("powers", [(10.0, -20.0), (-10.0,),
                                        (10.0, -10.0, -20.0)])
    def test_power_subset_and_order_give_same_rows(self, powers):
        # the test_hardware_subset_gives_same_rows grid: error_limit 40
        # stops OP and HE4 after different realization counts
        cfg = SimConfig(**{**TINY, "hardware": ("OP", "HE4"),
                           "powers_dbm": (-20.0, -10.0, 10.0),
                           "realizations": 12, "symbols_per_realization": 16,
                           "error_limit": 40})

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
            ("URA", 2, 4, "OP", -10.0, 69, 4),
            ("URA", 2, 4, "OP", 10.0, 1, 6),
            ("URA", 2, 4, "OP", 30.0, 0, 6),
            ("URA", 2, 4, "HE4", -10.0, 70, 4),
            ("URA", 2, 4, "HE4", 10.0, 16, 6),
            ("URA", 2, 4, "HE4", 30.0, 12, 6),
            ("URA", 4, 8, "OP", -10.0, 65, 3),
            ("URA", 4, 8, "OP", 10.0, 9, 6),
            ("URA", 4, 8, "OP", 30.0, 0, 6),
            ("URA", 4, 8, "HE4", -10.0, 61, 2),
            ("URA", 4, 8, "HE4", 10.0, 34, 6),
            ("URA", 4, 8, "HE4", 30.0, 17, 6),
            ("ULA", 2, 4, "OP", -10.0, 60, 4),
            ("ULA", 2, 4, "OP", 10.0, 4, 6),
            ("ULA", 2, 4, "OP", 30.0, 0, 6),
            ("ULA", 2, 4, "HE4", -10.0, 60, 4),
            ("ULA", 2, 4, "HE4", 10.0, 8, 6),
            ("ULA", 2, 4, "HE4", 30.0, 0, 6),
            ("ULA", 4, 8, "OP", -10.0, 72, 3),
            ("ULA", 4, 8, "OP", 10.0, 30, 6),
            ("ULA", 4, 8, "OP", 30.0, 0, 6),
            ("ULA", 4, 8, "HE4", -10.0, 81, 3),
            ("ULA", 4, 8, "HE4", 10.0, 50, 6),
            ("ULA", 4, 8, "HE4", 30.0, 31, 6),
        ]

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

    @pytest.mark.parametrize("workers,geometries", [
        (2, ("ULA", "URA")), (8, ("ULA", "URA", "UCA"))])
    def test_pool_workers_cap_blas_threads(self, monkeypatch, workers,
                                           geometries):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if "openblas" not in str(blas.get("name")).lower():
            pytest.skip("numpy is not built against OpenBLAS")
        parent = _blas_thread_counts()
        assert parent, "numpy's OpenBLAS library not found in /proc/self/maps"
        # each forked worker runs the task stub, which reports its BLAS
        # thread counts instead of sweeping
        monkeypatch.setattr(harness, "_run_task", _blas_thread_counts)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
        cfg = SimConfig(**{**TINY, "geometries": geometries})
        counts = run_sweep(cfg, workers=workers)
        expected = max(1, _cpus() // min(workers, len(geometries)))
        assert counts == [(path, expected) for _ in geometries
                          for path, _count in parent]
        assert _blas_thread_counts() == parent    # this process: untouched

    def test_forked_pool_workers_start_single_threaded(self, monkeypatch):
        _require_openblas()
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc/self/task to count OS threads")
        # each forked worker reports its OS threads instead of sweeping;
        # a BLAS thread started while capping the worker would add to them
        monkeypatch.setattr(harness, "_run_task", _os_thread_count)
        _fork_pool(monkeypatch)
        cfg = SimConfig(**{**TINY, "geometries": ("ULA", "URA", "UCA")})
        assert run_sweep(cfg, workers=2) == [1, 1, 1]

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
        _fork_pool(monkeypatch)
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

        spec = scenario_geometry("ULA", cfg.channel.wavelength, 8)
        positions = element_positions(spec)
        gain = db_to_linear(array_gain_db(8))
        amplitude = np.sqrt(dbm_to_watt(-15.0)) * gain * gain
        points = psk_constellation(4)
        sigma = np.sqrt(dbm_to_watt(cfg.noise_dbm) / 2.0)
        total = 0
        for r in range(4):
            realization = sample_realization(
                cfg.channel, positions, positions,
                np.random.SeedSequence([3, 0, 0, r, 0]))
            h = realization.matrix
            cb = build_codebook(realization, 2)
            hyp = [cb.combiners[:, c].conj() @ h @ cb.beamformers[:, c]
                   for c in range(2)]
            rng = np.random.default_rng(np.random.SeedSequence([3, 0, 0, r, 1]))
            x0 = rng.integers(0, 2, 16)
            x1 = rng.integers(0, 4, 16)
            noise = rng.normal(0, sigma, (16, 8)) + 1j * rng.normal(0, sigma, (16, 8))
            for t in range(16):
                y = amplitude * (h @ cb.beamformers[:, x0[t]]) * points[x1[t]] \
                    + noise[t]
                z = cb.combiners.conj().T @ y
                best = None
                for c in range(2):
                    for s in range(4):
                        d = abs(z[c] - amplitude * hyp[c] * points[s]) ** 2
                        if best is None or d < best[0]:
                            best = (d, c, s)
                total += bin(x0[t] ^ best[1]).count("1")
                total += bin(x1[t] ^ best[2]).count("1")
        assert total == result.bit_errors


class TestEmit:
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
        # the serial path (one worker) leaves BLAS uncapped
        assert env["blas_threads"] == (
            None if workers == 1 else max(1, _cpus() // min(workers, 2)))

    def test_manifest_records_element_counts(self, tmp_path):
        # the URA rounds n_elements to a square; the manifest shows it
        cfg = SimConfig(**{**TINY, "geometries": ("ULA", "URA", "UCA", "CCA"),
                           "n_elements": 82, "powers_dbm": (0.0,),
                           "realizations": 1, "symbols_per_realization": 2})
        _, manifest_path = aggregate_and_emit(run_sweep(cfg), tmp_path, cfg)
        manifest = json.loads(manifest_path.read_text())
        assert manifest["elements"] == {"ULA": 82, "URA": 81, "UCA": 82,
                                        "CCA": 82}

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
        noise_dbm = -90
        clusters = 8
        paths_per_cluster = 10
        angular_spread_deg = 7.5
        pathloss_intercept_db = 72
        pathloss_exponent = 2.92
        shadowing_std_db = 8.7
        carrier_hz = 28e9
        tx_position = 25, 25, 9
        rx_position = 25, 175, 9
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
        assert np.rad2deg(cfg.channel.angular_spread_rad) == pytest.approx(7.5)

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
                                                min_size=1, max_size=4))),
            signalings=tuple(data.draw(st.lists(st.tuples(
                st.sampled_from([b for b in (1, 2, 4, 8, 16)
                                 if b <= clusters]),
                st.sampled_from([2, 4, 8, 16])), min_size=1, max_size=3))),
            hardware=tuple(data.draw(st.lists(st.sampled_from(
                ["OP"] + [f"HE{n}" for n in range(2, 54)]),
                min_size=1, max_size=3))),
            powers_dbm=tuple(data.draw(st.lists(floats, min_size=1,
                                                max_size=5))),
            realizations=data.draw(st.integers(1, 10 ** 6)),
            symbols_per_realization=data.draw(st.integers(1, 10 ** 6)),
            seed=data.draw(st.integers(0, 2 ** 63)),
            n_elements=n_elements,
            noise_dbm=data.draw(floats),
            error_limit=data.draw(st.integers(1, 10 ** 9)))
        spread_deg = data.draw(st.floats(1e-3, 90.0))
        channel = dict(
            clusters=clusters,
            paths_per_cluster=data.draw(st.integers(1, 50)),
            pathloss_intercept_db=data.draw(floats),
            pathloss_exponent=data.draw(floats),
            shadowing_std_db=data.draw(st.floats(0.0, 20.0)),
            carrier_hz=data.draw(st.floats(1e6, 1e12)),
            tx_position=data.draw(st.tuples(floats, floats, floats)),
            rx_position=data.draw(st.tuples(floats, floats, floats)))
        assume(not np.allclose(channel["tx_position"],
                               channel["rx_position"]))

        def text(value):
            if isinstance(value, tuple):
                return ", ".join(map(text, value))
            return repr(value) if isinstance(value, float) else str(value)

        entries = {**sim, **channel, "angular_spread_deg": spread_deg,
                   "signalings": tuple(f"{b}x{m}"
                                       for b, m in sim["signalings"])}
        lines = [f"{key} = {text(value)}" for key, value in entries.items()]
        path = tmp_path_factory.mktemp("cfg") / "sim.cfg"
        path.write_text("\n".join(lines) + "\n")
        expected = SimConfig(channel=ChannelConfig(
            angular_spread_rad=float(np.deg2rad(spread_deg)), **channel),
            **sim)
        assert load_config(path) == expected

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
        ("noise_dbm = nan", "noise_dbm must be finite, got nan"),
        ("powers_dbm = -10, inf", "powers_dbm must be finite, got inf"),
        ("carrier_hz = nan", "carrier_hz must be finite, got nan"),
        ("angular_spread_deg = nan",
         "angular_spread_deg must be finite, got nan"),
        ("shadowing_std_db = nan", "shadowing_std_db must be finite, got nan"),
        ("pathloss_exponent = inf",
         "pathloss_exponent must be finite, got inf"),
        ("rx_position = 25, -inf, 9", "rx_position must be finite, got -inf"),
        ("powers_dbm = 0:1", "powers_dbm range must be lo:hi:step, got '0:1'"),
        ("powers_dbm = 0:1:2:3",
         "powers_dbm range must be lo:hi:step, got '0:1:2:3'"),
    ])
    def test_bad_value_names_key_and_line(self, tmp_path, line, message):
        path = tmp_path / "bad.cfg"
        path.write_text(f"geometries = ULA\n{line}\n")
        key = line.split()[0]
        with pytest.raises(ValueError, match=rf"bad\.cfg:2: {key}: {message}"):
            load_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("geometries ULA\n")
        with pytest.raises(ValueError, match="key = value"):
            load_config(path)
