"""Acceptance suite: one test per criterion, each reporting a PASS line.

Heavy artifacts (0.25-degree patterns, Monte Carlo sweeps) are computed
once per session and shared.  Run with ``pytest -s`` to see the report
lines as they complete.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from cimsim.arrays import WAVELENGTH, scenario_geometry
from cimsim.channel import ChannelConfig, draw_paths, sample_realization
from cimsim.harness import SimConfig, results_to_csv, run_sweep
from cimsim.patterns import steered_pattern, summarize
from cimsim.verify import (check_noiseless_detection, check_quantization_bound,
                           check_steering_norms, check_switch_composition)

GEOMETRIES = ("ULA", "URA", "UCA", "CCA")


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def broadside():
    out = {}
    for kind in GEOMETRIES:
        spec = scenario_geometry(kind, WAVELENGTH)
        t0 = time.perf_counter()
        pattern = steered_pattern(spec, 0.0, 0.0)
        elapsed = time.perf_counter() - t0
        out[kind] = (summarize(pattern), elapsed)
    return out


@pytest.fixture(scope="module")
def steered():
    out = {}
    for kind in ("URA", "UCA", "CCA"):
        spec = scenario_geometry(kind, WAVELENGTH)
        pattern = steered_pattern(spec, 15.0, 30.0)
        out[kind] = summarize(pattern)
    return out


@pytest.fixture(scope="module")
def ordering_sweep():
    cfg = SimConfig(geometries=GEOMETRIES, signalings=((2, 4),),
                    hardware=("OP",),
                    powers_dbm=(-20.0, -17.5, -15.0, -12.5, -10.0, -7.5, -5.0),
                    realizations=400, symbols_per_realization=50,
                    seed=1, error_limit=10 ** 9)
    t0 = time.perf_counter()
    results = run_sweep(cfg, workers=4)
    elapsed = time.perf_counter() - t0
    table = {(r.geometry, r.power_dbm): r for r in results}
    return cfg, table, elapsed


@pytest.fixture(scope="module")
def he_sweeps():
    ura = SimConfig(geometries=("URA",), signalings=((2, 4),),
                    hardware=("OP", "HE8"),
                    powers_dbm=(-20.0, -15.0, -10.0, -5.0, 0.0),
                    realizations=400, symbols_per_realization=50,
                    seed=1, error_limit=10 ** 9)
    ula = SimConfig(geometries=("ULA",), signalings=((2, 4),),
                    hardware=("OP", "HE4"),
                    powers_dbm=(-5.0, 0.0, 5.0),
                    realizations=400, symbols_per_realization=50,
                    seed=1, error_limit=10 ** 9)
    ura_table = {(r.hardware, r.power_dbm): r for r in run_sweep(ura, workers=2)}
    ula_table = {(r.hardware, r.power_dbm): r for r in run_sweep(ula, workers=2)}
    return ura, ura_table, ula, ula_table


def test_criterion_1_directivity(broadside):
    expected = {"ULA": 19.14, "URA": 20.67, "UCA": 19.32, "CCA": 21.13}
    details = []
    ok = True
    for kind, target in expected.items():
        summary, elapsed = broadside[kind]
        got = summary.directivity_dbi
        ok &= abs(got - target) <= 0.3 and elapsed < 60.0
        details.append(f"{kind} {got:.2f} dBi (ref {target}, {elapsed:.1f}s)")
    report("criterion 1 (broadside directivity)", ok, "; ".join(details))


def test_criterion_2_hpbw(broadside, steered):
    broadside_ref = {"ULA": (360.0, 1.24), "URA": (11.34, 11.34),
                     "UCA": (3.16, 3.16), "CCA": (9.20, 9.20)}
    steered_ref = {"URA": (13.56, 13.00), "UCA": (3.76, 3.59),
                   "CCA": (11.00, 10.51)}
    ok = True
    details = []
    for kind, (ref_az, ref_el) in broadside_ref.items():
        s = broadside[kind][0]
        ok &= abs(s.hpbw_az_deg - ref_az) <= 0.2
        ok &= abs(s.hpbw_el_deg - ref_el) <= 0.2
        details.append(f"{kind}@0 {s.hpbw_az_deg:.2f}/{s.hpbw_el_deg:.2f}")
    for kind, (ref_az, ref_el) in steered_ref.items():
        s = steered[kind]
        ok &= abs(s.hpbw_az_deg - ref_az) <= 0.2
        ok &= abs(s.hpbw_el_deg - ref_el) <= 0.2
        details.append(f"{kind}@15/30 {s.hpbw_az_deg:.2f}/{s.hpbw_el_deg:.2f}")
    report("criterion 2 (HPBW)", ok, "; ".join(details))


def test_criterion_3_asld_ordering(broadside, steered):
    b = {k: broadside[k][0].asld_db for k in GEOMETRIES}
    s = {k: steered[k].asld_db for k in ("URA", "UCA", "CCA")}
    ok = b["ULA"] < b["URA"] < b["CCA"] < b["UCA"]
    ok &= s["URA"] < s["CCA"] < s["UCA"]
    detail = ("broadside " + " ".join(f"{k}={b[k]:.2f}" for k in GEOMETRIES)
              + "; steered " + " ".join(f"{k}={s[k]:.2f}" for k in s))
    report("criterion 3 (ASLD ordering)", ok, detail)


def test_summaries_match_benchmark_references(broadside, steered):
    # the benchmark checks its pattern_grid units against these values,
    # so a summary that drifts from them fails here first
    refs = json.loads((Path(__file__).resolve().parents[1] / "cimbench"
                       / "pattern_refs.json").read_text())
    summaries = {f"{kind}@0,0": s for kind, (s, _) in broadside.items()}
    summaries.update({f"{kind}@15,30": s for kind, s in steered.items()})
    assert summaries.keys() == refs.keys()
    for key, summary in summaries.items():
        for name, expected in refs[key].items():
            assert getattr(summary, name) == pytest.approx(
                expected, rel=0.0, abs=1e-9), f"{key} {name}"


def test_criterion_4_fps_oracle_equivalence():
    # exhaustive subset-sum maximization in rational arithmetic
    t0 = time.perf_counter()
    result = check_switch_composition(max_shifters=6, grid_points=10_000)
    elapsed = time.perf_counter() - t0
    report("criterion 4 (FPS vs exhaustive subset-sum)",
           result.passed and elapsed < 10.0,
           f"{result.detail} over 5x10^4 cases in {elapsed:.1f}s")


def test_criterion_5_quantization_bound():
    thetas = np.concatenate([
        np.linspace(0.0, 2 * np.pi, 10_000, endpoint=False),
        np.linspace(-2 * np.pi, 4 * np.pi, 501),
    ])
    result = check_quantization_bound(max_shifters=8, thetas=thetas)
    report("criterion 5 (quantization bound)", result.passed,
           f"{result.detail} of 0 <= wrap - omega < step")


def test_criterion_6_noiseless_exactness():
    result = check_noiseless_detection(GEOMETRIES, 82, ChannelConfig(),
                                       seed=2024, orders=(2, 4))
    report("criterion 6 (noiseless exactness)", result.passed,
           f"{result.detail} over all geometries, B in (2, 4), M = 4")


def _two_se(a, b) -> float:
    return 2.0 * float(np.hypot(a.standard_error, b.standard_error))


def test_criterion_7_ber_geometry_ordering(ordering_sweep):
    cfg, table, elapsed = ordering_sweep
    top = sorted(cfg.powers_dbm)[-3:]
    ok = elapsed < 1800.0
    details = [f"{cfg.realizations * cfg.symbols_per_realization} "
               f"trials/pt, {elapsed:.0f}s"]
    for p in top:
        ula, ura = table[("ULA", p)], table[("URA", p)]
        uca, cca = table[("UCA", p)], table[("CCA", p)]
        ok &= ura.ber <= cca.ber + _two_se(ura, cca)
        ok &= ura.ber <= uca.ber + _two_se(ura, uca)
        ok &= uca.ber <= ula.ber + _two_se(uca, ula)
        details.append(f"P={p:g}: URA {ura.ber:.2e} | UCA {uca.ber:.2e} | "
                       f"CCA {cca.ber:.2e} | ULA {ula.ber:.2e}")
    report("criterion 7 (BER geometry ordering)", ok, "; ".join(details))


def test_property_ber_monotone_in_power(ordering_sweep):
    # harness invariant: OP BER non-increasing in power up to MC noise
    cfg, table, _ = ordering_sweep
    powers = sorted(cfg.powers_dbm)
    for geometry in GEOMETRIES:
        for lo, hi in zip(powers, powers[1:]):
            a, b = table[(geometry, lo)], table[(geometry, hi)]
            assert b.ber <= a.ber + _two_se(a, b), \
                f"{geometry}: BER rose from {a.ber:.3e}@{lo} to {b.ber:.3e}@{hi}"


def test_criterion_8_he8_matches_op(he_sweeps):
    ura_cfg, ura_table, _, _ = he_sweeps
    ok = True
    ratios = []
    for p in ura_cfg.powers_dbm:
        op = ura_table[("OP", p)].ber
        he = ura_table[("HE8", p)].ber
        ratio = 1.0 if op == he == 0.0 else (he / op if op else float("inf"))
        ratios.append(f"P={p:g}: {ratio:.2f}")
        ok &= 0.5 <= ratio <= 2.0
    report("criterion 8 (HE(8) vs OP, URA)", ok, ", ".join(ratios))


def test_criterion_9_he_error_floor(he_sweeps):
    _, _, ula_cfg, ula_table = he_sweeps
    p_max = max(ula_cfg.powers_dbm)
    p_ref = p_max - 10.0
    he_hi = ula_table[("HE4", p_max)].ber
    he_lo = ula_table[("HE4", p_ref)].ber
    op_hi = ula_table[("OP", p_max)].ber
    op_lo = ula_table[("OP", p_ref)].ber
    floor = he_hi > 0.5 * he_lo
    falling = op_hi < 0.5 * op_lo
    report("criterion 9 (HE(4) error floor, ULA)", floor and falling,
           f"HE4 {he_lo:.2e} -> {he_hi:.2e} (floor: {floor}); "
           f"OP {op_lo:.2e} -> {op_hi:.2e} (falling: {falling})")


def test_criterion_10_statistical_channel_checks():
    # gain variance against the closed-form path loss (shadowing off)
    cfg = ChannelConfig(shadowing_std_db=0.0)
    positions = scenario_geometry("ULA", WAVELENGTH, 2).positions
    acc = 0.0
    n_real = 10_000
    for seed in range(n_real):
        r = sample_realization(draw_paths(cfg, seed), positions)
        acc += float(np.mean(np.abs(r.gains) ** 2))
    mean_gain = acc / n_real
    expected = 10 ** (-0.1 * 135.5418647644259)
    gain_ok = abs(mean_gain / expected - 1.0) < 0.03

    # Laplacian offset spread
    spread_cfg = ChannelConfig(clusters=4, paths_per_cluster=250)
    offsets = []
    for seed in range(100):
        r = sample_realization(draw_paths(spread_cfg, seed), positions)
        # the cluster mean AoA azimuths: the third uniform draw of the
        # realization's angle stream
        angle_rng = np.random.default_rng(
            np.random.SeedSequence(seed).spawn(3)[0])
        angle_rng.uniform(0.0, 2.0 * np.pi, spread_cfg.clusters)
        angle_rng.uniform(0.0, np.pi, spread_cfg.clusters)
        mean_aoa_az = angle_rng.uniform(0.0, 2.0 * np.pi, spread_cfg.clusters)
        raw = r.aoa_az - mean_aoa_az[:, None]
        offsets.append(np.angle(np.exp(1j * raw)).ravel())
    std_deg = float(np.rad2deg(np.std(np.concatenate(offsets))))
    spread_ok = abs(std_deg - 7.5) / 7.5 < 0.03

    # steering norms and entry magnitudes
    norms = check_steering_norms(seed=0, samples=100)

    report("criterion 10 (channel statistics)",
           gain_ok and spread_ok and norms.passed,
           f"E|gain|^2 off by {abs(mean_gain / expected - 1) * 100:.2f}% "
           f"({n_real} realizations); offset std {std_deg:.3f} deg; "
           f"steering {norms.detail}")


def test_criterion_11_worker_determinism():
    cfg = SimConfig(geometries=("ULA", "URA"), signalings=((2, 4),),
                    hardware=("OP",), powers_dbm=(-20.0, -10.0),
                    realizations=20, symbols_per_realization=20,
                    seed=99, n_elements=16)
    csv_serial = results_to_csv(run_sweep(cfg, workers=1))
    csv_parallel = results_to_csv(run_sweep(cfg, workers=8))
    report("criterion 11 (worker determinism)", csv_serial == csv_parallel,
           f"1 vs 8 workers, {len(csv_serial)} CSV bytes identical: "
           f"{csv_serial == csv_parallel}")
