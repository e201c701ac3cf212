from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cimsim.arrays import (WAVELENGTH, scenario_geometry, steering,
                           unit_directions)
from cimsim.channel import ChannelConfig, draw_paths, sample_realization
from cimsim.codebook import (FpsBank, build_codebook, compose_switch_vector,
                             quantize_weights, realized_phase, wrap_phase)


def steer(pos, az, el):
    return steering(pos, unit_directions(az, el), WAVELENGTH)


def floor_phase(theta, bank: FpsBank) -> float:
    return realized_phase(compose_switch_vector(theta, bank), bank)


def exhaustive_best_phase(theta: float, bank: FpsBank) -> float:
    wrapped = float(np.mod(theta, 2 * np.pi))
    sums = np.array(list(product((0, 1), repeat=bank.n_shifters))) @ bank.phases
    return float(sums[sums <= wrapped].max())


def make_realization(seed=1, clusters=8, paths=10, n=8):
    pos = scenario_geometry("ULA", WAVELENGTH, n).positions
    cfg = ChannelConfig(clusters=clusters, paths_per_cluster=paths)
    return sample_realization(draw_paths(cfg, seed), pos), pos


class TestFpsBank:
    def test_phase_vector_structure(self):
        bank = FpsBank(4)
        np.testing.assert_allclose(bank.phases,
                                   [0.0, np.pi / 4, np.pi / 2, np.pi])
        assert bank.phases[0] == 0.0
        ratios = bank.phases[2:] / bank.phases[1:-1]
        np.testing.assert_allclose(ratios, 2.0)

    def test_rejects_single_shifter(self):
        with pytest.raises(ValueError):
            FpsBank(1)

    def test_rejects_step_below_wrapped_phase_resolution(self):
        resolution = np.spacing(2 * np.pi)
        finest = max(n for n in range(2, 128)
                     if 2 * np.pi / 2 ** (n - 1) >= resolution)
        assert FpsBank(finest).phase_step >= resolution
        # 2 ** 1025 and up overflow a float: the step must not
        for n in (finest + 1, 70, 1025, 1026, 2000):
            with pytest.raises(ValueError, match="resolution"):
                FpsBank(n)


class TestComposeSwitchVector:
    def test_zero_phase(self):
        for n_f in (2, 4, 8):
            omega = floor_phase(0.0, FpsBank(n_f))
            assert omega == 0.0

    def test_three_quarter_pi_exact(self):
        bank = FpsBank(4)
        switches = compose_switch_vector(3 * np.pi / 4, bank)
        # pi/2 and pi/4 shifters closed (plus the free zero shifter)
        assert switches[2] == 1 and switches[1] == 1 and switches[3] == 0
        omega = realized_phase(switches, bank)
        assert abs(omega - 3 * np.pi / 4) < 1e-15
        assert abs(omega - exhaustive_best_phase(3 * np.pi / 4, bank)) < 1e-15

    def test_just_below_full_turn(self):
        bank = FpsBank(3)
        theta = 2 * np.pi - 1e-6
        omega = realized_phase(compose_switch_vector(theta, bank), bank)
        assert abs(omega - 3 * np.pi / 2) < 1e-12
        assert abs(omega - exhaustive_best_phase(theta, bank)) < 1e-12
        assert theta - omega < np.pi / 2

    def test_tiny_negative_angle_wraps_to_zero(self):
        # np.mod(-1.7e-253, 2 pi) is exactly 2 pi
        bank = FpsBank(2)
        assert wrap_phase(-1.7e-253) == 0.0
        assert floor_phase(-1.7e-253, bank) == 0.0
        np.testing.assert_array_equal(
            wrap_phase(np.array([-1.7e-253, -1e-17, 0.0])), 0.0)

    def test_matches_exhaustive_subset_sum(self):
        thetas = np.linspace(0, 2 * np.pi, 500, endpoint=False)
        for n_f in range(2, 7):
            bank = FpsBank(n_f)
            for theta in thetas:
                omega = realized_phase(compose_switch_vector(theta, bank), bank)
                assert abs(omega - exhaustive_best_phase(theta, bank)) <= 1e-12

    def test_quantization_bound_exact(self):
        thetas = np.linspace(-2 * np.pi, 4 * np.pi, 1000)
        for n_f in (2, 3, 5, 8):
            bank = FpsBank(n_f)
            for theta in thetas:
                wrapped = float(np.mod(theta, 2 * np.pi))
                omega = realized_phase(compose_switch_vector(theta, bank), bank)
                assert 0.0 <= wrapped - omega < bank.phase_step

    def test_realized_phase_on_grid(self):
        rng = np.random.default_rng(8)
        for n_f in (3, 5):
            bank = FpsBank(n_f)
            for theta in rng.uniform(0, 2 * np.pi, 200):
                omega = floor_phase(theta, bank)
                steps = omega / bank.phase_step
                assert abs(steps - round(steps)) < 1e-9

    def test_error_halves_per_added_shifter(self):
        thetas = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
        worst = []
        for n_f in (3, 4, 5, 6):
            bank = FpsBank(n_f)
            errs = [np.mod(t, 2 * np.pi) - floor_phase(t, bank)
                    for t in thetas]
            worst.append(max(errs))
        for a, b in zip(worst, worst[1:]):
            assert abs(b / a - 0.5) < 0.02


class TestQuantizeWeights:
    def test_uniform_vector_unchanged(self):
        w = np.full(16, 1 / 4.0, dtype=complex)
        np.testing.assert_allclose(quantize_weights(w, FpsBank(4)), w,
                                   atol=1e-15)

    def test_magnitudes_preserved_and_error_bounded(self):
        rng = np.random.default_rng(2)
        w = np.exp(1j * rng.uniform(0, 2 * np.pi, 64)) / 8.0
        for n_f in (2, 4, 8):
            bank = FpsBank(n_f)
            q = quantize_weights(w, bank)
            np.testing.assert_allclose(np.abs(q), np.abs(w), atol=1e-15)
            err = np.mod(np.angle(w) - np.angle(q), 2 * np.pi)
            assert np.all(err < bank.phase_step + 1e-12)

    def test_matches_per_entry_switch_composition(self):
        rng = np.random.default_rng(11)
        w = np.exp(1j * rng.uniform(-np.pi, np.pi, 128)) / np.sqrt(128)
        bank = FpsBank(5)
        q = quantize_weights(w, bank)
        per_entry = np.array([floor_phase(t, bank)
                              for t in np.mod(np.angle(w), 2 * np.pi)])
        circular_gap = np.angle(q * np.exp(-1j * per_entry) * np.sqrt(128))
        np.testing.assert_allclose(circular_gap, 0.0, atol=1e-12)

    @settings(max_examples=30, deadline=None, derandomize=True,
              database=None)
    @given(n_f=st.integers(2, 12),
           entries=st.lists(st.tuples(st.floats(1e-3, 1e3),
                                      st.floats(-4 * np.pi, 4 * np.pi)),
                            min_size=1, max_size=32))
    def test_property_matches_scalar_route(self, n_f, entries):
        bank = FpsBank(n_f)
        magnitude, theta = np.array(entries).T
        w = magnitude * np.exp(1j * theta)
        q = quantize_weights(w, bank)
        np.testing.assert_allclose(np.abs(q), np.abs(w), rtol=1e-15, atol=0)
        for wi, qi in zip(w, q):
            omega = floor_phase(np.angle(wi), bank)
            assert 0.0 <= wrap_phase(np.angle(wi)) - omega < bank.phase_step
            # bit for bit the per-entry switch composition
            assert qi == np.abs(wi) * np.exp(1j * omega)

    def test_eight_shifters_alignment_bound(self):
        rng = np.random.default_rng(4)
        bank = FpsBank(8)
        bound = np.cos(2 * np.pi / 2 ** 7)   # 0.99879...
        for _ in range(20):
            w = np.exp(1j * rng.uniform(0, 2 * np.pi, 82)) / np.sqrt(82)
            q = quantize_weights(w, bank)
            assert abs(np.vdot(q, w)) >= bound


class TestBestEffectivePath:
    """``build_codebook(r, 1).best_paths`` holds every cluster's best path."""

    def test_single_path_cluster(self):
        realization, _ = make_realization(clusters=2, paths=1)
        assert build_codebook(realization, 1).best_paths.tolist() == [0, 0]

    def test_dominant_path_wins(self):
        realization, pos = make_realization(seed=21, clusters=1, paths=2, n=8)
        realization.gains = np.array([[10.0 + 0j, 0.1 + 0j]])
        fs = [steer(pos, realization.aod_az[0, l], realization.aod_el[0, l])
              for l in range(2)]
        ws = [steer(pos, realization.aoa_az[0, l], realization.aoa_el[0, l])
              for l in range(2)]
        # H = sqrt(N_t N_r / (C L)) sum gain w f^H over the two paths
        realization.matrix = np.sqrt(8 * 8 / 2) * sum(
            g * np.outer(w, f.conj())
            for g, w, f in zip(realization.gains[0], ws, fs))
        # exhaustive evaluation of both candidates
        gains = [abs(w.conj() @ realization.matrix @ f) ** 2
                 for w, f in zip(ws, fs)]
        assert gains[0] > gains[1]
        assert build_codebook(realization, 1).best_paths[0] == 0

    def test_matches_bruteforce_on_random_instances(self):
        pos = scenario_geometry("ULA", WAVELENGTH, 4).positions
        cfg = ChannelConfig(clusters=3, paths_per_cluster=5)
        for seed in range(20):
            realization = sample_realization(draw_paths(cfg, seed), pos)
            best_paths = build_codebook(realization, 1).best_paths
            for c in range(3):
                metrics = []
                for l in range(5):
                    f = steer(pos, realization.aod_az[c, l],
                              realization.aod_el[c, l])
                    w = steer(pos, realization.aoa_az[c, l],
                              realization.aoa_el[c, l])
                    metrics.append(abs(w.conj() @ realization.matrix @ f) ** 2)
                assert best_paths[c] == int(np.argmax(metrics))


class TestBuildCodebook:
    def test_single_cluster_codeword_is_best_path_steering(self):
        realization, pos = make_realization(clusters=1, paths=4)
        cb = build_codebook(realization, 1)
        p = cb.best_paths[0]
        expected = steer(pos, realization.aod_az[0, p],
                         realization.aod_el[0, p])
        np.testing.assert_allclose(cb.beamformers[:, 0], expected, atol=1e-13)

    def test_top2_matches_exhaustive_scan(self):
        realization, pos = make_realization(seed=5)
        cb = build_codebook(realization, 2)
        # oracle: full scan of all clusters at their best paths, then sort
        scan = []
        for c in range(8):
            metrics = []
            for l in range(10):
                f = steer(pos, realization.aod_az[c, l],
                          realization.aod_el[c, l])
                w = steer(pos, realization.aoa_az[c, l],
                          realization.aoa_el[c, l])
                metrics.append(abs(w.conj() @ realization.matrix @ f) ** 2)
            scan.append(max(metrics))
        expected = tuple(int(i) for i in np.argsort(scan)[::-1][:2])
        assert cb.clusters == expected

    def test_equal_gains_select_lower_cluster_first(self):
        # unit steering columns and a diagonal channel make the cluster
        # gains exactly the squared diagonal: 1, 9, 4, 9
        realization, _ = make_realization(clusters=4, paths=1, n=4)
        realization.a_t = realization.a_r = np.eye(4, dtype=complex)
        realization.matrix = np.diag([1.0, 3.0, 2.0, 3.0]).astype(complex)
        assert build_codebook(realization, 2).clusters == (1, 3)
        cb = build_codebook(realization, 4)
        assert cb.clusters == (1, 3, 2, 0)
        assert all(type(c) is int for c in cb.clusters)
        assert cb.effective_gains.tolist() == [9.0, 9.0, 4.0, 1.0]

    def test_greedy_gains_non_increasing(self):
        realization, _ = make_realization(seed=13)
        cb = build_codebook(realization, 8)
        assert np.all(np.diff(cb.effective_gains) <= 1e-12)

    def test_he_codewords_on_phase_grid(self):
        realization, _ = make_realization(seed=3)
        cb = build_codebook(realization, 4)
        step = 2 * np.pi / 2 ** 7
        for w in quantize_weights(np.stack([cb.beamformers, cb.combiners]),
                                  FpsBank(8)):
            phases = np.mod(np.angle(w), 2 * np.pi)
            steps = phases / step
            assert np.all(np.abs(steps - np.round(steps)) < 1e-6)

    def test_he_selection_matches_ideal_selection(self):
        realization, _ = make_realization(seed=7)
        # the HE network keeps the ideal selection: each quantized
        # codeword is its ideal codeword with every phase floored by
        # less than one step
        ideal = build_codebook(realization, 4)
        bank = FpsBank(4)
        for w in (ideal.beamformers, ideal.combiners):
            quantized = quantize_weights(w, bank)
            np.testing.assert_allclose(np.abs(quantized), np.abs(w),
                                       rtol=1e-15)
            lag = np.angle(w * quantized.conj())
            assert np.all((lag > -1e-12) & (lag < bank.phase_step))

    def test_codewords_are_selected_path_steering_columns(self):
        realization, pos = make_realization(seed=9)
        cb = build_codebook(realization, 4)
        clusters = np.array(cb.clusters)
        paths = cb.best_paths[clusters]
        assert np.array_equal(cb.beamformers, steer(
            pos, realization.aod_az[clusters, paths],
            realization.aod_el[clusters, paths]))
        assert np.array_equal(cb.combiners, steer(
            pos, realization.aoa_az[clusters, paths],
            realization.aoa_el[clusters, paths]))

    def test_he_codebook_is_quantized_ideal_codebook(self):
        realization, _ = make_realization(seed=9)
        bank = FpsBank(4)
        ideal = build_codebook(realization, 4)
        other = build_codebook(make_realization(seed=10)[0], 4)
        # beamformers and combiners of two realizations in one call, as
        # the sweep stacks them: (2, realizations, N, B)
        he = quantize_weights(np.stack([
            [ideal.beamformers, other.beamformers],
            [ideal.combiners, other.combiners]]), bank)
        for i, cb in enumerate((ideal, other)):
            assert np.array_equal(he[0, i],
                                  quantize_weights(cb.beamformers, bank))
            assert np.array_equal(he[1, i],
                                  quantize_weights(cb.combiners, bank))

    def test_order_validation(self):
        realization, _ = make_realization(clusters=4, paths=2)
        with pytest.raises(ValueError):
            build_codebook(realization, 8)
        with pytest.raises(ValueError):
            build_codebook(realization, 3)
