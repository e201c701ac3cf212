import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cimsim.arrays import GeometrySpec, element_positions
from cimsim.channel import ChannelConfig, sample_realization
from cimsim.codebook import FpsBank, build_codebook, quantize_codebook
from cimsim.link import (array_gain_db, branch_amplitudes, count_bit_errors,
                         db_to_linear, dbm_to_watt, detect, gray_code,
                         psk_constellation, transmit)

LAM = 0.0107068735


def make_link(seed=1, n=8, clusters=4, order=2, power_w=1.0):
    """Channel, codebook and amplitude sqrt(P) G_t G_r of a small ULA link."""
    pos = element_positions(GeometrySpec.ula(n, LAM))
    cfg = ChannelConfig(clusters=clusters, paths_per_cluster=4)
    realization = sample_realization(cfg, pos, pos, seed=seed)
    cb = build_codebook(realization, order)
    gain = db_to_linear(array_gain_db(n))
    return realization, cb, np.sqrt(power_w) * gain * gain


def all_hypotheses(order, m):
    """(x0, x1) of every B x M hypothesis, cluster-major."""
    return np.divmod(np.arange(order * m), m)


def noiseless_decisions(realization, cb, amplitude, x0, x1, m=4):
    points = psk_constellation(m)
    h = realization.matrix
    signal, noise = transmit(cb, h, x0, points[x1],
                             np.zeros((x0.size, h.shape[0])))
    c_hat, s_hat = detect(signal, noise, np.array([amplitude]),
                          branch_amplitudes(cb, h), points)
    return c_hat[0], s_hat[0]


def receive_noise(rng, shape, sigma):
    return rng.normal(0, sigma, shape) + 1j * rng.normal(0, sigma, shape)


class TestHelpers:
    def test_unit_conversions(self):
        assert dbm_to_watt(30.0) == pytest.approx(1.0)
        assert dbm_to_watt(-90.0) == pytest.approx(1e-12)
        assert db_to_linear(10.0) == pytest.approx(10.0)

    def test_scenario_array_gain(self):
        # 4 + 10*log10(sqrt(82)) dB, evaluated independently
        assert array_gain_db(82) == pytest.approx(13.569069261918584)
        assert db_to_linear(array_gain_db(82)) == pytest.approx(
            22.746099060580878)


class TestConstellation:
    def test_unit_energy_and_gray_adjacency(self):
        for m in (2, 4, 8, 16):
            points = psk_constellation(m)
            np.testing.assert_allclose(np.abs(points), 1.0, atol=1e-14)
            assert abs(np.mean(np.abs(points) ** 2) - 1.0) < 1e-14
            # labels of adjacent phases differ in exactly one bit
            labels = [gray_code(k) for k in range(m)]
            for k in range(m):
                diff = labels[k] ^ labels[(k + 1) % m]
                assert bin(diff).count("1") == 1

    def test_qpsk_points(self):
        points = psk_constellation(4)
        expected_by_phase_index = [1, 1j, -1, -1j]
        for k in range(4):
            assert points[gray_code(k)] == pytest.approx(
                expected_by_phase_index[k])

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            psk_constellation(3)


class TestTransmitAndReceive:
    def test_noiseless_single_branch_value(self):
        realization, cb, amplitude = make_link(order=1)
        points = psk_constellation(4)
        h = realization.matrix
        signal, noise = transmit(cb, h, np.array([0]), points[[3]],
                                 np.zeros((1, 8)))
        z = amplitude * signal + noise
        w = cb.combiners[:, 0]
        f = cb.beamformers[:, 0]
        expected = amplitude * (w.conj() @ h @ f) * points[3]
        assert z.shape == (1, 1)
        assert z[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_noise_only_branch_power(self):
        # the combined noise of branch c has E|.|^2 = noise var * ||w_c||^2
        realization, cb, _ = make_link(order=2)
        noise_w = 2.5e-3
        draws = 20_000
        rng = np.random.default_rng(42)
        sigma = np.sqrt(noise_w / 2.0)
        noise = rng.normal(0.0, sigma, (draws, 8)) \
            + 1j * rng.normal(0.0, sigma, (draws, 8))
        _, combined = transmit(cb, realization.matrix, np.zeros(draws, int),
                               np.ones(draws, complex), noise)
        measured = np.mean(np.abs(combined) ** 2, axis=0)
        np.testing.assert_allclose(measured, noise_w, rtol=0.03)

    def test_dimension_mismatch_rejected(self):
        realization, cb, _ = make_link()
        with pytest.raises(ValueError):
            transmit(cb, realization.matrix[:, :4], np.array([0]),
                     psk_constellation(4)[:1], np.zeros((1, 8)))

    def test_branch_amplitudes_are_per_branch_projections(self):
        realization, cb, _ = make_link(seed=5, order=4)
        h = realization.matrix
        expected = [cb.combiners[:, c].conj() @ h @ cb.beamformers[:, c]
                    for c in range(4)]
        np.testing.assert_allclose(branch_amplitudes(cb, h), expected,
                                   rtol=1e-12, atol=0)


class TestMlDetect:
    def test_noiseless_exhaustive_exact(self):
        for order in (2, 4):
            realization, cb, amplitude = make_link(order=order)
            x0, x1 = all_hypotheses(order, 4)
            c_hat, s_hat = noiseless_decisions(realization, cb, amplitude,
                                               x0, x1)
            assert np.array_equal(c_hat, x0) and np.array_equal(s_hat, x1)
            assert count_bit_errors(x0, x1, c_hat, s_hat) == 0

    def test_swapped_codebook_yields_spatial_bit_error(self):
        realization, cb, amplitude = make_link(order=2)
        points = psk_constellation(4)
        h = realization.matrix
        # receiver runs a codebook with its branch labels swapped
        swapped = dataclasses.replace(
            cb, clusters=cb.clusters[::-1],
            beamformers=cb.beamformers[:, ::-1],
            combiners=cb.combiners[:, ::-1],
            effective_gains=cb.effective_gains[::-1])
        y = (h @ cb.beamformers[:, 0]) * points[1]
        signal = (swapped.combiners.conj().T @ y)[None, :]
        c_hat, s_hat = detect(signal, np.zeros((1, 2), complex),
                              np.array([amplitude]),
                              branch_amplitudes(swapped, h), points)
        assert (c_hat[0, 0], s_hat[0, 0]) == (1, 1)
        assert count_bit_errors(np.array([0]), np.array([1]), c_hat,
                                s_hat).tolist() == [1]

    def test_common_scaling_invariance(self):
        realization, cb, amplitude = make_link(order=4)
        points = psk_constellation(4)
        h = realization.matrix
        rng = np.random.default_rng(3)
        signal, combined = transmit(cb, h, np.array([2]), points[[1]],
                                    receive_noise(rng, (1, 8),
                                                  np.sqrt(1e-9 / 2)))
        hyp = branch_amplitudes(cb, h)
        amplitudes = np.array([amplitude])
        det_a = detect(signal, combined, amplitudes, hyp, points)
        det_b = detect(signal, 2.0 * combined, 2.0 * amplitudes, hyp, points)
        assert all(np.array_equal(a, b) for a, b in zip(det_a, det_b))

    def test_wrong_length_rejected(self):
        realization, cb, amplitude = make_link(order=2)
        with pytest.raises(ValueError):
            detect(np.zeros((1, 3), complex), np.zeros((1, 3), complex),
                   np.array([amplitude]),
                   branch_amplitudes(cb, realization.matrix),
                   psk_constellation(4))

    def test_ties_go_to_lowest_cluster_then_symbol(self):
        # equal branch amplitudes and no signal or noise: every
        # hypothesis ties, at every amplitude
        points = psk_constellation(4)
        c_hat, s_hat = detect(np.zeros((2, 2), complex),
                              np.zeros((2, 2), complex),
                              np.array([1.0, 0.5, 3.0]), np.ones(2, complex),
                              points)
        assert c_hat.tolist() == [[0, 0]] * 3
        assert s_hat.tolist() == [[0, 0]] * 3

    @settings(max_examples=15, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), order=st.sampled_from([1, 2, 4]),
           m=st.sampled_from([2, 4, 8]), exponent=st.integers(-20, 20))
    def test_property_noiseless_exact_and_scale_invariant(self, seed, order,
                                                          m, exponent):
        realization, cb, amplitude = make_link(seed=seed, order=order)
        x0, x1 = all_hypotheses(order, m)
        c_hat, s_hat = noiseless_decisions(realization, cb, amplitude,
                                           x0, x1, m)
        assert np.array_equal(c_hat, x0) and np.array_equal(s_hat, x1)
        # with noise, decisions survive scaling the noise and the
        # amplitudes by the same power of two (exact in floating point)
        points = psk_constellation(m)
        h = realization.matrix
        rng = np.random.default_rng(seed)
        signal, combined = transmit(cb, h, x0, points[x1],
                                    receive_noise(rng, (x0.size, 8), 1e-6))
        hyp = branch_amplitudes(cb, h)
        amplitudes = amplitude * np.array([0.1, 1.0, 30.0])
        scale = 2.0 ** exponent
        base = detect(signal, combined, amplitudes, hyp, points)
        scaled = detect(signal, scale * combined, scale * amplitudes, hyp,
                        points)
        assert all(np.array_equal(a, b) for a, b in zip(base, scaled))

    @settings(max_examples=25, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), order=st.sampled_from([1, 2, 4]),
           m=st.sampled_from([2, 4, 8]), n_f=st.integers(2, 6),
           snr_exponents=st.lists(st.floats(-3.0, 3.0), min_size=3,
                                  max_size=8))
    def test_property_matches_per_power_argmin(self, seed, order, m, n_f,
                                               snr_exponents):
        # an HE-quantized signal path against the ideal hypothesis values,
        # as in the sweep; the amplitudes put the mean branch amplitude at
        # 1e-3 to 1e3 times the noise standard deviation
        realization, cb, _ = make_link(seed=seed, order=order)
        points = psk_constellation(m)
        h = realization.matrix
        rng = np.random.default_rng(seed)
        uses = 40
        x0 = rng.integers(0, order, uses)
        x1 = rng.integers(0, m, uses)
        sigma = 1e-6
        signal, noise = transmit(quantize_codebook(cb, FpsBank(n_f)), h, x0,
                                 points[x1],
                                 receive_noise(rng, (uses, 8), sigma))
        hyp = branch_amplitudes(cb, h)
        amplitudes = (sigma / np.abs(hyp).mean()
                      * 10.0 ** np.array(snr_exponents))
        subset = np.arange(0, amplitudes.size, 2)[::-1]   # gaps, reversed

        def oracle(a):
            z = a * signal + noise
            metric = np.abs(z[:, :, None]
                            - a * hyp[None, :, None] * points) ** 2
            return np.divmod(metric.reshape(uses, -1).argmin(axis=1), m)

        every = detect(signal, noise, amplitudes, hyp, points)
        some = detect(signal, noise, amplitudes[subset], hyp, points)
        for p, a in enumerate(amplitudes):
            c_ref, s_ref = oracle(a)
            assert np.array_equal(every[0][p], c_ref)
            assert np.array_equal(every[1][p], s_ref)
        for row, p in enumerate(subset):
            assert np.array_equal(some[0][row], every[0][p])
            assert np.array_equal(some[1][row], every[1][p])


class TestBitAccounting:
    def test_counts_on_natural_and_gray_labels(self):
        x0, x1 = np.array([0b10, 0b10]), np.array([0b01, 0b01])
        assert count_bit_errors(x0[:1], x1[:1], np.array([0b01]),
                                np.array([0b10])) == 4
        assert count_bit_errors(x0[:1], x1[:1], np.array([0b11]),
                                np.array([0b00])) == 2
        # a batch sums its uses
        assert count_bit_errors(x0, x1, np.array([0b01, 0b11]),
                                np.array([0b10, 0b00])) == 6
        # one count per leading index of the decisions
        c_hat = np.array([[0b01, 0b11], [0b10, 0b10], [0b11, 0b10]])
        s_hat = np.array([[0b10, 0b00], [0b01, 0b01], [0b01, 0b00]])
        assert count_bit_errors(x0, x1, c_hat, s_hat).tolist() == [6, 0, 2]

    def test_high_snr_waterfall(self):
        realization, cb, amplitude = make_link(seed=6, order=2,
                                               power_w=dbm_to_watt(0.0))
        noise_w = 1e-16
        points = psk_constellation(4)
        rng = np.random.default_rng(9)
        trials = 100_000
        x0 = rng.integers(0, 2, trials)
        x1 = rng.integers(0, 4, trials)
        sigma = np.sqrt(noise_w / 2)
        noise = rng.normal(0, sigma, (trials, 8)) \
            + 1j * rng.normal(0, sigma, (trials, 8))
        h = realization.matrix
        signal, combined = transmit(cb, h, x0, points[x1], noise)
        c_hat, s_hat = detect(signal, combined, np.array([amplitude]),
                              branch_amplitudes(cb, h), points)
        (ber,) = count_bit_errors(x0, x1, c_hat, s_hat) / (3 * trials)
        assert ber < 1e-3
