import numpy as np
import pytest

from cimsim.arrays import GeometrySpec, element_positions
from cimsim.channel import ChannelConfig, sample_realization
from cimsim.codebook import build_codebook
from cimsim.link import (DetectionResult, LinkConfig, TxSymbols, array_gain_db,
                         bit_errors, branch_amplitudes, db_to_linear,
                         dbm_to_watt, gray_code, ml_detect, psk_constellation,
                         transmit_and_receive)

LAM = 0.0107068735


def make_link(seed=1, n=8, clusters=4, order=2, constellation=4,
              power_w=1.0, noise_w=0.0):
    pos = element_positions(GeometrySpec.ula(n, LAM))
    cfg = ChannelConfig(clusters=clusters, paths_per_cluster=4)
    realization = sample_realization(cfg, pos, pos, seed=seed)
    cb = build_codebook(realization, order)
    gain = db_to_linear(array_gain_db(n))
    link = LinkConfig(order, constellation, power_w, gain, gain, noise_w)
    return realization, cb, link


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


class TestLinkConfig:
    def test_amplitude_composition(self):
        link = LinkConfig(2, 4, 4.0, 3.0, 5.0, 1e-12)
        assert link.amplitude == pytest.approx(2.0 * 3.0 * 5.0)
        assert link.bits_per_use == 3

    @pytest.mark.parametrize("kwargs", [
        dict(order=3), dict(constellation=5), dict(power_w=0.0),
        dict(noise_var_w=-1.0), dict(order=4, n_rf=2),
    ])
    def test_invalid_configs(self, kwargs):
        base = dict(order=2, constellation=4, power_w=1.0, tx_gain=1.0,
                    rx_gain=1.0, noise_var_w=0.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            LinkConfig(**base)


class TestTransmitAndReceive:
    def test_noiseless_single_branch_value(self):
        realization, cb, link = make_link(order=1, constellation=4)
        points = psk_constellation(4)
        tx = TxSymbols.from_values(0, 3, points)
        z = transmit_and_receive(cb, realization.matrix, tx, link,
                                 np.random.default_rng(0))
        w = cb.combiners[:, 0]
        f = cb.beamformers[:, 0]
        expected = link.amplitude * (w.conj() @ realization.matrix @ f) * tx.point
        assert z.shape == (1,)
        assert z[0] == pytest.approx(expected, rel=1e-12)

    def test_noise_only_branch_power(self):
        # vanishing signal power leaves E|z(c)|^2 = noise var * ||w_c||^2
        realization, cb, _ = make_link(order=2, noise_w=0.0)
        noise_w = 2.5e-3
        link = LinkConfig(2, 4, 1e-30, 1.0, 1.0, noise_w)
        points = psk_constellation(4)
        tx = TxSymbols.from_values(0, 0, points)
        rng = np.random.default_rng(42)
        acc = np.zeros(2)
        draws = 20_000
        for _ in range(draws):
            z = transmit_and_receive(cb, realization.matrix, tx, link, rng)
            acc += np.abs(z) ** 2
        measured = acc / draws
        np.testing.assert_allclose(measured, noise_w, rtol=0.03)

    def test_dimension_mismatch_rejected(self):
        realization, cb, link = make_link()
        with pytest.raises(ValueError):
            transmit_and_receive(cb, realization.matrix[:, :4],
                                 TxSymbols.from_values(0, 0, psk_constellation(4)),
                                 link, np.random.default_rng(0))

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
            realization, cb, link = make_link(order=order)
            points = psk_constellation(4)
            rng = np.random.default_rng(1)
            for x0 in range(order):
                for x1 in range(4):
                    tx = TxSymbols.from_values(x0, x1, points)
                    z = transmit_and_receive(cb, realization.matrix, tx, link, rng)
                    det = ml_detect(z, cb, realization.matrix, link)
                    assert (det.cluster_symbol, det.constellation_symbol) == (x0, x1)
                    assert bit_errors(tx, det, link) == (0, 0)

    def test_swapped_codebook_yields_spatial_bit_error(self):
        import dataclasses
        realization, cb, link = make_link(order=2)
        points = psk_constellation(4)
        tx = TxSymbols.from_values(0, 1, points)
        # receiver runs a codebook with its branch labels swapped
        swapped = dataclasses.replace(
            cb, clusters=cb.clusters[::-1],
            beamformers=cb.beamformers[:, ::-1],
            combiners=cb.combiners[:, ::-1],
            effective_gains=cb.effective_gains[::-1])
        y = link.amplitude * (realization.matrix @ cb.beamformers[:, 0]) * tx.point
        z = swapped.combiners.conj().T @ y
        det = ml_detect(z, swapped, realization.matrix, link)
        assert det.cluster_symbol == 1
        assert det.constellation_symbol == tx.constellation_symbol
        spatial, _ = bit_errors(tx, det, link)
        assert spatial == 1

    def test_common_scaling_invariance(self):
        realization, cb, link = make_link(order=4, noise_w=1e-9)
        points = psk_constellation(4)
        rng = np.random.default_rng(3)
        z = transmit_and_receive(cb, realization.matrix,
                                 TxSymbols.from_values(2, 1, points), link, rng)
        det_a = ml_detect(z, cb, realization.matrix, link)
        scaled = LinkConfig(link.order, link.constellation, 4.0 * link.power_w,
                            link.tx_gain, link.rx_gain, link.noise_var_w)
        det_b = ml_detect(2.0 * z, cb, realization.matrix, scaled)
        assert det_a == det_b

    def test_wrong_length_rejected(self):
        realization, cb, link = make_link(order=2)
        with pytest.raises(ValueError):
            ml_detect(np.zeros(3, complex), cb, realization.matrix, link)


class TestBitAccounting:
    def test_counts_on_natural_and_gray_labels(self):
        link = LinkConfig(4, 4, 1.0, 1.0, 1.0, 0.0)
        points = psk_constellation(4)
        tx = TxSymbols.from_values(0b10, 0b01, points)
        det = DetectionResult(0b01, 0b10, complex(points[0b10]))
        assert bit_errors(tx, det, link) == (2, 2)
        det_close = DetectionResult(0b11, 0b00, complex(points[0]))
        assert bit_errors(tx, det_close, link) == (1, 1)

    def test_high_snr_waterfall(self):
        # vectorized restatement of the per-symbol pipeline
        realization, cb, _ = make_link(seed=6, order=2)
        noise_w = 1e-16
        link = LinkConfig(2, 4, dbm_to_watt(0.0),
                          db_to_linear(array_gain_db(8)),
                          db_to_linear(array_gain_db(8)), noise_w)
        points = psk_constellation(4)
        rng = np.random.default_rng(9)
        trials = 100_000
        x0 = rng.integers(0, 2, trials)
        x1 = rng.integers(0, 4, trials)
        sigma = np.sqrt(noise_w / 2)
        noise = rng.normal(0, sigma, (trials, 8)) + 1j * rng.normal(0, sigma, (trials, 8))
        v = cb.combiners.conj().T @ realization.matrix @ cb.beamformers
        z = link.amplitude * v[:, x0].T * points[x1][:, None] \
            + noise @ cb.combiners.conj()
        hyp = link.amplitude * branch_amplitudes(cb, realization.matrix)
        metric = np.abs(z[:, :, None] - hyp[None, :, None] * points[None, None, :]) ** 2
        flat = metric.reshape(trials, -1).argmin(axis=1)
        errs = (np.bitwise_count(x0 ^ (flat // 4)).sum()
                + np.bitwise_count(x1 ^ (flat % 4)).sum())
        ber = errs / (3 * trials)
        assert ber < 1e-3
