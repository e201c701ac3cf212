import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cimsim.arrays import WAVELENGTH, scenario_geometry
from cimsim.channel import ChannelConfig, draw_paths, sample_realization
from cimsim.codebook import FpsBank, build_codebook, quantize_weights
from cimsim.link import (array_gain_db, branch_amplitudes, count_bit_errors,
                         db_to_linear, dbm_to_watt, decision_bound, detect,
                         gray_code, psk_constellation, transmit)


def make_link(seed=1, n=8, clusters=4, order=2, power_w=1.0):
    """Channel, codebook and amplitude sqrt(P) G_t G_r of a small ULA link."""
    pos = scenario_geometry("ULA", WAVELENGTH, n).positions
    cfg = ChannelConfig(clusters=clusters, paths_per_cluster=4)
    realization = sample_realization(draw_paths(cfg, seed), pos)
    cb = build_codebook(realization, order)
    gain = db_to_linear(array_gain_db(n))
    return realization, cb, np.sqrt(power_w) * gain * gain


def all_hypotheses(order, m):
    """(x0, x1) of every B x M hypothesis, cluster-major."""
    return np.divmod(np.arange(order * m), m)


def noiseless_decisions(realization, cb, amplitude, x0, x1, m=4):
    points = psk_constellation(m)
    h = realization.matrix
    v, noise = transmit(cb.beamformers, cb.combiners, h,
                        np.zeros((x0.size, cb.combiners.shape[1])))
    c_hat, s_hat = np.divmod(detect(v, x0 * m + x1, noise,
                                    np.array([amplitude]),
                                    branch_amplitudes(cb, h), points), m)
    return c_hat[0], s_hat[0]


def use_signal(v, sent, points):
    """The unit-amplitude signal v[:, x0] points[x1] of each use, (T, B)."""
    x0, x1 = np.divmod(sent, points.size)
    return v[:, x0].T * points[x1, None]


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
        v, noise = transmit(cb.beamformers, cb.combiners, h,
                            np.zeros((1, 1)))
        z = amplitude * use_signal(v, np.array([3]), points) + noise
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
        noise = rng.normal(0.0, sigma, (draws, 2)) \
            + 1j * rng.normal(0.0, sigma, (draws, 2))
        _, combined = transmit(cb.beamformers, cb.combiners,
                               realization.matrix, noise)
        measured = np.mean(np.abs(combined) ** 2, axis=0)
        np.testing.assert_allclose(measured, noise_w, rtol=0.03)

    def test_dimension_mismatch_rejected(self):
        realization, cb, _ = make_link()
        with pytest.raises(ValueError):
            transmit(cb.beamformers, cb.combiners, realization.matrix[:, :4],
                     np.zeros((1, 2)))

    def test_branch_amplitudes_are_per_branch_projections(self):
        realization, cb, _ = make_link(seed=5, order=4)
        h = realization.matrix
        expected = [cb.combiners[:, c].conj() @ h @ cb.beamformers[:, c]
                    for c in range(4)]
        np.testing.assert_allclose(branch_amplitudes(cb, h), expected,
                                   rtol=1e-12, atol=0)


class TestBranchNoise:
    """``transmit`` maps white branch noise z through the R factor of
    W = QR; fed z = n Q^*, it must return the antenna-space n W^*."""

    @staticmethod
    def codebooks():
        """OP and HE8 at N_r > B, two equal combiner columns, N_r < B."""
        realization, cb, _ = make_link(seed=4, order=4)
        h = realization.matrix
        duplicate = dataclasses.replace(
            cb, combiners=cb.combiners[:, [0, 0, 2, 3]])
        small, cb_small, _ = make_link(seed=4, n=2, order=4)
        he8 = dataclasses.replace(
            cb, beamformers=quantize_weights(cb.beamformers, FpsBank(8)),
            combiners=quantize_weights(cb.combiners, FpsBank(8)))
        return [(h, cb), (h, he8),
                (h, duplicate), (small.matrix, cb_small)]

    def test_equals_antenna_noise_through_the_combiners(self):
        rng = np.random.default_rng(8)
        for h, cb in self.codebooks():
            n_r, order = cb.combiners.shape
            antenna = receive_noise(rng, (30, n_r), 1.0)
            q, _ = np.linalg.qr(cb.combiners)
            # columns past min(N_r, B) must not reach the output
            branch = receive_noise(rng, (30, order), 1.0)
            branch[:, :q.shape[1]] = antenna @ q.conj()
            _, combined = transmit(cb.beamformers, cb.combiners, h, branch)
            expected = antenna @ cb.combiners.conj()
            assert (np.linalg.norm(combined - expected)
                    <= 1e-12 * np.linalg.norm(expected))

    def test_covariance_is_noise_power_times_gram(self):
        # E[c^H c] of the combined row c = sigma^2 (W^H W)^*
        draws = 20_000
        noise_w = 2.0
        rng = np.random.default_rng(12)
        for h, cb in self.codebooks()[:3]:
            order = cb.combiners.shape[1]
            branch = receive_noise(rng, (draws, order), np.sqrt(noise_w / 2))
            _, combined = transmit(cb.beamformers, cb.combiners, h, branch)
            measured = combined.conj().T @ combined / draws
            gram = cb.combiners.conj().T @ cb.combiners
            # each entry's sampling SD is at most sigma^2 max|w_c|^2 / sqrt(n)
            tolerance = 5.0 * noise_w * gram.diagonal().real.max() \
                / np.sqrt(draws)
            assert np.abs(measured - noise_w * gram.conj()).max() < tolerance

    def test_rejects_antenna_space_noise(self):
        realization, cb, _ = make_link(order=2)
        with pytest.raises(ValueError, match=r"noise must be \(T, B\)"):
            transmit(cb.beamformers, cb.combiners, realization.matrix,
                     np.zeros((1, 8)))


class TestMlDetect:
    def test_noiseless_exhaustive_exact(self):
        for order in (2, 4):
            realization, cb, amplitude = make_link(order=order)
            x0, x1 = all_hypotheses(order, 4)
            c_hat, s_hat = noiseless_decisions(realization, cb, amplitude,
                                               x0, x1)
            assert np.array_equal(c_hat, x0) and np.array_equal(s_hat, x1)
            assert count_bit_errors(x0 * 4 + x1, c_hat * 4 + s_hat) == 0

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
        v = swapped.combiners.conj().T @ h @ cb.beamformers
        decided = detect(v, np.array([1]), np.zeros((1, 2), complex),
                         np.array([amplitude]),
                         branch_amplitudes(swapped, h), points)
        c_hat, s_hat = np.divmod(decided, points.size)
        assert (c_hat[0, 0], s_hat[0, 0]) == (1, 1)
        # sent (0, 1) is index 1
        assert count_bit_errors(np.array([1]), decided).tolist() == [1]

    def test_common_scaling_invariance(self):
        realization, cb, amplitude = make_link(order=4)
        points = psk_constellation(4)
        h = realization.matrix
        rng = np.random.default_rng(3)
        v, combined = transmit(cb.beamformers, cb.combiners, h,
                               receive_noise(rng, (1, 4), np.sqrt(1e-9 / 2)))
        hyp = branch_amplitudes(cb, h)
        amplitudes = np.array([amplitude])
        sent = np.array([2 * 4 + 1])
        det_a = detect(v, sent, combined, amplitudes, hyp, points)
        det_b = detect(v, sent, 2.0 * combined, 2.0 * amplitudes, hyp,
                       points)
        assert np.array_equal(det_a, det_b)

    def test_wrong_length_rejected(self):
        realization, cb, amplitude = make_link(order=2)
        with pytest.raises(ValueError):
            detect(np.zeros((3, 3), complex), np.zeros(1, int),
                   np.zeros((1, 3), complex), np.array([amplitude]),
                   branch_amplitudes(cb, realization.matrix),
                   psk_constellation(4))

    def test_ties_go_to_lowest_cluster_then_symbol(self):
        # equal branch amplitudes and no signal or noise: every
        # hypothesis ties, at every amplitude
        points = psk_constellation(4)
        c_hat, s_hat = np.divmod(detect(np.zeros((2, 2), complex),
                                        np.zeros(2, int),
                                        np.zeros((2, 2), complex),
                                        np.array([1.0, 0.5, 3.0]),
                                        np.ones(2, complex), points),
                                 points.size)
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
        v, combined = transmit(cb.beamformers, cb.combiners, h,
                               receive_noise(rng, (x0.size, order), 1e-6))
        hyp = branch_amplitudes(cb, h)
        amplitudes = amplitude * np.array([0.1, 1.0, 30.0])
        scale = 2.0 ** exponent
        sent = x0 * m + x1
        base = detect(v, sent, combined, amplitudes, hyp, points)
        scaled = detect(v, sent, scale * combined, scale * amplitudes, hyp,
                        points)
        assert np.array_equal(base, scaled)

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
        he_weights = np.stack([cb.beamformers, cb.combiners])
        v, noise = transmit(*quantize_weights(he_weights, FpsBank(n_f)), h,
                            receive_noise(rng, (uses, order), sigma))
        sent = x0 * m + x1
        signal = use_signal(v, sent, points)
        hyp = branch_amplitudes(cb, h)
        amplitudes = (sigma / np.abs(hyp).mean()
                      * 10.0 ** np.array(snr_exponents))
        subset = np.arange(0, amplitudes.size, 2)[::-1]   # gaps, reversed

        def oracle(a):
            z = a * signal + noise
            metric = np.abs(z[:, :, None]
                            - a * hyp[None, :, None] * points) ** 2
            return np.divmod(metric.reshape(uses, -1).argmin(axis=1), m)

        every = np.divmod(detect(v, sent, noise, amplitudes, hyp, points), m)
        some = np.divmod(detect(v, sent, noise, amplitudes[subset], hyp,
                                points), m)
        for p, a in enumerate(amplitudes):
            c_ref, s_ref = oracle(a)
            assert np.array_equal(every[0][p], c_ref)
            assert np.array_equal(every[1][p], s_ref)
        for row, p in enumerate(subset):
            assert np.array_equal(some[0][row], every[0][p])
            assert np.array_equal(some[1][row], every[1][p])


def exhaustive(v, sent, noise, amplitudes, hyp, points):
    """Brute-force (cluster, symbol) argmin of |z - a hyp s|^2 per power,
    each (P, T)."""
    signal = use_signal(v, sent, points)
    decisions = []
    for a in amplitudes:
        z = a * signal + noise
        metric = np.abs(z[:, :, None] - a * hyp[:, None] * points) ** 2
        decisions.append(metric.reshape(len(z), -1).argmin(axis=1))
    return np.divmod(np.array(decisions), points.size)


def thresholds(v, sent, noise, hyp, points):
    """The amplitude above which each use settles without a search."""
    d = use_signal(v, sent, points)[:, :, None] - hyp[:, None] * points
    return decision_bound((d.imag ** 2 + d.real ** 2).reshape(len(d), -1),
                          np.arange(len(d)), noise)[1]


def assert_exhaustive(v, sent, noise, amplitudes, hyp, points):
    got = np.divmod(detect(v, sent, noise, amplitudes, hyp, points),
                    points.size)
    expected = exhaustive(v, sent, noise, amplitudes, hyp, points)
    assert np.array_equal(got[0], expected[0])
    assert np.array_equal(got[1], expected[1])
    return got


def noisy_link(seed=2, order=4, m=4, uses=60, n_f=None, sigma=1e-6):
    """Effective channel, sent indices, combined noise, hypothesis values
    and points of a noisy link, on an HE``n_f``-quantized signal path
    unless ``n_f`` is None."""
    realization, cb, _ = make_link(seed=seed, clusters=max(order, 4),
                                   order=order)
    points = psk_constellation(m)
    h = realization.matrix
    rng = np.random.default_rng(seed)
    x0 = rng.integers(0, order, uses)
    x1 = rng.integers(0, m, uses)
    weights = np.stack([cb.beamformers, cb.combiners])
    if n_f is not None:
        weights = quantize_weights(weights, FpsBank(n_f))
    v, noise = transmit(*weights, h, receive_noise(rng, (uses, order), sigma))
    return v, x0 * m + x1, noise, branch_amplitudes(cb, h), points


class TestDistanceBound:
    """Decisions the distance bound settles without a search must be the
    exhaustive search's, and so must the searched ones."""

    def test_one_hypothesis_settles_above_zero(self):
        v, sent, noise, hyp, points = noisy_link(order=1, m=1)
        assert np.all(thresholds(v, sent, noise, hyp, points) == 0.0)
        c_hat, s_hat = assert_exhaustive(v, sent, noise,
                                         np.array([0.0, 1e-9, 1.0]), hyp,
                                         points)
        assert not c_hat.any() and not s_hat.any()

    def test_exact_distance_ties_never_settle(self):
        # no signal and equal branch amplitudes: every |d| is 1.  Use 0
        # has the same noise on both branches, so clusters 0 and 1 tie
        # exactly and cluster 0 wins; use 1 has noise on branch 1 only,
        # which wins there, though h* is (0, 0)
        points = psk_constellation(4)
        j = np.abs(points - 1j).argmin()
        noise = 0.5 * points[j] * np.array([[1.0, 1.0], [0.0, 1.0]])
        v = np.zeros((2, 2), complex)
        sent = np.zeros(2, int)
        hyp = np.ones(2, complex)
        assert np.all(thresholds(v, sent, noise, hyp, points) == np.inf)
        amplitudes = np.array([0.0, 0.3, 1.0, 1e6])
        c_hat, s_hat = assert_exhaustive(v, sent, noise, amplitudes, hyp,
                                         points)
        assert c_hat[1:].tolist() == [[0, 1]] * 3
        assert s_hat[1:].tolist() == [[j, j]] * 3

    def test_noiseless_8psk_settles_every_use(self):
        realization, cb, amplitude = make_link(order=4)
        points = psk_constellation(8)
        h = realization.matrix
        x0, x1 = all_hypotheses(4, 8)
        v, noise = transmit(cb.beamformers, cb.combiners, h,
                            np.zeros((x0.size, 4)))
        sent = x0 * 8 + x1
        hyp = branch_amplitudes(cb, h)
        assert np.all(thresholds(v, sent, noise, hyp, points) == 0.0)
        c_hat, s_hat = assert_exhaustive(
            v, sent, noise, amplitude * np.array([1e-6, 1.0, 1e6]), hyp,
            points)
        assert np.all(c_hat == x0) and np.all(s_hat == x1)

    def test_amplitude_zero_searches_every_use(self):
        v, sent, noise, hyp, points = noisy_link()
        assert np.all(thresholds(v, sent, noise, hyp, points) > 0.0)
        c_hat, s_hat = assert_exhaustive(v, sent, noise, np.array([0.0]),
                                         hyp, points)
        # only |n_c|^2 is left: the quietest branch, lowest symbol
        assert np.array_equal(c_hat[0], np.abs(noise).argmin(axis=1))
        assert not s_hat.any()

    def test_amplitude_exactly_at_a_threshold(self):
        v, sent, noise, hyp, points = noisy_link(n_f=4)
        threshold = thresholds(v, sent, noise, hyp, points)
        finite = np.sort(threshold[np.isfinite(threshold)])
        at = finite[len(finite) // 2]
        amplitudes = np.array([np.nextafter(at, 0.0), at,
                               np.nextafter(at, np.inf)])
        assert_exhaustive(v, sent, noise, amplitudes, hyp, points)

    def test_leaves_its_distance_table_bit_identical(self):
        # h*'s entries are overwritten and restored: in place where the
        # table is contiguous, in a copy where it is a strided view, whose
        # buffer's other columns must stay untouched too
        v, sent, noise, hyp, points = noisy_link(n_f=4)
        d = use_signal(v, sent, points)[:, :, None] - hyp[:, None] * points
        table = (d.imag ** 2 + d.real ** 2).reshape(len(d), -1)
        rows = np.arange(len(d))
        wide = np.arange(2.0 * table.size).reshape(len(table), -1)
        wide[:, ::2] = table
        view = wide[:, ::2]
        assert not view.flags.c_contiguous
        expected = decision_bound(table.copy(), rows, noise)
        for distance, buffer in ((table, table), (view, wide)):
            before = buffer.copy()
            got = decision_bound(distance, rows, noise)
            assert buffer.tobytes() == before.tobytes()
            assert all(np.array_equal(a, b) for a, b in zip(got, expected))

    @settings(max_examples=25, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), order=st.sampled_from([1, 2, 4]),
           m=st.sampled_from([2, 4, 8]),
           n_f=st.sampled_from([None, 3, 4, 8]),
           snr_exponents=st.lists(st.floats(-2.0, 4.0), min_size=1,
                                  max_size=6))
    def test_property_settled_and_searched_match(self, seed, order, m, n_f,
                                                 snr_exponents):
        # amplitudes put the mean branch amplitude at 1e-2 to 1e4 times
        # the noise SD, plus one point at each end of that range
        v, sent, noise, hyp, points = noisy_link(seed, order, m, 40, n_f)
        exponents = np.array(snr_exponents + [-2.0, 4.0])
        amplitudes = 1e-6 / np.abs(hyp).mean() * 10.0 ** exponents
        settled = amplitudes[:, None] > thresholds(v, sent, noise, hyp,
                                                   points)
        assert settled.any() and not settled.all()
        assert_exhaustive(v, sent, noise, amplitudes, hyp, points)


def stacked_links(seeds, order, m, uses, n_f=None):
    """``noisy_link`` of each seed, stacked on a leading realization axis."""
    links = [noisy_link(seed, order, m, uses, n_f) for seed in seeds]
    v, sent, noise, hyp = (np.stack(parts)
                           for parts in zip(*(link[:4] for link in links)))
    return v, sent, noise, hyp, links[0][4]


class TestSentSignalTable:
    """``detect`` builds d and the bound's distance part once per sent
    index of a realization and reads it per use; the decisions must not
    show it."""

    def test_fewer_uses_than_hypotheses(self):
        # 8x16 at T = 3: 128 hypotheses, at most 3 rows per realization;
        # indices repeat within and across realizations
        v, _, noise, hyp, points = stacked_links((1, 2, 3), 8, 16, 3, n_f=4)
        sent = np.array([[5, 5, 100], [5, 77, 127], [0, 5, 5]])
        amplitudes = 1e-6 / np.abs(hyp).mean() * np.logspace(-2, 4, 13)
        decided = np.divmod(detect(v, sent, noise, amplitudes, hyp, points),
                            points.size)
        settled = 0
        for i in range(len(v)):
            expected = exhaustive(v[i], sent[i], noise[i], amplitudes,
                                  hyp[i], points)
            assert np.array_equal(decided[0][i], expected[0])
            assert np.array_equal(decided[1][i], expected[1])
            settled += np.count_nonzero(amplitudes[:, None] > thresholds(
                v[i], sent[i], noise[i], hyp[i], points))
        assert 0 < settled < decided[0].size

    def test_permuting_the_uses_permutes_the_decisions(self):
        v, sent, noise, hyp, points = noisy_link(seed=5, m=8, uses=60, n_f=4)
        amplitudes = 1e-6 / np.abs(hyp).mean() * np.logspace(-2, 4, 7)
        decided = detect(v, sent, noise, amplitudes, hyp, points)
        permutation = np.random.default_rng(5).permutation(sent.size)
        permuted = detect(v, sent[permutation], noise[permutation],
                          amplitudes, hyp, points)
        assert np.array_equal(permuted, decided[:, permutation])

    @pytest.mark.parametrize("order, m, uses", [(8, 64, 10), (4, 8, 500),
                                                (2, 4, 8), (2, 2, 1)])
    def test_detect_allocation_is_bounded(self, order, m, uses):
        # every hypothesis sent where T >= B M, so the table is as large
        # as it gets.  The decisions must be the exhaustive search's, and
        # where 4 floats per metric entry (32 U B M bytes for U uses) are
        # large enough for array headers not to count, ``detect`` must
        # allocate less than twice that: a full (B M)^2 table would take
        # 6 MB per realization at 8x64
        v, sent, noise, hyp, points = stacked_links((1, 2), order, m, uses)
        sent[:, :order * m] = np.arange(min(uses, order * m))
        amplitudes = 1e-6 / np.abs(hyp).mean() * np.logspace(-2, 4, 7)
        tracemalloc.start()
        try:
            decided = detect(v, sent, noise, amplitudes, hyp, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for i in range(len(v)):
            c_hat, s_hat = exhaustive(v[i], sent[i], noise[i], amplitudes,
                                      hyp[i], points)
            assert np.array_equal(decided[i], c_hat * m + s_hat)
        four_floats = 32 * sent.size * order * m
        if four_floats >= 100_000:
            assert peak < 2 * four_floats


class TestStackedRealizations:
    """Leading axes of ``transmit`` and ``detect`` stack realizations, as
    the sweep's blocks do; each realization's results equal a call on it
    alone, bit for bit."""

    @pytest.mark.parametrize("n, n_f", [(8, None), (8, 8), (2, None)],
                             ids=["OP", "HE8", "N_r<B"])
    def test_equals_single_realization_calls(self, n, n_f):
        order, uses = 4, 20
        points = psk_constellation(4)
        links = [make_link(seed=seed, n=n, order=order)[:2]
                 for seed in (1, 2, 3)]
        h = np.stack([realization.matrix for realization, _ in links])
        weights = np.stack([[cb.beamformers for _, cb in links],
                            [cb.combiners for _, cb in links]])
        if n_f is not None:
            weights = quantize_weights(weights, FpsBank(n_f))
        hyp = np.stack([branch_amplitudes(cb, realization.matrix)
                        for realization, cb in links])
        rng = np.random.default_rng(6)
        x0 = rng.integers(0, order, (len(links), uses))
        x1 = rng.integers(0, points.size, (len(links), uses))
        sigma = 1e-6
        noise = receive_noise(rng, (len(links), uses, order), sigma)
        # mean branch amplitude 0.1 to 100 times the noise SD
        amplitudes = sigma / np.abs(hyp).mean() * np.array([0.1, 1.0, 100.0])

        v, combined = transmit(*weights, h, noise)
        sent = x0 * points.size + x1
        c_hat, s_hat = np.divmod(detect(v, sent, combined, amplitudes, hyp,
                                        points), points.size)
        assert c_hat.shape == s_hat.shape == (len(links), 3, uses)
        for i in range(len(links)):
            one = transmit(weights[0, i], weights[1, i], h[i], noise[i])
            assert np.array_equal(v[i], one[0])
            assert np.array_equal(combined[i], one[1])
            c_one, s_one = np.divmod(detect(one[0], sent[i], one[1],
                                            amplitudes, hyp[i], points),
                                     points.size)
            assert np.array_equal(c_hat[i], c_one)
            assert np.array_equal(s_hat[i], s_one)
        assert np.any(c_hat != x0[:, None]) and np.any(c_hat == x0[:, None])

    def test_rejects_noise_of_another_stack(self):
        realization, cb, _ = make_link(order=2)
        stack = np.stack([cb.beamformers, cb.beamformers])
        with pytest.raises(ValueError, match=r"noise must be \(T, B\)"):
            transmit(stack, np.stack([cb.combiners] * 2),
                     np.stack([realization.matrix] * 2), np.zeros((3, 3, 2)))


class TestBitAccounting:
    def test_counts_on_natural_and_gray_labels(self):
        # B = M = 4: index c M + s is c's two bits above s's
        sent = np.array([0b10_01, 0b10_01])
        assert count_bit_errors(sent[:1], np.array([0b01_10])) == 4
        assert count_bit_errors(sent[:1], np.array([0b11_00])) == 2
        # a batch sums its uses
        assert count_bit_errors(sent, np.array([0b01_10, 0b11_00])) == 6
        # one count per leading index of the decisions
        decided = np.array([[0b01_10, 0b11_00], [0b10_01, 0b10_01],
                            [0b11_01, 0b10_00]], dtype=np.uint8)
        assert count_bit_errors(sent, decided).tolist() == [6, 0, 2]

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(log_order=st.integers(0, 4), log_m=st.integers(0, 4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_property_index_counts_equal_label_counts(self, log_order,
                                                      log_m, seed):
        # B, M in {1, 2, 4, 8, 16}: the bits in which two indices c M + s
        # differ are those in which the clusters differ plus those in
        # which the symbols do
        order, m = 1 << log_order, 1 << log_m
        rng = np.random.default_rng(seed)
        x0 = rng.integers(0, order, (3, 1, 20))
        x1 = rng.integers(0, m, (3, 1, 20))
        c_hat = rng.integers(0, order, (3, 2, 20))
        s_hat = rng.integers(0, m, (3, 2, 20))
        decided = (c_hat * m + s_hat).astype(
            np.min_scalar_type(order * m - 1))
        by_label = (np.bitwise_count(x0 ^ c_hat).sum(axis=-1)
                    + np.bitwise_count(x1 ^ s_hat).sum(axis=-1))
        assert np.array_equal(count_bit_errors(x0 * m + x1, decided),
                              by_label)

    @pytest.mark.parametrize("order, m, dtype",
                             [(16, 16, np.uint8), (32, 16, np.uint16)])
    def test_index_dtype_holds_every_hypothesis(self, order, m, dtype):
        # B M = 256 indices fit in uint8, 512 need uint16: without noise
        # every hypothesis, the last one included, decides its own index
        points = psk_constellation(m)
        sent = np.arange(order * m)
        # v[:, x0] points[x1] = points[x1] on branch x0, unit hypothesis
        # values
        decided = detect(np.eye(order, dtype=complex), sent,
                         np.zeros((sent.size, order), complex),
                         np.array([1.0, 1e3]), np.ones(order, complex), points)
        assert decided.dtype == dtype
        assert np.array_equal(decided, [sent, sent])
        assert count_bit_errors(sent, decided).tolist() == [0, 0]

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
        noise = rng.normal(0, sigma, (trials, 2)) \
            + 1j * rng.normal(0, sigma, (trials, 2))
        h = realization.matrix
        v, combined = transmit(cb.beamformers, cb.combiners, h, noise)
        decided = detect(v, x0 * 4 + x1, combined, np.array([amplitude]),
                         branch_amplitudes(cb, h), points)
        (ber,) = count_bit_errors(x0 * 4 + x1, decided) / (3 * trials)
        assert ber < 1e-3
