import numpy as np
import pytest

from cimsim.arrays import (GeometrySpec, element_positions, steering,
                           unit_directions)
from cimsim.channel import ChannelConfig, path_loss, sample_realization

LAM = 0.0107068735


def small_positions(n=2):
    return element_positions(GeometrySpec.ula(n, LAM))


def outer_product_sum(r, tx, rx):
    """H rebuilt path by path from the stored gains and angles:
    sqrt(N_t N_r / (C L)) sum_{c,l} gain a_r a_t^H, each response
    exp(j 2 pi p.d / lambda) / sqrt(N) written out."""
    def response(pos, az, el):
        d = np.array([np.sin(el) * np.cos(az), np.sin(el) * np.sin(az),
                      np.cos(el)])
        phase = 2 * np.pi / r.wavelength * (pos @ d)
        return np.exp(1j * phase) / np.sqrt(len(pos))

    c_count, l_count = r.gains.shape
    h = np.zeros((len(rx), len(tx)), dtype=complex)
    for c in range(c_count):
        for l in range(l_count):
            a_t = response(tx, r.aod_az[c, l], r.aod_el[c, l])
            a_r = response(rx, r.aoa_az[c, l], r.aoa_el[c, l])
            h += r.gains[c, l] * np.outer(a_r, a_t.conj())
    return np.sqrt(len(tx) * len(rx) / (c_count * l_count)) * h


class TestPathLoss:
    def test_unit_distance_is_intercept(self):
        assert path_loss(1.0, 72.0, 2.92, 0.0) == 72.0

    def test_scenario_distance_closed_form(self):
        # 72 + 29.2*log10(150), evaluated independently
        assert abs(path_loss(150.0, 72.0, 2.92, 0.0)
                   - 135.5418647644259) < 1e-10

    def test_shadowing_shifts_additively_with_configured_std(self):
        rng = np.random.default_rng(5)
        xi = rng.normal(0.0, 8.7, 100_000)
        pl = np.array([path_loss(150.0, 72.0, 2.92, x) for x in xi[:100]])
        np.testing.assert_allclose(pl - 135.5418647644259, xi[:100],
                                   atol=1e-9)
        full = 135.5418647644259 + xi
        assert abs(np.std(full) - 8.7) < 0.1

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            path_loss(0.0)


class TestChannelConfig:
    def test_defaults_match_scenario(self):
        cfg = ChannelConfig()
        assert cfg.clusters == 8 and cfg.paths_per_cluster == 10
        assert abs(cfg.distance - 150.0) < 1e-12
        assert abs(np.rad2deg(cfg.angular_spread_rad) - 7.5) < 1e-12

    @pytest.mark.parametrize("kwargs", [
        dict(clusters=0),
        dict(paths_per_cluster=0),
        dict(angular_spread_rad=0.0),
        dict(shadowing_std_db=-1.0),
        dict(rx_position=(25.0, 25.0, 9.0)),
    ])
    def test_invalid_configs_raise(self, kwargs):
        with pytest.raises(ValueError):
            ChannelConfig(**kwargs)

    @pytest.mark.parametrize("key,value", [
        ("carrier_hz", np.nan), ("carrier_hz", np.inf),
        ("angular_spread_rad", np.nan), ("shadowing_std_db", np.nan),
        ("pathloss_exponent", np.inf), ("pathloss_intercept_db", -np.inf),
        ("tx_position", (25.0, np.nan, 9.0)),
        ("rx_position", (np.inf, 175.0, 9.0)),
    ])
    def test_non_finite_values_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be finite, got "):
            ChannelConfig(**{key: value})


class TestSampleRealization:
    def test_single_path_limit_is_rank_one(self):
        cfg = ChannelConfig(clusters=1, paths_per_cluster=1,
                            angular_spread_rad=1e-12, shadowing_std_db=0.0)
        pos = small_positions(4)
        r = sample_realization(cfg, pos, pos, seed=9)
        np.testing.assert_allclose(r.matrix, outer_product_sum(r, pos, pos),
                                   rtol=1e-12)
        s = np.linalg.svd(r.matrix, compute_uv=False)
        assert s[1] < 1e-12 * s[0]
        # offsets vanish, so path angles sit on the cluster means
        assert abs(r.aod_az[0, 0] - r.mean_aod_az[0]) < 1e-9

    def test_matrix_shape_matches_arrays(self):
        cfg = ChannelConfig()
        tx = small_positions(3)
        rx = small_positions(5)
        r = sample_realization(cfg, tx, rx, seed=1)
        assert r.matrix.shape == (5, 3)

    def test_fixed_seed_reproduces_bit_identically(self):
        cfg = ChannelConfig()
        pos = small_positions(4)
        a = sample_realization(cfg, pos, pos, seed=123)
        b = sample_realization(cfg, pos, pos, seed=123)
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.gains, b.gains)
        assert np.array_equal(a.aoa_el, b.aoa_el)
        assert a.shadow_db == b.shadow_db

    def test_cached_steering_matrices_match_stored_angles(self):
        cfg = ChannelConfig(clusters=3, paths_per_cluster=4)
        tx = small_positions(3)
        rx = small_positions(5)
        r = sample_realization(cfg, tx, rx, seed=31)
        # path c*L + l in column c*L + l
        assert np.array_equal(r.a_t, steering(
            tx, unit_directions(r.aod_az.ravel(), r.aod_el.ravel()),
            r.wavelength))
        assert np.array_equal(r.a_r, steering(
            rx, unit_directions(r.aoa_az.ravel(), r.aoa_el.ravel()),
            r.wavelength))
        np.testing.assert_allclose(r.a_t[:, 2 * 4 + 1], steering(
            tx, unit_directions(r.aod_az[2, 1], r.aod_el[2, 1]),
            r.wavelength), atol=1e-15)
        assert r.a_t.shape == (3, 12) and r.a_r.shape == (5, 12)

    def test_reassembly_reproduces_stored_matrix(self):
        cfg = ChannelConfig()
        pos = small_positions(6)
        r = sample_realization(cfg, pos, pos, seed=77)
        rebuilt = outer_product_sum(r, pos, pos)
        err = np.linalg.norm(rebuilt - r.matrix) / np.linalg.norm(r.matrix)
        assert err < 1e-10

    def test_gain_variance_tracks_pathloss_without_shadowing(self):
        cfg = ChannelConfig(shadowing_std_db=0.0)
        pos = small_positions(2)
        samples = []
        for seed in range(500):
            r = sample_realization(cfg, pos, pos, seed=seed)
            samples.append(np.abs(r.gains) ** 2)
        mean = np.mean(samples)
        expected = 10 ** (-0.1 * 135.5418647644259)
        assert abs(mean / expected - 1.0) < 0.03

    def test_frobenius_scaling_invariant(self):
        # E[||H||_F^2] = N_t * N_r * sigma^2, checked per realization
        cfg = ChannelConfig(clusters=2, paths_per_cluster=2)
        tx = small_positions(2)
        rx = small_positions(3)
        ratios = np.empty(10_000)
        for seed in range(ratios.size):
            r = sample_realization(cfg, tx, rx, seed=seed)
            ratios[seed] = (np.linalg.norm(r.matrix) ** 2 / r.gain_variance)
        assert abs(ratios.mean() / (2 * 3) - 1.0) < 0.05

    def test_laplacian_offset_std_matches_angular_spread(self):
        cfg = ChannelConfig(clusters=4, paths_per_cluster=250,
                            angular_spread_rad=np.deg2rad(7.5))
        pos = small_positions(2)
        offsets = []
        for seed in range(100):
            r = sample_realization(cfg, pos, pos, seed=seed)
            raw = r.aod_az - r.mean_aod_az[:, None]
            offsets.append(np.angle(np.exp(1j * raw)))
        std = np.std(np.concatenate([o.ravel() for o in offsets]))
        assert abs(np.rad2deg(std) - 7.5) / 7.5 < 0.03

    def test_angle_ranges(self):
        cfg = ChannelConfig(angular_spread_rad=np.deg2rad(30.0))
        pos = small_positions(2)
        r = sample_realization(cfg, pos, pos, seed=2)
        for el in (r.aod_el, r.aoa_el):
            assert np.all((el >= 0.0) & (el <= np.pi))
        for az in (r.aod_az, r.aoa_az):
            assert np.all((az >= 0.0) & (az < 2 * np.pi))
