import re

import numpy as np
import pytest

from cimsim.arrays import (WAVELENGTH, scenario_geometry, steering,
                           unit_directions)
from cimsim.channel import (PATH_LOSS_DB, ChannelConfig, draw_paths,
                            sample_realization)


def small_positions(n=2):
    return scenario_geometry("ULA", WAVELENGTH, n).positions


def cluster_mean_azimuths(cfg, seed):
    """The (AoD, AoA) cluster mean azimuths sample_realization draws for
    an int seed: the first and third uniform draws of its angle stream."""
    angle_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[0])
    aod = angle_rng.uniform(0.0, 2.0 * np.pi, cfg.clusters)
    angle_rng.uniform(0.0, np.pi, cfg.clusters)
    return aod, angle_rng.uniform(0.0, 2.0 * np.pi, cfg.clusters)


def outer_product_sum(r, tx, rx):
    """H rebuilt path by path from the stored gains and angles:
    sqrt(N_t N_r / (C L)) sum_{c,l} gain a_r a_t^H, each response
    exp(j 2 pi p.d / lambda) / sqrt(N) written out."""
    def response(pos, az, el):
        d = np.array([np.sin(el) * np.cos(az), np.sin(el) * np.sin(az),
                      np.cos(el)])
        phase = 2 * np.pi / WAVELENGTH * (pos @ d)
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
    def test_scenario_distance_closed_form(self):
        # 72 + 29.2*log10(150), evaluated independently
        assert abs(PATH_LOSS_DB - 135.5418647644259) < 1e-10

    def test_shadowing_shifts_additively_with_configured_std(self):
        # each draw's gain variance is 10**(-0.1 (PL + shadow)), and the
        # shadows have the configured 8.7 dB standard deviation
        cfg = ChannelConfig(clusters=1, paths_per_cluster=1)
        draws = [draw_paths(cfg, seed) for seed in range(2000)]
        shadow = np.array([d.shadow_db for d in draws])
        loss = -10.0 * np.log10([d.gain_variance for d in draws])
        np.testing.assert_allclose(loss - 135.5418647644259, shadow,
                                   atol=1e-9)
        assert abs(np.std(shadow) - 8.7) < 0.3

    def test_nonpositive_distance_rejected(self):
        # no link length can be set, zero or otherwise: the one link is the
        # scenario's, fixed in PATH_LOSS_DB
        with refusal("distance_m", None):
            ChannelConfig(distance_m=0.0)


# ChannelConfig errors, each naming its key
KEY_ERRORS = [
    ("clusters", 0, "clusters must be at least 1, got 0"),
    ("paths_per_cluster", 0, "paths_per_cluster must be at least 1, got 0"),
    ("clusters", 2.5, "clusters must be an integer, got 2.5"),
    ("paths_per_cluster", True,
     "paths_per_cluster must be an integer, got True"),
    ("angular_spread_deg", 0.0, "angular_spread_deg must be positive, got 0"),
    ("angular_spread_deg", "7.5",
     "angular_spread_deg must be a real number, got '7.5'"),
    ("shadowing_std_db", -1.0, "shadowing_std_db must be nonnegative, got -1"),
    ("distance_m", 0, None),  # a link-budget key: refused whatever the value
]

# The link budget is the scenario's PATH_LOSS_DB, so ChannelConfig has no key
# for it and refuses each of these by name, whatever the value.
LINK_BUDGET_KEYS = ("pathloss_intercept_db", "pathloss_exponent", "distance_m")


def refusal(key, message):
    """Expect ``ChannelConfig(**{key: value})`` to fail naming ``key``: with a
    ValueError matching ``message``, or, for a link-budget key, with the
    constructor's TypeError."""
    if key in LINK_BUDGET_KEYS:
        return pytest.raises(TypeError,
                             match=f"unexpected keyword argument '{key}'$")
    return pytest.raises(ValueError, match=message)


class TestChannelConfig:
    def test_defaults_match_scenario(self):
        cfg = ChannelConfig()
        assert cfg.clusters == 8 and cfg.paths_per_cluster == 10
        assert cfg.angular_spread_deg == 7.5
        assert cfg.shadowing_std_db == 8.7

    @pytest.mark.parametrize("kwargs", [
        dict(clusters=0),
        dict(paths_per_cluster=0),
        dict(angular_spread_deg=0.0),
        dict(shadowing_std_db=-1.0),
        dict(angular_spread_deg=-1.0),
        dict(shadowing_std_db=np.inf),
        dict(clusters=2.5),
        dict(paths_per_cluster=True),
        dict(angular_spread_deg="7.5"),
        dict(shadowing_std_db=None),
    ])
    def test_invalid_configs_raise(self, kwargs):
        with pytest.raises(ValueError):
            ChannelConfig(**kwargs)

    @pytest.mark.parametrize("key,value,message", KEY_ERRORS,
                             ids=[f"{k}={v!r}" for k, v, _ in KEY_ERRORS])
    def test_error_names_the_key(self, key, value, message):
        with refusal(key, message and f"^{re.escape(message)}$"):
            ChannelConfig(**{key: value})

    @pytest.mark.parametrize("key,value", [
        ("angular_spread_deg", np.nan), ("shadowing_std_db", np.nan),
        ("distance_m", np.nan), ("distance_m", np.inf),
    ])
    def test_non_finite_values_rejected(self, key, value):
        with refusal(key, f"^{key} must be finite, got "):
            ChannelConfig(**{key: value})

    @pytest.mark.parametrize("key", LINK_BUDGET_KEYS)
    def test_link_budget_is_not_a_key(self, key):
        # another link only shifts the powers
        with refusal(key, None):
            ChannelConfig(**{key: 1.0})


class TestSampleRealization:
    def test_single_path_limit_is_rank_one(self):
        cfg = ChannelConfig(clusters=1, paths_per_cluster=1,
                            angular_spread_deg=np.rad2deg(1e-12),
                            shadowing_std_db=0.0)
        pos = small_positions(4)
        r = sample_realization(draw_paths(cfg, 9), pos)
        np.testing.assert_allclose(r.matrix, outer_product_sum(r, pos, pos),
                                   rtol=1e-12)
        s = np.linalg.svd(r.matrix, compute_uv=False)
        assert s[1] < 1e-12 * s[0]
        # offsets vanish, so path angles sit on the cluster means
        aod_mean, aoa_mean = cluster_mean_azimuths(cfg, 9)
        assert abs(r.aod_az[0, 0] - aod_mean[0]) < 1e-9
        assert abs(r.aoa_az[0, 0] - aoa_mean[0]) < 1e-9

    def test_fixed_seed_reproduces_bit_identically(self):
        cfg = ChannelConfig()
        pos = small_positions(4)
        a = sample_realization(draw_paths(cfg, 123), pos)
        b = sample_realization(draw_paths(cfg, 123), pos)
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.gains, b.gains)
        assert np.array_equal(a.aoa_el, b.aoa_el)
        assert a.shadow_db == b.shadow_db

    def test_cached_steering_matrices_match_stored_angles(self):
        cfg = ChannelConfig(clusters=3, paths_per_cluster=4)
        pos = small_positions(5)
        r = sample_realization(draw_paths(cfg, 31), pos)
        # path c*L + l in column c*L + l
        assert np.array_equal(r.a_t, steering(
            pos, unit_directions(r.aod_az.ravel(), r.aod_el.ravel()),
            WAVELENGTH))
        assert np.array_equal(r.a_r, steering(
            pos, unit_directions(r.aoa_az.ravel(), r.aoa_el.ravel()),
            WAVELENGTH))
        np.testing.assert_allclose(r.a_t[:, 2 * 4 + 1], steering(
            pos, unit_directions(r.aod_az[2, 1], r.aod_el[2, 1]),
            WAVELENGTH), atol=1e-15)
        assert r.a_t.shape == (5, 12) and r.a_r.shape == (5, 12)

    def test_reassembly_reproduces_stored_matrix(self):
        cfg = ChannelConfig()
        pos = small_positions(6)
        r = sample_realization(draw_paths(cfg, 77), pos)
        rebuilt = outer_product_sum(r, pos, pos)
        err = np.linalg.norm(rebuilt - r.matrix) / np.linalg.norm(r.matrix)
        assert err < 1e-10

    def test_gain_variance_tracks_pathloss_without_shadowing(self):
        cfg = ChannelConfig(shadowing_std_db=0.0)
        pos = small_positions(2)
        samples = []
        for seed in range(500):
            r = sample_realization(draw_paths(cfg, seed), pos)
            samples.append(np.abs(r.gains) ** 2)
        mean = np.mean(samples)
        expected = 10 ** (-0.1 * 135.5418647644259)
        assert abs(mean / expected - 1.0) < 0.03

    def test_frobenius_scaling_invariant(self):
        # E[||H||_F^2] = N^2 sigma^2 (N_t = N_r = N), checked per realization
        cfg = ChannelConfig(clusters=2, paths_per_cluster=2)
        pos = small_positions(3)
        ratios = np.empty(10_000)
        for seed in range(ratios.size):
            r = sample_realization(draw_paths(cfg, seed), pos)
            ratios[seed] = (np.linalg.norm(r.matrix) ** 2 / r.gain_variance)
        assert abs(ratios.mean() / (3 * 3) - 1.0) < 0.05

    def test_laplacian_offset_std_matches_angular_spread(self):
        cfg = ChannelConfig(clusters=4, paths_per_cluster=250,
                            angular_spread_deg=7.5)
        pos = small_positions(2)
        offsets = []
        for seed in range(100):
            r = sample_realization(draw_paths(cfg, seed), pos)
            raw = r.aod_az - cluster_mean_azimuths(cfg, seed)[0][:, None]
            offsets.append(np.angle(np.exp(1j * raw)))
        std = np.std(np.concatenate([o.ravel() for o in offsets]))
        assert abs(np.rad2deg(std) - 7.5) / 7.5 < 0.03

    def test_angle_ranges(self):
        cfg = ChannelConfig(angular_spread_deg=30.0)
        pos = small_positions(2)
        r = sample_realization(draw_paths(cfg, 2), pos)
        for el in (r.aod_el, r.aoa_el):
            assert np.all((el >= 0.0) & (el <= np.pi))
        for az in (r.aod_az, r.aoa_az):
            assert np.all((az >= 0.0) & (az < 2 * np.pi))
