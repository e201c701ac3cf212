import hashlib

import numpy as np
import pytest

from cimsim.arrays import (WAVELENGTH, ArrayKind, scenario_geometry,
                           steering, unit_directions)


def table_specs():
    return [scenario_geometry(k, WAVELENGTH) for k in ArrayKind]


def extended_precision_error(pos, directions):
    """Largest distance of the steering entries from exp(j 2 pi p.d /
    lambda) / sqrt(N) evaluated on the same float inputs in extended
    precision."""
    if np.finfo(np.longdouble).precision < 18:
        pytest.skip("np.longdouble is no wider than float64 here")
    a = steering(pos, directions, WAVELENGTH)
    wide = np.longdouble
    phase = (2 * np.arccos(wide(-1)) / wide(WAVELENGTH)
             * (pos.astype(wide) @ directions.T.astype(wide)))
    norm = np.sqrt(wide(len(pos)))
    return np.hypot(a.real - np.cos(phase) / norm,
                    a.imag - np.sin(phase) / norm).max()


class TestElementPositions:
    def test_ula_two_elements_half_wavelength(self):
        pos = scenario_geometry("ULA", 1.0, 2).positions
        np.testing.assert_allclose(pos, [[0, 0, 0], [0, 0, 0.5]])

    def test_cca_scenario_has_82_elements_on_four_rings(self):
        spec = scenario_geometry("CCA", WAVELENGTH)
        pos = spec.positions
        assert pos.shape == (82, 3)
        radii = np.linalg.norm(pos[:, :2], axis=1)
        expected = np.repeat([0.76, 1.36, 2.09, 2.99], [9, 17, 25, 31])
        np.testing.assert_allclose(radii, expected * WAVELENGTH, rtol=1e-12)
        assert np.all(pos[:, 2] == 0.0)

    def test_ura_9x9_half_wavelength_grid(self):
        pos = scenario_geometry("URA", WAVELENGTH, 81).positions
        assert pos.shape == (81, 3)
        assert np.all(pos[:, 2] == 0.0)
        # row-major by (n_x, n_y): second entry advances n_y
        np.testing.assert_allclose(pos[1], [0.0, WAVELENGTH / 2, 0.0])
        np.testing.assert_allclose(pos[9], [WAVELENGTH / 2, 0.0, 0.0])
        steps_x = np.unique(np.diff(np.unique(pos[:, 0])))
        np.testing.assert_allclose(steps_x, WAVELENGTH / 2)

    def test_uca_placement_angles(self):
        spec = scenario_geometry("UCA", 1.0, 8)
        pos = spec.positions
        ang = np.arctan2(pos[:, 1], pos[:, 0])
        expected = np.angle(np.exp(2j * np.pi * np.arange(8) / 8))
        np.testing.assert_allclose(ang, expected, atol=1e-12)

    def test_ordering_is_deterministic(self):
        for spec in table_specs():
            a = spec.positions
            b = spec.positions
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind,digest", [
        ("ULA", "a5124494e41fb08c338b64af86e74d1d3fb4da842a87a9de7d14969455b39e4c"),
        ("URA", "283ff51777d8ab7fb655276cbc3c6e2b31d826d9784d246d6d0fe2e0ec8a0e9e"),
        ("UCA", "3c5e3dd60c84cf0bb777778d17e13b2687d3fc4435caf6260747848d46c8f94b"),
        ("CCA", "3b48ec00032f1a647cddcf6b91379f7d2ad34ae4545444c73a0a4ec51c1aa0a3"),
    ])
    def test_scenario_positions_are_pinned_bytes(self, kind, digest):
        # sha256 of the float64 bytes at 28 GHz: any change to the float
        # operations building a layout, or to their order, fails here
        pos = scenario_geometry(kind, WAVELENGTH).positions
        assert hashlib.sha256(pos.tobytes()).hexdigest() == digest
        with pytest.raises(ValueError, match="read-only"):
            pos[0, 0] = 1.0

    # Each case keeps its id, numbered in the order the cases were added,
    # so deleting a case renames no other.
    @pytest.mark.parametrize("bad", [
        pytest.param(lambda: scenario_geometry("ULA", 1.0, 0), id="<lambda>0"),
        pytest.param(lambda: scenario_geometry("URA", 1.0, 0), id="<lambda>1"),
        pytest.param(lambda: scenario_geometry("UCA", 1.0, 0), id="<lambda>2"),
        pytest.param(lambda: scenario_geometry("ULA", 0.0, 4), id="<lambda>5"),
        pytest.param(lambda: scenario_geometry("ULA", float("nan"), 4),
                     id="<lambda>6"),
        pytest.param(lambda: scenario_geometry("URA", float("inf"), 9),
                     id="<lambda>7"),
        pytest.param(lambda: scenario_geometry("CCA", 1.0, 16),
                     id="<lambda>8"),
    ])
    def test_invalid_specs_raise(self, bad):
        with pytest.raises(ValueError):
            bad()


def steer(pos, az, el, lam):
    return steering(pos, unit_directions(az, el), lam)


class TestWaveNumber:
    """The propagation vector (2 pi / lambda) d of the steering phase."""

    def test_boresight(self):
        np.testing.assert_allclose(2 * np.pi * unit_directions(0.0, 0.0),
                                   2 * np.pi * np.array([0, 0, 1]), atol=1e-12)

    def test_axis_case(self):
        np.testing.assert_allclose(
            2 * np.pi * unit_directions(np.pi / 2, np.pi / 2),
            2 * np.pi * np.array([0, 1, 0]), atol=1e-12)

    def test_28ghz_oblique_against_scalar_evaluation(self):
        # frozen from an independent scalar evaluation (math module); the
        # phase of element p is k.p
        k = [283.4203168443512, 75.94224501701682, 508.2154087934871]
        d = unit_directions(np.deg2rad(15.0), np.deg2rad(30.0))
        np.testing.assert_allclose(2 * np.pi / WAVELENGTH * d, k, rtol=1e-13)
        pos = np.eye(3)
        np.testing.assert_allclose(
            steering(pos, d, WAVELENGTH),
            np.exp(1j * np.array(k)) / np.sqrt(3), rtol=1e-12)

    def test_rejects_nonpositive_wavelength(self):
        for lam in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and positive"):
                steering(np.zeros((1, 3)), unit_directions(0.0, 0.0), lam)


class TestSteeringVector:
    def test_ula_broadside_is_uniform(self):
        pos = scenario_geometry("ULA", 1.0, 8).positions
        a = steer(pos, 1.234, np.pi / 2, 1.0)
        np.testing.assert_allclose(a, np.full(8, 1 / np.sqrt(8)), atol=1e-12)

    def test_planar_arrays_uniform_at_zenith(self):
        for kind in (ArrayKind.URA, ArrayKind.UCA, ArrayKind.CCA):
            spec = scenario_geometry(kind, WAVELENGTH)
            pos = spec.positions
            a = steer(pos, 0.7, 0.0, WAVELENGTH)
            n = spec.n_elements
            np.testing.assert_allclose(a, np.full(n, 1 / np.sqrt(n)),
                                       atol=1e-12)

    def test_single_element_identity(self):
        a = steer(np.zeros((1, 3)), 0.3, 0.9, 1.0)
        np.testing.assert_allclose(a, [1.0])

    def test_ura_self_product_and_cauchy_schwarz(self):
        pos = scenario_geometry("URA", WAVELENGTH, 81).positions
        a = steer(pos, np.deg2rad(15), np.deg2rad(30), WAVELENGTH)
        assert abs(np.vdot(a, a) - 1.0) < 1e-12
        broadside = steer(pos, 0.0, 0.0, WAVELENGTH)
        assert abs(np.vdot(broadside, a)) < 1.0

    def test_unit_norm_and_entry_magnitudes_everywhere(self):
        rng = np.random.default_rng(42)
        for spec in table_specs():
            pos = spec.positions
            n = spec.n_elements
            for _ in range(50):
                az = rng.uniform(-4 * np.pi, 4 * np.pi)
                el = rng.uniform(-np.pi, 2 * np.pi)
                a = steer(pos, az, el, WAVELENGTH)
                assert abs(np.linalg.norm(a) - 1.0) <= 1e-12
                np.testing.assert_allclose(np.abs(a), 1 / np.sqrt(n),
                                           atol=1e-14)

    def test_ula_independent_of_azimuth(self):
        pos = scenario_geometry("ULA", 1.0, 16).positions
        a = steer(pos, 0.1, 0.7, 1.0)
        b = steer(pos, 2.9, 0.7, 1.0)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_permuting_elements_permutes_entries(self):
        pos = scenario_geometry("UCA", 1.0, 16).positions
        perm = np.random.default_rng(3).permutation(16)
        a = steer(pos, 0.4, 1.1, 1.0)
        b = steer(pos[perm], 0.4, 1.1, 1.0)
        np.testing.assert_allclose(b, a[perm], atol=1e-14)

    def test_long_ula_matches_extended_precision(self):
        # 83 half-wavelength-spaced elements span 41 wavelengths, so the
        # phases reach 2 pi x 41; the reference evaluates the same float
        # inputs in extended precision
        pos = scenario_geometry("ULA", WAVELENGTH, 83).positions
        rng = np.random.default_rng(41)
        directions = np.vstack([
            [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]],
            unit_directions(rng.uniform(0, 2 * np.pi, 200),
                            rng.uniform(0, np.pi, 200))])
        assert extended_precision_error(pos, directions) <= 1e-14

    @pytest.mark.parametrize("kind", list(ArrayKind))
    def test_scenario_arrays_match_extended_precision(self, kind):
        pos = scenario_geometry(kind, WAVELENGTH).positions
        rng = np.random.default_rng(17)
        directions = unit_directions(rng.uniform(0, 2 * np.pi, 300),
                                     rng.uniform(0, np.pi, 300))
        assert extended_precision_error(pos, directions) <= 1e-14

    def test_exact_phases(self):
        # a ULA built for wavelength 0.5 and steered at wavelength 1 has
        # quarter-wavelength steps; toward +-z they give phases of exactly
        # 0, +-1/4 and +-1/2 cycle (the half cycles on both sides of the
        # reduction), where the tangent is 0, +-1 and about +-1.6e16
        n = 9
        pos = scenario_geometry("ULA", 0.5, n).positions
        a = steering(pos, np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]), 1.0)
        quarter_turns = np.array([1, 1j, -1, -1j])[np.arange(n) % 4]
        expected = np.column_stack([quarter_turns, quarter_turns.conj()])
        assert np.all(np.isfinite(a))
        assert np.abs(a - expected / np.sqrt(n)).max() <= 1e-16

    def test_direction_form_matches_angle_form(self):
        # one column per direction of a stack, each equal to the explicit
        # spherical-angle formula and to the single-direction call
        pos = scenario_geometry("URA", 1.0, 16).positions
        az = np.array([0.8, 2.5, -1.0])
        el = np.array([1.1, 0.3, 2.9])
        stack = steering(pos, unit_directions(az, el), 1.0)
        assert stack.shape == (16, 3)
        for j in range(3):
            phase = 2 * np.pi * (pos[:, 0] * np.sin(el[j]) * np.cos(az[j])
                                 + pos[:, 1] * np.sin(el[j]) * np.sin(az[j])
                                 + pos[:, 2] * np.cos(el[j]))
            np.testing.assert_allclose(stack[:, j], np.exp(1j * phase) / 4,
                                       atol=1e-13)
            np.testing.assert_allclose(stack[:, j],
                                       steer(pos, az[j], el[j], 1.0),
                                       atol=1e-15)

    def test_empty_positions_raise(self):
        with pytest.raises(ValueError):
            steer(np.zeros((0, 3)), 0.0, 0.0, 1.0)
