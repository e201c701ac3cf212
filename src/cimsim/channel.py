"""Clustered Saleh-Valenzuela channel sampling.

A realization draws C cluster mean angles (azimuth uniform on [0, 2*pi),
polar elevation uniform on [0, pi)), spreads L paths per cluster with
independent Laplacian offsets whose standard deviation equals the
configured angular spread and gives every path an i.i.d. circular
complex Gaussian gain with variance set by the link path loss
(``draw_paths``).  None of that depends on the arrays, so one draw
serves every element layout: per layout, ``sample_realization`` assembles

    H = sqrt(N_t N_r / (C L)) * sum_{c,l} gain_{c,l} a_r a_t^H

from the transmit/receive steering vectors.  Both ends of the link use
the same element layout, so N_t = N_r = N.  Shadowing is drawn once
per realization (slow fading); no line-of-sight component is ever
generated.  The link enters only through the path loss ``PATH_LOSS_DB``
of the scenario's 150 m link, since cluster angles are drawn whatever
the end positions; the carrier is fixed at 28 GHz (``arrays.WAVELENGTH``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .arrays import WAVELENGTH, steering, unit_directions


def require_number(key: str, value, low: int | None = None):
    """``value`` if it is a finite int or float, or an int of at least
    ``low`` where ``low`` is given, and no bool; a ValueError naming
    ``key`` otherwise."""
    kind = (int, float) if low is None else int
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "a real number" if low is None else "an integer"
        raise ValueError(f"{key} must be {noun}, got {value!r}")
    if isinstance(value, float) and not np.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value}")
    if low is not None and value < low:
        raise ValueError(f"{key} must be at least {low}, got {value}")
    return value


@dataclass(frozen=True)
class ChannelConfig:
    """Scenario parameters; defaults follow the simulated urban deployment."""

    clusters: int = 8
    paths_per_cluster: int = 10
    angular_spread_deg: float = 7.5
    shadowing_std_db: float = 8.7

    def __post_init__(self) -> None:
        for key in ("clusters", "paths_per_cluster"):
            require_number(key, getattr(self, key), 1)
        for key in ("angular_spread_deg", "shadowing_std_db"):
            require_number(key, getattr(self, key))
        if self.angular_spread_deg <= 0:
            raise ValueError(f"angular_spread_deg must be positive, got "
                             f"{self.angular_spread_deg:g}")
        if self.shadowing_std_db < 0:
            raise ValueError(f"shadowing_std_db must be nonnegative, got "
                             f"{self.shadowing_std_db:g}")


# Path loss in dB before shadowing: the 28 GHz NLOS fit of Akdeniz et al.
# (IEEE JSAC 2014; 72 dB, exponent 2.92, 8.7 dB shadowing) over the
# Tx (25, 25, 9) m to Rx (25, 175, 9) m link, d = 150 m.
PATH_LOSS_DB = 72.0 + 10.0 * 2.92 * np.log10(150.0)


@dataclass
class ChannelPaths:
    """The layout-free part of one channel drop: per-path angles, their
    unit directions, gains, shadowing and gain variance."""

    gains: np.ndarray             # (C, L) complex
    aod_az: np.ndarray            # (C, L) radians
    aod_el: np.ndarray
    aoa_az: np.ndarray
    aoa_el: np.ndarray
    shadow_db: float
    gain_variance: float          # linear, 10**(-0.1 * PL)
    aod_dirs: np.ndarray = field(repr=False)   # (C*L, 3), path c*L + l
    aoa_dirs: np.ndarray = field(repr=False)


@dataclass
class ChannelRealization(ChannelPaths):
    """One channel drop between two arrays of one element layout: its
    paths, their steering matrices and the assembled matrix."""

    matrix: np.ndarray            # (N, N) complex, receive by transmit
    a_t: np.ndarray = field(repr=False)   # (N, C*L) path steering columns
    a_r: np.ndarray = field(repr=False)   # (N, C*L), path c*L + l


def _combine_paths(gains: np.ndarray, a_t: np.ndarray,
                   a_r: np.ndarray) -> np.ndarray:
    """sqrt(N_t N_r / (C L)) * sum of gain * a_r a_t^H over the path columns."""
    c_count, l_count = gains.shape
    scale = np.sqrt(a_t.shape[0] * a_r.shape[0] / (c_count * l_count))
    return scale * (a_r * gains.ravel()) @ a_t.conj().T


def _fold_elevation(el: np.ndarray) -> np.ndarray:
    """Reflect angles into [0, pi] (polar convention stays valid)."""
    el = np.mod(el, 2.0 * np.pi)
    return np.where(el > np.pi, 2.0 * np.pi - el, el)


def draw_paths(cfg: ChannelConfig, seed: "int | list[int]") -> ChannelPaths:
    """Draw the paths of one seeded channel realization.

    ``seed`` is anything ``np.random.SeedSequence`` takes.  Sub-streams
    for angles, gains and shadowing are spawned deterministically from
    it, so every field is reproducible bit-for-bit for a fixed seed.
    Nothing here depends on an element layout, so one draw serves every
    geometry through ``sample_realization``.
    """
    angle_rng, gain_rng, shadow_rng = map(
        np.random.default_rng, np.random.SeedSequence(seed).spawn(3))

    c_count, l_count = cfg.clusters, cfg.paths_per_cluster
    mean_aod_az = angle_rng.uniform(0.0, 2.0 * np.pi, c_count)
    mean_aod_el = angle_rng.uniform(0.0, np.pi, c_count)
    mean_aoa_az = angle_rng.uniform(0.0, 2.0 * np.pi, c_count)
    mean_aoa_el = angle_rng.uniform(0.0, np.pi, c_count)

    # Laplacian offsets with std equal to the angular spread.
    lap_scale = np.deg2rad(cfg.angular_spread_deg) / np.sqrt(2.0)
    offsets = angle_rng.laplace(0.0, lap_scale, size=(4, c_count, l_count))
    aod_az = np.mod(mean_aod_az[:, None] + offsets[0], 2.0 * np.pi)
    aod_el = _fold_elevation(mean_aod_el[:, None] + offsets[1])
    aoa_az = np.mod(mean_aoa_az[:, None] + offsets[2], 2.0 * np.pi)
    aoa_el = _fold_elevation(mean_aoa_el[:, None] + offsets[3])

    shadow_db = float(shadow_rng.normal(0.0, cfg.shadowing_std_db)) \
        if cfg.shadowing_std_db > 0 else 0.0
    variance = 10.0 ** (-0.1 * (PATH_LOSS_DB + shadow_db))

    sigma = np.sqrt(variance / 2.0)
    gains = gain_rng.normal(0.0, sigma, (c_count, l_count)) \
        + 1j * gain_rng.normal(0.0, sigma, (c_count, l_count))
    return ChannelPaths(
        gains=gains, aod_az=aod_az, aod_el=aod_el, aoa_az=aoa_az,
        aoa_el=aoa_el, shadow_db=shadow_db, gain_variance=variance,
        aod_dirs=unit_directions(aod_az.ravel(), aod_el.ravel()),
        aoa_dirs=unit_directions(aoa_az.ravel(), aoa_el.ravel()))


def sample_realization(paths: ChannelPaths,
                       positions: np.ndarray) -> ChannelRealization:
    """The realization of drawn ``paths`` between two arrays that both
    have the element ``positions``.

    The per-path steering matrices the channel matrix is assembled from
    are kept as ``a_t`` / ``a_r``, so the codebook reuses them instead
    of rebuilding them.
    """
    a_t = steering(positions, paths.aod_dirs, WAVELENGTH)
    a_r = steering(positions, paths.aoa_dirs, WAVELENGTH)
    return ChannelRealization(**vars(paths), a_t=a_t, a_r=a_r,
                              matrix=_combine_paths(paths.gains, a_t, a_r))
