"""Clustered Saleh-Valenzuela channel sampling.

A realization draws C cluster mean angles (azimuth uniform on [0, 2*pi),
polar elevation uniform on [0, pi)), spreads L paths per cluster with
independent Laplacian offsets whose standard deviation equals the
configured angular spread, gives every path an i.i.d. circular complex
Gaussian gain with variance set by the link path loss, and assembles

    H = sqrt(N_t N_r / (C L)) * sum_{c,l} gain_{c,l} a_r a_t^H

from the transmit/receive steering vectors of the element layouts.
Shadowing is drawn once per realization (slow fading); no line-of-sight
component is ever generated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .arrays import SPEED_OF_LIGHT, steering, unit_directions


def require_finite(key: str, value):
    """``value`` (a number or a tuple of numbers) if no entry is NaN or
    infinite; a ValueError naming ``key`` otherwise."""
    for v in value if isinstance(value, tuple) else (value,):
        if isinstance(v, float) and not np.isfinite(v):
            raise ValueError(f"{key} must be finite, got {v}")
    return value


@dataclass(frozen=True)
class ChannelConfig:
    """Scenario parameters; defaults follow the simulated urban deployment."""

    clusters: int = 8
    paths_per_cluster: int = 10
    angular_spread_rad: float = np.deg2rad(7.5)
    pathloss_intercept_db: float = 72.0
    pathloss_exponent: float = 2.92
    shadowing_std_db: float = 8.7
    tx_position: tuple[float, float, float] = (25.0, 25.0, 9.0)
    rx_position: tuple[float, float, float] = (25.0, 175.0, 9.0)
    carrier_hz: float = 28e9

    def __post_init__(self) -> None:
        for key in ("angular_spread_rad", "pathloss_intercept_db",
                    "pathloss_exponent", "shadowing_std_db", "tx_position",
                    "rx_position", "carrier_hz"):
            require_finite(key, getattr(self, key))
        if self.clusters < 1 or self.paths_per_cluster < 1:
            raise ValueError("need at least one cluster and one path")
        if self.angular_spread_rad <= 0:
            raise ValueError("angular spread must be positive")
        if self.shadowing_std_db < 0:
            raise ValueError("shadowing std must be nonnegative")
        if self.carrier_hz <= 0:
            raise ValueError("carrier frequency must be positive")
        if np.allclose(self.tx_position, self.rx_position):
            raise ValueError("Tx and Rx positions must differ")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @property
    def distance(self) -> float:
        return float(np.linalg.norm(np.asarray(self.rx_position)
                                    - np.asarray(self.tx_position)))


def path_loss(distance: float, intercept_db: float = 72.0,
              exponent: float = 2.92, shadow_db: float = 0.0) -> float:
    """Link path loss in dB: intercept + 10*exponent*log10(d) + shadowing."""
    if distance <= 0:
        raise ValueError("distance must be positive")
    return intercept_db + 10.0 * exponent * np.log10(distance) + shadow_db


@dataclass
class ChannelRealization:
    """One channel drop: per-path geometry/gains, their steering matrices
    and the assembled matrix."""

    matrix: np.ndarray            # (N_r, N_t) complex
    gains: np.ndarray             # (C, L) complex
    aod_az: np.ndarray            # (C, L) radians
    aod_el: np.ndarray
    aoa_az: np.ndarray
    aoa_el: np.ndarray
    mean_aod_az: np.ndarray       # (C,) cluster means
    mean_aod_el: np.ndarray
    mean_aoa_az: np.ndarray
    mean_aoa_el: np.ndarray
    shadow_db: float
    gain_variance: float          # linear, 10**(-0.1 * PL)
    wavelength: float
    a_t: np.ndarray = field(repr=False)   # (N_t, C*L) path steering columns
    a_r: np.ndarray = field(repr=False)   # (N_r, C*L), path c*L + l

    @property
    def n_clusters(self) -> int:
        return self.gains.shape[0]

    @property
    def n_paths(self) -> int:
        return self.gains.shape[1]


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


def sample_realization(cfg: ChannelConfig, tx_positions: np.ndarray,
                       rx_positions: np.ndarray,
                       seed: "int | np.random.SeedSequence") -> ChannelRealization:
    """Draw one seeded channel realization.

    Sub-streams for angles, gains and shadowing are spawned
    deterministically from the seed, so every field is reproducible
    bit-for-bit for a fixed seed.  The per-path steering matrices the
    channel matrix is assembled from are kept as ``a_t`` / ``a_r``, so
    the codebook reuses them instead of rebuilding them.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    angle_rng, gain_rng, shadow_rng = map(np.random.default_rng, ss.spawn(3))

    c_count, l_count = cfg.clusters, cfg.paths_per_cluster
    mean_aod_az = angle_rng.uniform(0.0, 2.0 * np.pi, c_count)
    mean_aod_el = angle_rng.uniform(0.0, np.pi, c_count)
    mean_aoa_az = angle_rng.uniform(0.0, 2.0 * np.pi, c_count)
    mean_aoa_el = angle_rng.uniform(0.0, np.pi, c_count)

    # Laplacian offsets with std equal to the angular spread.
    lap_scale = cfg.angular_spread_rad / np.sqrt(2.0)
    offsets = angle_rng.laplace(0.0, lap_scale, size=(4, c_count, l_count))
    aod_az = np.mod(mean_aod_az[:, None] + offsets[0], 2.0 * np.pi)
    aod_el = _fold_elevation(mean_aod_el[:, None] + offsets[1])
    aoa_az = np.mod(mean_aoa_az[:, None] + offsets[2], 2.0 * np.pi)
    aoa_el = _fold_elevation(mean_aoa_el[:, None] + offsets[3])

    shadow_db = float(shadow_rng.normal(0.0, cfg.shadowing_std_db)) \
        if cfg.shadowing_std_db > 0 else 0.0
    pl_db = path_loss(cfg.distance, cfg.pathloss_intercept_db,
                      cfg.pathloss_exponent, shadow_db)
    variance = 10.0 ** (-0.1 * pl_db)

    sigma = np.sqrt(variance / 2.0)
    gains = gain_rng.normal(0.0, sigma, (c_count, l_count)) \
        + 1j * gain_rng.normal(0.0, sigma, (c_count, l_count))

    a_t = steering(tx_positions,
                   unit_directions(aod_az.ravel(), aod_el.ravel()),
                   cfg.wavelength)
    a_r = steering(rx_positions,
                   unit_directions(aoa_az.ravel(), aoa_el.ravel()),
                   cfg.wavelength)
    return ChannelRealization(
        matrix=_combine_paths(gains, a_t, a_r), gains=gains,
        aod_az=aod_az, aod_el=aod_el, aoa_az=aoa_az, aoa_el=aoa_el,
        mean_aod_az=mean_aod_az, mean_aod_el=mean_aod_el,
        mean_aoa_az=mean_aoa_az, mean_aoa_el=mean_aoa_el,
        shadow_db=shadow_db, gain_variance=variance,
        wavelength=cfg.wavelength, a_t=a_t, a_r=a_r,
    )
