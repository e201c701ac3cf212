"""Single CIM transmission: bit mapping, channel pass and ML detection.

A channel use carries log2(B) spatial bits (which indexed cluster the
beam points at, natural-binary labels over the gain-sorted codebook) and
log2(M) constellation bits (Gray-mapped unit-energy PSK).  The receiver
forms one combiner branch per indexed cluster and jointly detects both
symbols by exhaustive minimum-distance search over the B*M hypotheses

    |z(c) - sqrt(P) G_t G_r w_c^H H f_c s|^2,

ties resolved toward the lowest cluster, then lowest symbol index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codebook import CimCodebook


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watt(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def array_gain_db(n_elements: int) -> float:
    """Antenna array gain model: 4 + 10*log10(sqrt(N)) dB."""
    return 4.0 + 10.0 * np.log10(np.sqrt(n_elements))


@dataclass(frozen=True)
class LinkConfig:
    order: int                 # B, spatial alphabet size
    constellation: int         # M, PSK order
    power_w: float             # transmit power, linear watts
    tx_gain: float             # linear amplitude multipliers per the
    rx_gain: float             # received-signal model
    noise_var_w: float         # complex noise variance, watts
    n_rf: int = 0              # receive RF chains; 0 means order

    def __post_init__(self) -> None:
        for name in ("power_w", "tx_gain", "rx_gain"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.noise_var_w < 0:
            raise ValueError("noise variance must be nonnegative")
        for name in ("order", "constellation"):
            v = getattr(self, name)
            if v < 1 or (v & (v - 1)) != 0:
                raise ValueError(f"{name} must be a power of two")
        n_rf = self.n_rf or self.order
        if self.order > n_rf:
            raise ValueError("order must not exceed the RF chain count")

    @property
    def amplitude(self) -> float:
        """Common scale sqrt(P) * G_t * G_r of every received hypothesis."""
        return np.sqrt(self.power_w) * self.tx_gain * self.rx_gain

    @property
    def bits_per_use(self) -> int:
        return int(np.log2(self.order) + np.log2(self.constellation))


def gray_code(value: int) -> int:
    return value ^ (value >> 1)


def psk_constellation(m: int) -> np.ndarray:
    """Unit-energy PSK points indexed by their Gray bit label.

    points[label] is the phase-2*pi*k/m point whose Gray code equals
    ``label``, so adjacent phases differ in exactly one bit.
    """
    if m < 1 or (m & (m - 1)) != 0:
        raise ValueError("constellation order must be a power of two")
    points = np.empty(m, dtype=complex)
    for k in range(m):
        points[gray_code(k)] = np.exp(2j * np.pi * k / m)
    return points


@dataclass(frozen=True)
class TxSymbols:
    """One channel use: spatial value x0 in [0, B), symbol value x1 in [0, M)."""

    cluster_symbol: int
    constellation_symbol: int
    point: complex

    @staticmethod
    def from_values(x0: int, x1: int, constellation: np.ndarray) -> "TxSymbols":
        return TxSymbols(x0, x1, complex(constellation[x1]))


@dataclass(frozen=True)
class DetectionResult:
    cluster_symbol: int
    constellation_symbol: int
    point: complex


def transmit_and_receive(cb: CimCodebook, h: np.ndarray, tx: TxSymbols,
                         cfg: LinkConfig,
                         rng: np.random.Generator) -> np.ndarray:
    """Combined receive vector z (length B) for one channel use."""
    if cb.beamformers.shape[0] != h.shape[1] or cb.combiners.shape[0] != h.shape[0]:
        raise ValueError("codebook and channel dimensions disagree")
    f = cb.beamformers[:, tx.cluster_symbol]
    y = cfg.amplitude * (h @ f) * tx.point
    if cfg.noise_var_w > 0:
        sigma = np.sqrt(cfg.noise_var_w / 2.0)
        y = y + rng.normal(0.0, sigma, y.shape) + 1j * rng.normal(0.0, sigma, y.shape)
    return cb.combiners.conj().T @ y


def branch_amplitudes(cb: CimCodebook, h: np.ndarray) -> np.ndarray:
    """Per-branch channel projections w_c^H H f_c, shape (B,)."""
    return ((cb.combiners.conj().T @ h) * cb.beamformers.T).sum(axis=1)


def ml_detect(z: np.ndarray, cb: CimCodebook, h: np.ndarray,
              cfg: LinkConfig) -> DetectionResult:
    """Joint exhaustive search over (cluster, symbol) hypotheses."""
    z = np.asarray(z)
    if z.shape[0] != cb.order:
        raise ValueError("received vector length must equal the codebook order")
    constellation = psk_constellation(cfg.constellation)
    hyp = cfg.amplitude * branch_amplitudes(cb, h)
    metric = np.abs(z[:, None] - hyp[:, None] * constellation[None, :]) ** 2
    c_hat, s_hat = np.unravel_index(np.argmin(metric), metric.shape)
    return DetectionResult(int(c_hat), int(s_hat),
                           complex(constellation[s_hat]))


def bit_errors(tx: TxSymbols, detected: DetectionResult,
               cfg: LinkConfig) -> tuple[int, int]:
    """(spatial, constellation) bit error counts for one channel use."""
    spatial = (tx.cluster_symbol ^ detected.cluster_symbol).bit_count()
    symbol = (tx.constellation_symbol ^ detected.constellation_symbol).bit_count()
    return spatial, symbol
