"""CIM transmission: bit mapping, channel pass and ML detection.

A channel use carries log2(B) spatial bits (which indexed cluster the
beam points at, natural-binary labels over the gain-sorted codebook) and
log2(M) constellation bits (Gray-mapped unit-energy PSK).  The receiver
forms one combiner branch per indexed cluster and jointly detects both
symbols by exhaustive minimum-distance search over the B*M hypotheses

    |z(c) - sqrt(P) G_t G_r w_c^H H f_c s|^2,

ties resolved toward the lowest cluster, then lowest symbol index.
``transmit``, ``detect`` and ``count_bit_errors`` work on a batch of T
channel uses; a single use is a batch of one.
"""

from __future__ import annotations

import numpy as np

from .codebook import CimCodebook


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watt(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def array_gain_db(n_elements: int) -> float:
    """Antenna array gain model: 4 + 10*log10(sqrt(N)) dB."""
    return 4.0 + 10.0 * np.log10(np.sqrt(n_elements))


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


def transmit(cb: CimCodebook, h: np.ndarray, x0: np.ndarray,
             symbols: np.ndarray,
             noise: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signal and combined noise of T channel uses through a codebook.

    Use t sends PSK point ``symbols[t]`` on codeword ``x0[t]`` with
    receive noise ``noise[t]`` (shape (T, N_r)).  Returns the unit-amplitude
    signal (W^H H F)[:, x0[t]] symbols[t] and the combined noise
    noise[t] @ W^*, each (T, B); at amplitude a = sqrt(P) G_t G_r the
    combined receive vectors are z = a * signal + combined noise.
    """
    v = cb.combiners.conj().T @ h @ cb.beamformers
    return v[:, x0].T * symbols[:, None], noise @ cb.combiners.conj()


def branch_amplitudes(cb: CimCodebook, h: np.ndarray) -> np.ndarray:
    """Per-branch channel projections w_c^H H f_c, shape (B,)."""
    return ((cb.combiners.conj().T @ h) * cb.beamformers.T).sum(axis=1)


def detect(z: np.ndarray, amplitude: float, hyp: np.ndarray,
           points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joint ML (cluster, symbol) decisions for combined receive vectors
    ``z`` (T, B): the argmin over the B*M hypotheses of
    |z(c) - amplitude * hyp[c] * points[s]|^2, where ``hyp`` holds the
    branch amplitudes; ties go to the lowest cluster, then symbol."""
    ref = amplitude * hyp[:, None] * points[None, :]
    metric = np.abs(z[:, :, None] - ref[None, :, :]) ** 2
    flat = metric.reshape(z.shape[0], -1).argmin(axis=1)
    return np.divmod(flat, points.size)


def count_bit_errors(x0: np.ndarray, x1: np.ndarray, c_hat: np.ndarray,
                     s_hat: np.ndarray) -> int:
    """Spatial plus constellation bit errors over a batch of channel uses."""
    return int(np.bitwise_count(x0 ^ c_hat).sum(dtype=np.int64)
               + np.bitwise_count(x1 ^ s_hat).sum(dtype=np.int64))
