"""CIM transmission: bit mapping, channel pass and ML detection.

A channel use carries log2(B) spatial bits (which indexed cluster the
beam points at, natural-binary labels over the gain-sorted codebook) and
log2(M) constellation bits (Gray-mapped unit-energy PSK).  The receiver
forms one combiner branch per indexed cluster and jointly detects both
symbols by exhaustive minimum-distance search over the B*M hypotheses

    |z(c) - a hyp(c) s|^2,    a = sqrt(P) G_t G_r,  hyp(c) = w_c^H H f_c,

ties resolved toward the lowest cluster, then lowest symbol index.
Since z = a signal + n, the metric is |n + a d|^2 with
d = signal - hyp(c) s, which expands to

    |n|^2 + a (2 Re(conj(n) d) + a |d|^2):

the three real terms do not depend on the power, so ``detect`` builds
them once and decides every amplitude of a power sweep from them.
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


def detect(signal: np.ndarray, noise: np.ndarray, amplitudes: np.ndarray,
           hyp: np.ndarray,
           points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joint ML (cluster, symbol) decisions of T channel uses at P
    amplitudes, each (P, T).

    ``signal`` and ``noise`` are the unit-amplitude signal and combined
    noise of ``transmit``, (T, B); at amplitude a the decision is the
    argmin over the B*M hypotheses of |a signal(c) + noise(c) -
    a hyp[c] points[s]|^2, where ``hyp`` holds the branch amplitudes;
    ties go to the lowest cluster, then symbol."""
    d = signal[:, :, None] - hyp[:, None] * points                # (T, B, M)
    noise = noise[:, :, None]
    # |n|^2 repeated over the symbols: a broadcast add is slower
    noise_power = np.repeat(noise.real ** 2 + noise.imag ** 2, points.size,
                            axis=2)
    cross = 2.0 * (noise.real * d.real + noise.imag * d.imag)
    distance = d.real ** 2 + d.imag ** 2
    metric = np.empty_like(distance)
    flat = np.empty((len(amplitudes), signal.shape[0]), dtype=np.intp)
    for p, a in enumerate(amplitudes):
        np.multiply(distance, a, out=metric)
        metric += cross
        metric *= a
        metric += noise_power
        flat[p] = metric.reshape(signal.shape[0], -1).argmin(axis=1)
    return np.divmod(flat, points.size)


def count_bit_errors(x0: np.ndarray, x1: np.ndarray, c_hat: np.ndarray,
                     s_hat: np.ndarray) -> np.ndarray:
    """Spatial plus constellation bit errors of T channel uses: decisions
    (..., T) against the sent labels (T,) give one count per leading
    index, shape (...)."""
    return (np.bitwise_count(x0 ^ c_hat).sum(axis=-1, dtype=np.int64)
            + np.bitwise_count(x1 ^ s_hat).sum(axis=-1, dtype=np.int64))
