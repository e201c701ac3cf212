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
channel uses; a single use is a batch of one.  ``transmit`` and
``detect`` also take leading axes that stack independent realizations.

Receive noise n ~ CN(0, sigma^2 I_N) reaches the detector only as n W^*,
so ``transmit`` takes it in branch space, as a white (T, B) draw z:
with W = QR, n W^* = (n Q^*) R^* and n Q^* ~ CN(0, sigma^2 I_k), so
z[:, :k] R^* (k = min(N_r, B)) has exactly the law of n W^*.  QR exists
for every W, also a rank-deficient one (two equal columns).
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


def transmit(beamformers: np.ndarray, combiners: np.ndarray, h: np.ndarray,
             x0: np.ndarray, symbols: np.ndarray,
             noise: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signal and combined noise of T channel uses through beamformers F
    (..., N_t, B) and combiners W (..., N_r, B) over channels h
    (..., N_r, N_t).

    Use t sends PSK point ``symbols[..., t]`` on codeword ``x0[..., t]``;
    ``noise`` is a white (..., T, B) branch-space draw z with the
    per-antenna noise variance.  Returns the unit-amplitude signal
    (W^H H F)[:, x0[t]] symbols[t] and the combined noise z[:, :k] @ R^*,
    where W = QR and R is (k, B) with k = min(N_r, B), each (..., T, B).
    Since n @ W^* = (n @ Q^*) @ R^* and n @ Q^* is white, this is
    distributed as the antenna noise n (T, N_r) combined by W.  At
    amplitude a = sqrt(P) G_t G_r the combined receive vectors are
    z = a * signal + combined noise.

    Leading axes, the same on every argument, stack independent
    realizations; a single realization has none.  Each realization's
    results are bit-identical to a call on it alone.
    """
    v = combiners.conj().mT @ h @ beamformers                  # (..., B, B)
    expected = x0.shape + v.shape[-1:]
    if noise.shape != expected:
        raise ValueError(f"noise must be (T, B) = {expected}, "
                         f"got {noise.shape}")
    r = np.linalg.qr(combiners, mode="r")
    signal = np.take_along_axis(v.mT, x0[..., None], axis=-2)
    return (signal * symbols[..., None],
            noise[..., :r.shape[-2]] @ r.conj())


def branch_amplitudes(cb: CimCodebook, h: np.ndarray) -> np.ndarray:
    """Per-branch channel projections w_c^H H f_c, shape (B,)."""
    return ((cb.combiners.conj().T @ h) * cb.beamformers.T).sum(axis=1)


def detect(signal: np.ndarray, noise: np.ndarray, amplitudes: np.ndarray,
           hyp: np.ndarray, points: np.ndarray,
           workspace: np.ndarray | None = None
           ) -> tuple[np.ndarray, np.ndarray]:
    """Joint ML (cluster, symbol) decisions of T channel uses at P
    amplitudes, each (..., P, T).

    ``signal`` and ``noise`` are the unit-amplitude signal and combined
    noise of ``transmit``, (..., T, B); at amplitude a the decision is
    the argmin over the B*M hypotheses of |a signal(c) + noise(c) -
    a hyp[c] points[s]|^2, where ``hyp`` (..., B) holds the branch
    amplitudes; ties go to the lowest cluster, then symbol.  Leading
    axes stack realizations as in ``transmit``.  The metric's terms are
    built in a float (4, ..., T, B, M) ``workspace``, allocated here
    unless given: a caller that detects block after block passes one."""
    metric, distance, cross, noise_power = (
        np.empty((4,) + signal.shape + points.shape) if workspace is None
        else workspace)
    # d = signal - hyp points: its real part in metric, imaginary in distance
    hp = hyp[..., None, :, None] * points
    np.subtract(signal.real[..., None], hp.real, out=metric)
    np.subtract(signal.imag[..., None], hp.imag, out=distance)
    noise = noise[..., None]
    np.multiply(noise.real, metric, out=cross)
    cross += np.multiply(noise.imag, distance, out=noise_power)
    cross *= 2.0
    distance **= 2
    distance += np.square(metric, out=metric)
    # |n|^2 repeated over the symbols: a broadcast add in the loop is slower
    noise_power[...] = noise.real ** 2 + noise.imag ** 2
    hypotheses = signal.shape[:-1] + (-1,)                 # (..., T, B M)
    flat = np.empty(signal.shape[:-2] + (len(amplitudes), signal.shape[-2]),
                    dtype=np.intp)
    for p, a in enumerate(amplitudes):
        np.multiply(distance, a, out=metric)
        metric += cross
        metric *= a
        metric += noise_power
        flat[..., p, :] = metric.reshape(hypotheses).argmin(axis=-1)
    return np.divmod(flat, points.size)


def count_bit_errors(x0: np.ndarray, x1: np.ndarray, c_hat: np.ndarray,
                     s_hat: np.ndarray) -> np.ndarray:
    """Spatial plus constellation bit errors of T channel uses: decisions
    (..., T) against the sent labels, broadcast against them, give one
    count per leading index, shape (...)."""
    return (np.bitwise_count(x0 ^ c_hat).sum(axis=-1, dtype=np.int64)
            + np.bitwise_count(x1 ^ s_hat).sum(axis=-1, dtype=np.int64))
