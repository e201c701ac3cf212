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

Most of those decisions need no search, as in sphere decoding.  Let h*
be the first hypothesis of least |d|, d1 <= d2 the two least |d| of a
use and nu = max_c |n_c|.  By the triangle inequality every h != h* has
|n + a d_h| >= L = a d2 - nu and h* has |n + a d_h*| <= a d1 + nu, so
wherever

    a (d2 - d1) - 2 nu > tau (a d2 + nu),    tau = SETTLE_TOLERANCE,

every other metric exceeds h*'s by more than tau L^2, and by nearly all
of itself where it is far above L^2.  There a d2 > 2 nu, so no term of
a metric exceeds 9 times the larger of the metric and L^2, and the four
float roundings that form a metric err by less than about 50 eps of
that: tau = 1e-12 is over 100 times as much.  So the float exhaustive
argmin is h*, and ``detect`` takes it without searching.  Exact ties
(d1 = d2) never settle, nor does a = 0; without noise, every other use
settles at every a > 0.

``detect`` returns each decision as its hypothesis index h = c M + s.
M is a power of two, so h's bits are the spatial label's above the
constellation label's, and ``count_bit_errors`` counts both labels' bit
errors as the bits in which h differs from the sent index.

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

import math
from functools import reduce

import numpy as np

from .codebook import CimCodebook

# tau of the distance bound that settles a decision without a search (see
# the module docstring): over 100 times the float metrics' rounding error
SETTLE_TOLERANCE = 1e-12


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


def decision_bound(distance: np.ndarray, noise: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Per channel use, the hypothesis h* that the distance bound picks and
    the amplitude above which it is the exhaustive search's decision.

    ``distance`` (U, B M) holds the float |d|^2 of every hypothesis and
    ``noise`` (U, B) the combined noise of U uses.  h* is the first
    argmin of |d|^2; d1 <= d2 are the two smallest |d| and nu = max_c
    |n_c|.  The threshold is the least a with a (d2 - d1) - 2 nu =
    SETTLE_TOLERANCE (a d2 + nu), and infinite where d2 - d1 is too small
    for any a, exact ties included.  ``distance`` is read only (its h*
    entries are overwritten and restored).
    """
    # one buffer for the reads and the writes below, also where reshape
    # has to copy
    entries = distance.reshape(-1)
    distance = entries.reshape(distance.shape)
    starts = np.arange(0, entries.size, distance.shape[1])
    at = starts + distance.argmin(axis=1)
    d1 = entries[at]
    entries[at] = np.inf
    d2 = entries[starts + distance.argmin(axis=1)]
    entries[at] = d1
    # max_c |n_c|^2 column by column: a reduction along short rows is slower
    nu = np.sqrt(reduce(np.maximum, (noise.real ** 2 + noise.imag ** 2).T))
    slack = (1.0 - SETTLE_TOLERANCE) * np.sqrt(d2) - np.sqrt(d1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        threshold = np.where(slack > 0.0,
                             (2.0 + SETTLE_TOLERANCE) * nu / slack, np.inf)
    return at - starts, threshold


def detect(signal: np.ndarray, noise: np.ndarray, amplitudes: np.ndarray,
           hyp: np.ndarray, points: np.ndarray,
           workspace: np.ndarray | None = None) -> np.ndarray:
    """Joint ML (cluster, symbol) decisions of T channel uses at P
    amplitudes, (..., P, T): the hypothesis index h = c M + s of each, in
    the smallest unsigned integer dtype that holds B M - 1.

    ``signal`` and ``noise`` are the unit-amplitude signal and combined
    noise of ``transmit``, (..., T, B); at amplitude a the decision is
    the argmin over the B*M hypotheses of |a signal(c) + noise(c) -
    a hyp[c] points[s]|^2, where ``hyp`` (..., B) holds the branch
    amplitudes; ties go to the lowest cluster, then symbol.  Leading
    axes stack realizations as in ``transmit``.  The metric's terms are
    built in a float (4, ..., T, B, M) ``workspace``, allocated here
    unless given: a caller that detects block after block passes one.

    A use whose ``decision_bound`` threshold lies below a takes h*
    without a search (see the module docstring).  The uses are ranked by
    falling threshold, and the terms of those some amplitude cannot
    settle are gathered into a prefix of the workspace; each amplitude
    searches the part of that prefix above it with the same float
    operations on the same values as the exhaustive search, so every
    decision, ties included, is the exhaustive search's bit for bit."""
    shape = signal.shape + points.shape                    # (..., T, B, M)
    uses = math.prod(signal.shape[:-1])
    work = (np.empty((4, uses, shape[-2] * shape[-1])) if workspace is None
            else workspace.reshape(4, uses, -1))           # (4, U, B M)
    real, imag, distance, spare = (slot.reshape(shape) for slot in work)
    # d = signal - hyp points, and its |d|^2
    hp = hyp[..., None, :, None] * points
    np.subtract(signal.real[..., None], hp.real, out=real)
    np.subtract(signal.imag[..., None], hp.imag, out=imag)
    np.square(imag, out=distance)
    distance += np.square(real, out=spare)
    noise = noise.reshape(uses, -1)
    best, threshold = decision_bound(work[2], noise)

    # uses by falling threshold: amplitude a searches the first
    # ``searched`` of them and settles the rest
    order = np.argsort(threshold)[::-1]
    searched = uses - np.searchsorted(threshold[order[::-1]], amplitudes)
    count = searched.max(initial=0)
    rows = order[:count]
    # gather |d|^2, Im d and Re d of those rows one slot down (mode="clip"
    # writes ``out`` unbuffered; every index is in range)
    for source in (2, 1, 0):
        np.take(work[source], rows, axis=0, out=work[source + 1][:count],
                mode="clip")
    cross, metric, noise_power, distance = work[:, :count]
    # metric holds Re d and noise_power Im d until 2 Re(conj(n) d) and |n|^2
    # (repeated over the symbols: a broadcast add in the loop is slower)
    # are formed, on (use, branch, symbol) views of the gathered rows
    c, re_d, im_d = (a.reshape((count,) + shape[-2:])
                     for a in (cross, metric, noise_power))
    gathered = noise[rows][..., None]
    np.multiply(gathered.real, re_d, out=c)
    c += np.multiply(gathered.imag, im_d, out=im_d)
    c *= 2.0
    im_d[...] = gathered.real ** 2 + gathered.imag ** 2
    index = np.min_scalar_type(shape[-2] * shape[-1] - 1)
    flat = np.tile(best.astype(index), (len(amplitudes), 1))
    for decided, a, n in zip(flat, amplitudes, searched.tolist()):
        m = metric[:n]
        np.multiply(distance[:n], a, out=m)
        m += cross[:n]
        m *= a
        m += noise_power[:n]
        decided[rows[:n]] = m.argmin(axis=1)
    return np.moveaxis(flat.reshape((len(amplitudes),) + signal.shape[:-1]),
                       0, -2)


def count_bit_errors(sent: np.ndarray, decided: np.ndarray) -> np.ndarray:
    """Spatial plus constellation bit errors of T channel uses: decided
    hypothesis indices c M + s (..., T) against the sent ones, broadcast
    against them, give one count per leading index, shape (...)."""
    return np.bitwise_count(sent ^ decided).sum(axis=-1, dtype=np.int64)
