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

A use that sends point p[x1] on codeword x0 has signal = v[:, x0] p[x1]
with v = W^H H F (``transmit``), so d takes only B*M values per
realization.  ``detect`` builds them once per realization, as a table
with a row per sent index x0 M + x1 that occurs and a column per
hypothesis c M + s: Re d, Im d and |d|^2, and per row the bound's h*
and slack (below).  Per use remain nu, the bound's threshold and, for
the uses it searches, 2 Re(conj(n) d) and |n|^2.  Each table entry comes
from the same float operations on the same values as a per-use array
would, in array operations only: numpy's array complex multiply rounds
alike at every position, its scalar multiply does not.

Most of those decisions need no search, as in sphere decoding.  Let h*
be the first hypothesis of least |d|, d1 <= d2 the two least |d| of a
row and nu = max_c |n_c| of a use.  By the triangle inequality every
h != h* has |n + a d_h| >= L = a d2 - nu and h* has |n + a d_h*| <=
a d1 + nu, so wherever

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
             noise: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Effective channel and combined noise of T channel uses through
    beamformers F (..., N_t, B) and combiners W (..., N_r, B) over
    channels h (..., N_r, N_t).

    ``noise`` is a white (..., T, B) branch-space draw z with the
    per-antenna noise variance.  Returns v = W^H H F, (..., B, B), and
    the combined noise z[:, :k] @ R^*, (..., T, B), where W = QR and R is
    (k, B) with k = min(N_r, B).  Since n @ W^* = (n @ Q^*) @ R^* and
    n @ Q^* is white, this is distributed as the antenna noise n (T, N_r)
    combined by W.  A use that sends PSK point s on codeword x0 has the
    unit-amplitude signal v[:, x0] s, so at amplitude a = sqrt(P) G_t G_r
    its combined receive vector is z = a v[:, x0] s + combined noise.

    Leading axes, the same on every argument, stack independent
    realizations; a single realization has none.  Each realization's
    results are bit-identical to a call on it alone.
    """
    v = combiners.conj().mT @ h @ beamformers                  # (..., B, B)
    if (noise.ndim != v.ndim or noise.shape[:-2] != v.shape[:-2]
            or noise.shape[-1] != v.shape[-1]):
        raise ValueError(f"noise must be (T, B) with B = {v.shape[-1]} "
                         f"behind the leading axes {v.shape[:-2]}, got "
                         f"{noise.shape}")
    r = np.linalg.qr(combiners, mode="r")
    return v, noise[..., :r.shape[-2]] @ r.conj()


def branch_amplitudes(cb: CimCodebook, h: np.ndarray) -> np.ndarray:
    """Per-branch channel projections w_c^H H f_c, shape (B,)."""
    return ((cb.combiners.conj().T @ h) * cb.beamformers.T).sum(axis=1)


def decision_bound(distance: np.ndarray, rows: np.ndarray,
                   noise: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per channel use, the hypothesis h* that the distance bound picks and
    the amplitude above which it is the exhaustive search's decision.

    ``distance`` (R, B M) is a table of the float |d|^2 of every
    hypothesis for R sent signals, ``rows`` (U,) the table row of each of
    U uses and ``noise`` (U, B) their combined noise.  Per table row, h*
    is the first argmin of |d|^2 and d1 <= d2 are the two smallest |d|;
    per use, nu = max_c |n_c|.  The threshold is the least a with
    a (d2 - d1) - 2 nu = SETTLE_TOLERANCE (a d2 + nu), and infinite where
    d2 - d1 is too small for any a, exact ties included.  ``distance`` is
    read only (its h* entries are overwritten and restored).
    """
    # per table row: one buffer for the reads and the writes below, also
    # where reshape has to copy
    entries = distance.reshape(-1)
    distance = entries.reshape(distance.shape)
    starts = np.arange(0, entries.size, distance.shape[1])
    at = starts + distance.argmin(axis=1)
    d1 = entries[at]
    entries[at] = np.inf
    d2 = entries[starts + distance.argmin(axis=1)]
    entries[at] = d1
    slack = (1.0 - SETTLE_TOLERANCE) * np.sqrt(d2) - np.sqrt(d1)
    # per use: max_c |n_c|^2 column by column (a reduction along short rows
    # is slower)
    nu = np.sqrt(reduce(np.maximum, (noise.real ** 2 + noise.imag ** 2).T))
    slack = slack[rows]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        threshold = np.where(slack > 0.0,
                             (2.0 + SETTLE_TOLERANCE) * nu / slack, np.inf)
    return (at - starts)[rows], threshold


def detect(v: np.ndarray, sent: np.ndarray, noise: np.ndarray,
           amplitudes: np.ndarray, hyp: np.ndarray,
           points: np.ndarray) -> np.ndarray:
    """Joint ML (cluster, symbol) decisions of T channel uses at P
    amplitudes, (..., P, T): the hypothesis index h = c M + s of each, in
    the smallest unsigned integer dtype that holds B M - 1.

    ``v`` (..., B, B) and ``noise`` (..., T, B) are the effective channel
    and combined noise of ``transmit``, and ``sent`` (..., T) the index
    x0 M + x1 that each use sends, so its unit-amplitude signal is
    v[:, x0] points[x1].  At amplitude a the decision is the argmin over
    the B*M hypotheses of |a v[c, x0] points[x1] + noise(c) - a hyp[c]
    points[s]|^2, where ``hyp`` (..., B) holds the branch amplitudes;
    ties go to the lowest cluster, then symbol.  Leading axes stack
    realizations as in ``transmit``.

    Per realization, d and the distance bound's h* and slack are built
    once per sent index that occurs, as the rows of a table (at most
    min(T, B M) per realization); a use reads its row.  A use whose
    ``decision_bound`` threshold lies below a takes h* without a search
    (see the module docstring).  The uses are ranked by falling
    threshold, and those some amplitude cannot settle get copies of their
    table rows; each amplitude searches the part of them above it with
    the same float operations on the same values as the exhaustive
    search, so every decision, ties included, is the exhaustive search's
    bit for bit.  It allocates 3 floats per table entry (row, hypothesis)
    and 4 per searched (use, hypothesis): the table, copies and metric."""
    branches = v.shape[-1]
    hypotheses = branches * points.size
    draws = math.prod(v.shape[:-2])
    uses = sent.size
    # the table's rows: the (realization, sent index) pairs that occur, in
    # that order, and the row of each use
    ids = (np.arange(0, draws * hypotheses, hypotheses)[:, None]
           + sent.reshape(draws, -1)).reshape(-1)
    present = np.zeros(draws * hypotheses, dtype=bool)
    present[ids] = True
    table = np.flatnonzero(present)
    use_rows = (np.cumsum(present) - 1)[ids]
    draw, index = np.divmod(table, hypotheses)
    x0, x1 = np.divmod(index, points.size)
    # d = v[c, x0] points[x1] - hyp[c] points[s] of each row, (R, B, M), and
    # |d|^2: array multiplies only, whose bits do not depend on the position
    signal = v.reshape(draws, branches, branches).mT[draw, x0] \
        * points[x1, None]
    hp = hyp.reshape(draws, branches)[..., None] * points
    terms = np.empty((3, table.size, branches, points.size))
    real, imag, distance = terms
    np.subtract(signal.real[..., None], hp.real[draw], out=real)
    np.subtract(signal.imag[..., None], hp.imag[draw], out=imag)
    np.square(imag, out=distance)
    distance += np.square(real)
    noise = noise.reshape(uses, branches)
    best, threshold = decision_bound(distance.reshape(table.size, -1),
                                     use_rows, noise)

    # uses by falling threshold: amplitude a searches the first
    # ``searched`` of them and settles the rest
    ranked = np.argsort(threshold)[::-1]
    searched = uses - np.searchsorted(threshold[ranked[::-1]], amplitudes)
    rows = ranked[:searched.max(initial=0)]
    # copies of those uses' table rows in one block, which glibc's malloc
    # keeps for the next call (three smaller ones go back to the OS)
    terms = np.take(terms, use_rows[rows], axis=1)
    real, imag, distance = terms
    # 2 Re(conj(n) d) into the copies of Re d and |n|^2 (repeated over the
    # symbols: a broadcast add in the loop is slower) into those of Im d
    gathered = noise[rows][..., None]
    cross = np.multiply(gathered.real, real, out=real)
    cross += np.multiply(gathered.imag, imag, out=imag)
    cross *= 2.0
    noise_power = imag
    noise_power[...] = gathered.real ** 2 + gathered.imag ** 2
    metric = np.empty_like(distance)
    flat = np.tile(best.astype(np.min_scalar_type(hypotheses - 1)),
                   (len(amplitudes), 1))
    for decided, a, n in zip(flat, amplitudes, searched.tolist()):
        if not n:           # every use settles at this amplitude
            continue
        m = metric[:n]
        np.multiply(distance[:n], a, out=m)
        m += cross[:n]
        m *= a
        m += noise_power[:n]
        decided[rows[:n]] = m.reshape(n, -1).argmin(axis=1)
    return np.moveaxis(flat.reshape((len(amplitudes),) + sent.shape), 0, -2)


def count_bit_errors(sent: np.ndarray, decided: np.ndarray) -> np.ndarray:
    """Spatial plus constellation bit errors of T channel uses: decided
    hypothesis indices c M + s (..., T) against the sent ones, broadcast
    against them, give one count per leading index, shape (...).  The XOR
    runs in the decisions' dtype, which holds every index."""
    return np.bitwise_count(sent.astype(decided.dtype) ^ decided).sum(
        axis=-1, dtype=np.int64)
