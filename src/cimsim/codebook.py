"""CIM codebook construction and analog-network weight synthesis.

The codebook indexes B of the C channel clusters.  Per cluster the best
effective path maximizes |w^H H f|^2 with the beamformer/combiner
steered at that path; the B clusters of largest effective gain are then
taken in descending gain.  Beamformer and combiner are steering vectors
of the one element layout both ends share.  Two hardware models
synthesize the analog weights: ideal single phase shifters (continuous
phases) and a hardware-efficient bank of fixed phase shifters combined
through switches, which floors every phase to a 2*pi / 2**(n_shifters-1)
grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class FpsBank:
    """Fixed phase shifter bank: phases (2*pi/2^(n-1)) * [0, 1, 2, 4, ...]."""

    n_shifters: int

    def __post_init__(self) -> None:
        if self.n_shifters < 2:
            raise ValueError("need at least two fixed phase shifters")
        # a finer step than the float spacing at 2*pi cannot be realized
        resolution = np.spacing(TWO_PI)
        if self.phase_step < resolution:
            raise ValueError(
                f"{self.n_shifters} fixed phase shifters give a phase step "
                f"of {self.phase_step:.3g} rad, below the {resolution:.3g} rad"
                " resolution of a wrapped phase")

    @property
    def phases(self) -> np.ndarray:
        values = np.concatenate([[0.0], 2.0 ** np.arange(self.n_shifters - 1)])
        return self.phase_step * values

    @property
    def phase_step(self) -> float:
        # exact for every accepted bank; for banks too large to realize
        # it underflows toward 0 instead of overflowing
        return math.ldexp(TWO_PI, 1 - self.n_shifters)


def wrap_phase(theta: "float | np.ndarray") -> "float | np.ndarray":
    """theta mod 2*pi in [0, 2*pi); np.mod alone rounds angles in
    (-4.4e-16, 0) up to exactly 2*pi."""
    wrapped = np.mod(np.asarray(theta, dtype=float), TWO_PI)
    return np.where(wrapped == TWO_PI, 0.0, wrapped)[()]


def compose_switch_vector(theta: "float | np.ndarray",
                          bank: FpsBank) -> np.ndarray:
    """Switch settings realizing the largest bank phase sum <= wrap(theta).

    Greedy descent from the largest shifter: close a switch whenever its
    phase still fits under the remaining target.  Works on any shape of
    ``theta``; the result has one more axis, of length ``n_shifters``,
    holding each angle's switch vector.
    """
    phases = bank.phases
    remaining = wrap_phase(theta)
    switches = np.zeros(remaining.shape + (bank.n_shifters,), dtype=np.int8)
    for i in range(bank.n_shifters - 1, -1, -1):
        closed = phases[i] <= remaining
        switches[..., i] = closed
        remaining = np.where(closed, remaining - phases[i], remaining)
    return switches


def realized_phase(switches: np.ndarray,
                   bank: FpsBank) -> "float | np.ndarray":
    """Phase sum of the closed shifters (last axis of ``switches``).

    The closed phases are added largest first, the order of the greedy
    descent, so a vector of switch settings and each of its entries give
    bit-identical phases.
    """
    switches = np.asarray(switches)
    phases = bank.phases
    omega = np.zeros(switches.shape[:-1])
    for i in range(bank.n_shifters - 1, -1, -1):
        omega += switches[..., i] * phases[i]
    return omega[()]


def quantize_weights(weights: np.ndarray, bank: FpsBank) -> np.ndarray:
    """Replace each entry's phase by its bank-realizable floor; magnitudes
    are untouched."""
    weights = np.asarray(weights, dtype=complex)
    switches = compose_switch_vector(np.angle(weights), bank)
    return np.abs(weights) * np.exp(1j * realized_phase(switches, bank))


@dataclass
class CimCodebook:
    """Gain-ordered indexed clusters with their analog weights.

    ``clusters[k]`` is the cluster carrying spatial symbol k;
    ``beamformers[:, k]`` / ``combiners[:, k]`` are its Tx/Rx weights.
    """

    order: int                    # B, number of indexed clusters
    clusters: tuple[int, ...]     # selected cluster ids, descending gain
    beamformers: np.ndarray       # (N, B) complex
    combiners: np.ndarray         # (N, B) complex
    best_paths: np.ndarray        # (C,) best path index per cluster
    effective_gains: np.ndarray   # (B,) |w^H H f|^2 of the selected clusters


def _per_path_gains(realization: ChannelRealization) -> np.ndarray:
    """|w^H H f|^2 for every path, shape (C, L): one matmul and a row sum
    over the realization's steering matrices."""
    eff = ((realization.a_r.conj().T @ realization.matrix)
           * realization.a_t.T).sum(axis=1)
    return np.abs(eff).reshape(realization.gains.shape) ** 2


def build_codebook(realization: ChannelRealization, order: int) -> CimCodebook:
    """Codebook of the ``order`` clusters of largest effective gain, in
    descending gain; among equal gains the lower cluster comes first.

    Selection always uses the ideal (continuous-phase) steering vectors,
    and the codewords are the selected paths' columns of the
    realization's steering matrices.  ``best_paths[c]`` is the path
    maximizing |w^H H f|^2 in cluster c (lowest wins ties), for every c.
    """
    c_count, l_count = realization.gains.shape
    if order > c_count:
        raise ValueError("codebook order exceeds cluster count")
    if order < 1 or (order & (order - 1)) != 0:
        raise ValueError("codebook order must be a power of two")

    path_gains = _per_path_gains(realization)
    best_paths = np.argmax(path_gains, axis=1)
    cluster_gains = path_gains[np.arange(c_count), best_paths]

    # descending gain, the lower cluster first among equal gains
    selected = np.argsort(-cluster_gains, kind="stable")[:order]
    columns = selected * l_count + best_paths[selected]
    return CimCodebook(order=order, clusters=tuple(selected.tolist()),
                       beamformers=realization.a_t[:, columns],
                       combiners=realization.a_r[:, columns],
                       best_paths=best_paths,
                       effective_gains=cluster_gains[selected])

