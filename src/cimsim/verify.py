"""Self-contained oracle checks, exposed through the ``verify`` CLI command.

Each check pits an implementation path against an independent route
(exhaustive enumeration, closed-form value, or analytic identity) and
reports one PASS/FAIL line.  The defaults are quick enough to run before
trusting a long sweep; the acceptance tests call the same checks with
their own sizes and bounds.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import product

import numpy as np

from .arrays import (ArrayKind, WAVELENGTH, scenario_geometry, steering,
                     unit_directions)
from .channel import ChannelConfig, draw_paths, sample_realization
from .codebook import (FpsBank, build_codebook, compose_switch_vector,
                       quantize_weights, realized_phase, wrap_phase)
from .link import (array_gain_db, branch_amplitudes, db_to_linear,
                   decision_bound, detect, psk_constellation, transmit)
from .patterns import steered_pattern, steering_weights


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_switch_composition(max_shifters: int = 6,
                             grid_points: int = 2000) -> CheckResult:
    """Greedy switch composition vs exhaustive subset-sum maximization.

    Subset sums are exact integer multiples of the bank's phase step, so
    the maximization is done in rational arithmetic (no float rounding
    in the oracle).
    """
    from fractions import Fraction
    thetas = np.linspace(0.0, 2.0 * np.pi, grid_points, endpoint=False)
    mismatches = 0
    for n_f in range(2, max_shifters + 1):
        bank = FpsBank(n_f)
        step = Fraction(bank.phase_step)
        weights = [0] + [2 ** j for j in range(n_f - 1)]
        multipliers = sorted(
            {sum(w for w, bit in zip(weights, pattern) if bit)
             for pattern in product((0, 1), repeat=n_f)})
        greedy = compose_switch_vector(thetas, bank) @ np.array(weights)
        for theta, greedy_m in zip(thetas, greedy):
            ratio = Fraction(float(wrap_phase(theta))) / step
            best_m = max(m for m in multipliers if m <= ratio)
            mismatches += int(greedy_m) != best_m
    return CheckResult("switch-composition equals exhaustive subset-sum",
                       mismatches == 0, f"{mismatches} mismatches")


def check_quantization_bound(max_shifters: int = 8,
                             thetas: np.ndarray | None = None) -> CheckResult:
    """0 <= wrap_phase(theta) - realized phase < bank phase step;
    ``thetas`` defaults to 2000 angles over [-2 pi, 4 pi]."""
    if thetas is None:
        thetas = np.linspace(-2.0 * np.pi, 4.0 * np.pi, 2000)
    wrapped = wrap_phase(thetas)
    violations = 0
    for n_f in range(2, max_shifters + 1):
        bank = FpsBank(n_f)
        error = wrapped - realized_phase(compose_switch_vector(thetas, bank),
                                         bank)
        violations += np.count_nonzero((error < 0.0)
                                       | (error >= bank.phase_step))
    return CheckResult("quantization error inside one phase step",
                       violations == 0, f"{violations} violations")


def check_steering_norms(seed: int = 7, samples: int = 200) -> CheckResult:
    """Steering vectors of the four scenario arrays toward ``samples``
    random directions each: unit norm, 1/sqrt(N) entry magnitudes and each
    entry within 1e-13 of cmath.exp(2j pi p.d / lambda) / sqrt(N)."""
    rng = np.random.default_rng(seed)
    worst = entry_error = 0.0
    for kind in ArrayKind:
        pos = scenario_geometry(kind, WAVELENGTH).positions
        az, el = rng.uniform(0.0, (2.0 * np.pi, np.pi), (samples, 2)).T
        directions = unit_directions(az, el)
        a = steering(pos, directions, WAVELENGTH)
        worst = max(worst, np.abs(np.linalg.norm(a, axis=0) - 1.0).max(),
                    np.abs(np.abs(a) - 1 / np.sqrt(len(pos))).max())
        scalar = [[cmath.exp(2j * cmath.pi * (x * u + y * v + z * w)
                             / WAVELENGTH) for u, v, w in directions.tolist()]
                  for x, y, z in pos.tolist()]
        entry_error = max(entry_error, np.abs(
            a - np.array(scalar) / np.sqrt(len(pos))).max())
    return CheckResult("steering vectors unit-norm, entries match scalar exp",
                       worst <= 1e-12 and entry_error <= 1e-13,
                       f"max norm deviation = {worst:.2e}, "
                       f"max entry error = {entry_error:.2e}")


def check_directivity_normalization() -> CheckResult:
    """Quadrature normalization vs the exact pairwise-sinc integral."""
    spec = scenario_geometry("URA", WAVELENGTH, 36)
    pat = steered_pattern(spec, 10.0, 20.0, az_step_deg=0.5, el_step_deg=0.5)
    pos = spec.positions
    w = steering_weights(spec, 10.0, 20.0)
    diff = pos[:, None, :] - pos[None, :, :]
    arg = 2 * np.pi / WAVELENGTH * np.linalg.norm(diff, axis=-1)
    sinc = np.where(arg > 0, np.sin(np.maximum(arg, 1e-30)) / np.maximum(arg, 1e-30), 1.0)
    mean_exact = float(np.real(np.einsum("m,n,mn->", w, w.conj(), sinc)))
    lin = 10 ** (pat.gain_db / 10.0)
    el = np.deg2rad(pat.el_deg)
    wel = np.sin(el)
    wel[0] *= 0.5
    wel[-1] *= 0.5
    quad = (lin * wel[:, None]).sum() * np.deg2rad(0.5) ** 2 / (4 * np.pi)
    # pattern is 4*pi-normalized, so quad must be 1; the sinc identity
    # checks the raw power integral handled inside compute_pattern
    peak_lin = 10 ** (pat.gain_db.max() / 10.0)
    n = pos.shape[0]
    d_exact = n / mean_exact
    rel = abs(peak_lin - d_exact) / d_exact
    ok = abs(quad - 1.0) < 1e-3 and rel < 1e-3
    return CheckResult("pattern normalization vs sinc-sum oracle", ok,
                       f"quad closure = {quad - 1.0:+.2e}, "
                       f"peak vs exact = {rel:.2e}")


def check_noiseless_detection(
        geometries: tuple[str, ...] = ("URA",), n_elements: int = 16,
        channel: ChannelConfig = ChannelConfig(clusters=4,
                                               paths_per_cluster=3),
        seed: int = 11, orders: tuple[int, ...] = (4,)) -> CheckResult:
    """Every (x0, x1) of B x QPSK decodes exactly without noise on one
    seeded path draw realized on each scenario geometry, at 1 W transmit
    power."""
    points = psk_constellation(4)
    failures = 0
    paths = draw_paths(channel, seed)
    for kind in geometries:
        spec = scenario_geometry(kind, WAVELENGTH, n_elements)
        realization = sample_realization(paths, spec.positions)
        amplitude = db_to_linear(array_gain_db(spec.n_elements)) ** 2
        for order in orders:
            cb = build_codebook(realization, order)
            sent = np.arange(order * points.size)
            v, noise = transmit(cb.beamformers, cb.combiners,
                                realization.matrix,
                                np.zeros((sent.size, order)))
            decided = detect(v, sent, noise, np.array([amplitude]),
                             branch_amplitudes(cb, realization.matrix),
                             points)
            failures += np.count_nonzero(decided != sent)
    return CheckResult("noiseless ML detection exact", failures == 0,
                       f"{failures} failed hypotheses")


def check_detection_matches_exhaustive() -> CheckResult:
    """``detect`` with noise against a per-power brute-force argmin of
    |z - a hyp s|^2 on one seeded 16-element URA channel, on OP and
    HE4-quantized signal paths for B in {2, 4} and M in {4, 8}, 200 uses
    each.  The amplitudes put the mean branch amplitude at 1e-2 to 1e3
    times the noise SD, so that some decisions settle on the distance
    bound and others are searched; both must occur."""
    rng = np.random.default_rng(13)
    spec = scenario_geometry("URA", WAVELENGTH, 16)
    realization = sample_realization(
        draw_paths(ChannelConfig(clusters=4, paths_per_cluster=3), 13),
        spec.positions)
    h = realization.matrix
    sigma = 1e-6
    uses = 200
    mismatches = settled = decisions = 0
    for order, m, bank in product((2, 4), (4, 8), (None, FpsBank(4))):
        cb = build_codebook(realization, order)
        points = psk_constellation(m)
        hyp = branch_amplitudes(cb, h)
        weights = np.stack([cb.beamformers, cb.combiners])
        f, w = weights if bank is None else quantize_weights(weights, bank)
        x0 = rng.integers(0, order, uses)
        x1 = rng.integers(0, m, uses)
        white = sigma * (rng.standard_normal((uses, order))
                         + 1j * rng.standard_normal((uses, order)))
        v, noise = transmit(f, w, h, white)
        amplitudes = sigma / np.abs(hyp).mean() * np.logspace(-2, 3, 11)
        decided = detect(v, x0 * m + x1, noise, amplitudes, hyp, points)
        # the unit-amplitude signal v[:, x0] points[x1] of each use
        signal = v[:, x0].T * points[x1, None]
        for a, index in zip(amplitudes, decided):
            z = a * signal + noise
            metric = np.abs(z[:, :, None] - a * hyp[:, None] * points) ** 2
            mismatches += np.count_nonzero(
                index != metric.reshape(uses, -1).argmin(axis=1))
        d = signal[:, :, None] - hyp[:, None] * points
        _, threshold = decision_bound(
            (d.imag ** 2 + d.real ** 2).reshape(uses, -1), np.arange(uses),
            noise)
        settled += np.count_nonzero(amplitudes[:, None] > threshold)
        decisions += decided.size
    searched = decisions - settled
    return CheckResult("noisy ML detection equals exhaustive search",
                       mismatches == 0 and settled > 0 and searched > 0,
                       f"{mismatches} mismatches; {settled} decisions "
                       f"settled by the bound, {searched} searched")


def check_best_path_bruteforce(seed: int = 3) -> CheckResult:
    """Greedy best-path pick equals an explicit per-path scan."""
    pos = scenario_geometry("ULA", WAVELENGTH, 4).positions
    cfg = ChannelConfig(clusters=3, paths_per_cluster=5)
    mismatches = 0
    for s in range(seed, seed + 10):
        r = sample_realization(draw_paths(cfg, s), pos)
        best_paths = build_codebook(r, 1).best_paths
        for c in range(cfg.clusters):
            best, best_gain = 0, -1.0
            for l in range(cfg.paths_per_cluster):
                aod = unit_directions(r.aod_az[c, l], r.aod_el[c, l])
                aoa = unit_directions(r.aoa_az[c, l], r.aoa_el[c, l])
                f = steering(pos, aod, WAVELENGTH)
                w = steering(pos, aoa, WAVELENGTH)
                g = abs(w.conj() @ r.matrix @ f) ** 2
                if g > best_gain:
                    best, best_gain = l, g
            if best_paths[c] != best:
                mismatches += 1
    return CheckResult("best effective path vs brute force", mismatches == 0,
                       f"{mismatches} mismatches")


ALL_CHECKS = (
    check_switch_composition,
    check_quantization_bound,
    check_steering_norms,
    check_directivity_normalization,
    check_noiseless_detection,
    check_detection_matches_exhaustive,
    check_best_path_bruteforce,
)


def run_all() -> bool:
    """Run every check, print one PASS/FAIL line each; True if all pass."""
    ok = True
    for check in ALL_CHECKS:
        result = check()
        ok &= result.passed
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] {result.name}: {result.detail}")
    return ok
