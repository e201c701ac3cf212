"""Self-contained oracle checks, exposed through the ``verify`` CLI command.

Each check pits an implementation path against an independent route
(exhaustive enumeration, closed-form value, or analytic identity) and
reports one PASS/FAIL line.  The defaults are quick enough to run before
trusting a long sweep; the acceptance tests call the same checks with
their own sizes and bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .arrays import (ArrayKind, GeometrySpec, element_positions,
                     scenario_geometry, steering, unit_directions)
from .channel import ChannelConfig, path_loss, sample_realization
from .codebook import (FpsBank, build_codebook, compose_switch_vector,
                       realized_phase, wrap_phase)
from .link import (array_gain_db, branch_amplitudes, db_to_linear, detect,
                   psk_constellation, transmit)
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


def check_steering_norms(seed: int = 7, samples: int = 200,
                         wavelength: float = 0.0107) -> CheckResult:
    """Steering vectors of the four scenario arrays are unit norm with
    1/sqrt(N) entry magnitudes, toward ``samples`` random directions each."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for kind in ArrayKind:
        pos = element_positions(scenario_geometry(kind, wavelength))
        az, el = rng.uniform(0.0, (2.0 * np.pi, np.pi), (samples, 2)).T
        a = steering(pos, unit_directions(az, el), wavelength)
        worst = max(worst, np.abs(np.linalg.norm(a, axis=0) - 1.0).max(),
                    np.abs(np.abs(a) - 1 / np.sqrt(len(pos))).max())
    return CheckResult("steering vectors unit-norm", worst <= 1e-12,
                       f"max deviation = {worst:.2e}")


def check_path_loss() -> CheckResult:
    """Closed-form path loss at the scenario distance."""
    expected = 72.0 + 10.0 * 2.92 * np.log10(150.0)
    got = path_loss(150.0, 72.0, 2.92, 0.0)
    return CheckResult("path loss closed form", abs(got - expected) < 1e-9,
                       f"PL(150 m) = {got:.4f} dB")


def check_directivity_normalization() -> CheckResult:
    """Quadrature normalization vs the exact pairwise-sinc integral."""
    lam = 0.0107
    spec = GeometrySpec.ura(6, 6, lam)
    pat = steered_pattern(spec, 10.0, 20.0, az_step_deg=0.5, el_step_deg=0.5)
    pos = element_positions(spec)
    w = steering_weights(spec, 10.0, 20.0)
    diff = pos[:, None, :] - pos[None, :, :]
    arg = 2 * np.pi / lam * np.linalg.norm(diff, axis=-1)
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
    seeded channel per scenario geometry, at 1 W transmit power."""
    points = psk_constellation(4)
    failures = 0
    for kind in geometries:
        spec = scenario_geometry(kind, channel.wavelength, n_elements)
        pos = element_positions(spec)
        realization = sample_realization(channel, pos, pos, seed)
        amplitude = db_to_linear(array_gain_db(spec.n_elements)) ** 2
        for order in orders:
            cb = build_codebook(realization, order)
            x0, x1 = np.divmod(np.arange(order * points.size), points.size)
            signal, noise = transmit(cb, realization.matrix, x0, points[x1],
                                     np.zeros((x0.size, spec.n_elements)))
            c_hat, s_hat = detect(signal, noise, np.array([amplitude]),
                                  branch_amplitudes(cb, realization.matrix),
                                  points)
            failures += np.count_nonzero((c_hat != x0) | (s_hat != x1))
    return CheckResult("noiseless ML detection exact", failures == 0,
                       f"{failures} failed hypotheses")


def check_best_path_bruteforce(seed: int = 3) -> CheckResult:
    """Greedy best-path pick equals an explicit per-path scan."""
    pos = element_positions(GeometrySpec.ula(4, 0.0107))
    cfg = ChannelConfig(clusters=3, paths_per_cluster=5)
    mismatches = 0
    for s in range(seed, seed + 10):
        r = sample_realization(cfg, pos, pos, s)
        best_paths = build_codebook(r, 1).best_paths
        lam = r.wavelength
        for c in range(cfg.clusters):
            best, best_gain = 0, -1.0
            for l in range(cfg.paths_per_cluster):
                f = steering(pos, unit_directions(r.aod_az[c, l],
                                                  r.aod_el[c, l]), lam)
                w = steering(pos, unit_directions(r.aoa_az[c, l],
                                                  r.aoa_el[c, l]), lam)
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
    check_path_loss,
    check_directivity_normalization,
    check_noiseless_detection,
    check_best_path_bruteforce,
)


def run_all(verbose: bool = True) -> bool:
    ok = True
    for check in ALL_CHECKS:
        result = check()
        ok &= result.passed
        if verbose:
            status = "PASS" if result.passed else "FAIL"
            print(f"[{status}] {result.name}: {result.detail}")
    return ok
