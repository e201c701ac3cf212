"""Far-field array-factor patterns: directivity, HPBW and side-lobe level.

The pattern is sampled on a spherical (az, el) grid expressed in the
array's *pattern chart*: a rotated polar frame whose equator passes
through the array broadside.  For the planar arrays (URA/UCA/CCA, z = 0
plane) the chart pole sits on the array y-axis and broadside (+z) lies
at chart (az, el) = (0, 90 deg); for the ULA the chart is the plain
polar frame (pole on the array axis).  Beam-pointing offsets (0, 0)
therefore always mean broadside, and the two HPBW cuts follow the grid
lines through the steering target.

Directivity is normalized so the linear pattern integrates to 4*pi over
the sphere (midpoint/trapezoid quadrature with the sin(el) Jacobian).
The side-lobe level averages the forward grid cells outside the main
lobe, which a span fill finds from the target (numpy only).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .arrays import ArrayKind, GeometrySpec, steering, unit_directions

HALF_POWER_DB = 10.0 * np.log10(2.0)
MAIN_LOBE_FLOOR_DB = 20.0  # main lobe = connected region above peak - 20 dB
FORWARD_AZ_DEG = 90.0  # side lobes are taken within |az| <= this (chart)
# Chart coordinates (and azimuth projections) closer than this fraction of
# the array extent are merged by compute_pattern.  Mirror-image elements,
# e.g. cos(2 pi n/N) and cos(2 pi (N-n)/N) on a ring, differ by a few ulps,
# so the merge only removes float noise: a phase error of the order of
# 2 pi * 1e-12 * extent / wavelength.
_GROUP_RTOL = 1e-12
# elevation rows per batch in compute_pattern: distinct sin el rows
# exponentiated at the sample azimuths, then output rows of the series.
# Large, so that a 0.25 deg grid takes three series matmuls: on a loaded
# 2-CPU host a BLAS call that has to wake idle threads stalled ~16 ms.
_ROW_CHUNK = 256

# Chart basis for planar arrays, columns = chart axes in array coords:
# chart x -> array z (broadside), chart y -> array x, chart z -> array y.
_PLANAR_FRAME = np.array([[0.0, 1.0, 0.0],
                          [0.0, 0.0, 1.0],
                          [1.0, 0.0, 0.0]])


def pattern_frame(kind: ArrayKind | str) -> np.ndarray:
    """Rotation taking chart coordinates to array coordinates."""
    if ArrayKind(kind) is ArrayKind.ULA:
        return np.eye(3)
    return _PLANAR_FRAME.copy()


def chart_directions(az: np.ndarray, el: np.ndarray,
                     frame: np.ndarray) -> np.ndarray:
    """Unit direction vectors in array coordinates, shape (..., 3)."""
    return unit_directions(az, el) @ np.asarray(frame, float).T


@dataclass
class RadiationPattern:
    """Directivity samples over a chart (az, el) grid, in dBi."""

    az_deg: np.ndarray          # (A,) azimuth grid, degrees
    el_deg: np.ndarray          # (E,) polar grid, degrees (0..180)
    gain_db: np.ndarray         # (E, A) directivity, dBi
    steer_az_deg: float         # steering target, chart coordinates
    steer_el_deg: float

    @property
    def az_step_deg(self) -> float:
        return float(self.az_deg[1] - self.az_deg[0])

    @property
    def el_step_deg(self) -> float:
        return float(self.el_deg[1] - self.el_deg[0])

    def target_index(self) -> tuple[int, int]:
        """Grid indices (el, az) nearest the steering target; azimuths
        are compared around the circle, so -180 is nearest 179.9."""
        az_gap = (self.az_deg - self.steer_az_deg + 180.0) % 360.0 - 180.0
        ia = int(np.argmin(np.abs(az_gap)))
        ie = int(np.argmin(np.abs(self.el_deg - self.steer_el_deg)))
        return ie, ia


@dataclass
class PatternSummary:
    """HPBW widths are in chart degrees; directivities in absolute dBi.

    ``asld_db`` is the geometric mean (dB average) of the side-lobe
    directivity sampled over every forward-hemisphere grid cell outside
    the main lobe.
    """

    directivity_dbi: float       # directivity at the steering target
    hpbw_az_deg: float           # half-power width along the azimuth cut
    hpbw_el_deg: float           # half-power width along the elevation cut
    asld_db: float               # dB mean over sampled side-lobe directivity


def steering_weights(spec: GeometrySpec, az_off_deg: float = 0.0,
                     el_off_deg: float = 0.0) -> np.ndarray:
    """Conjugate-steering weights pointing (az_off, el_off) from broadside."""
    _check_offsets(az_off_deg, el_off_deg)
    frame = pattern_frame(spec.kind)
    az0 = np.deg2rad(az_off_deg)
    el0 = np.deg2rad(90.0 - el_off_deg)
    direction = chart_directions(az0, el0, frame)
    return steering(spec.positions, direction, spec.wavelength)


def _check_offsets(az_off_deg: float, el_off_deg: float) -> None:
    if not (np.isfinite(az_off_deg) and np.isfinite(el_off_deg)):
        raise ValueError(f"steering offsets must be finite, got az "
                         f"{az_off_deg:g}, el {el_off_deg:g} deg")
    if not (-180.0 <= az_off_deg < 180.0 and -90.0 <= el_off_deg <= 90.0):
        raise ValueError(f"steering offsets must be az in [-180, 180) and "
                         f"el in [-90, 90] deg, got az {az_off_deg:g}, "
                         f"el {el_off_deg:g} deg")


def compute_pattern(positions: np.ndarray, weights: np.ndarray,
                    wavelength: float,
                    steer_az_deg: float = 0.0, steer_el_off_deg: float = 0.0,
                    az_step_deg: float = 0.25, el_step_deg: float = 0.25,
                    frame: np.ndarray | None = None) -> RadiationPattern:
    """Directivity pattern |w^H a|^2 N over the chart grid, 4*pi-normalized.

    ``steer_el_off_deg`` is the pointing offset from broadside; the grid
    stores the corresponding chart polar angle 90 - offset.

    The array factor is factored over the element positions in the chart
    frame, P = positions @ frame, whose phase is
    k (sin el (cos az P0 + sin az P1) + cos el P2):

        AF[el, az] = sum_g exp(j sin el q[az, g]) B[el, g],
        B[el, g]   = sum_{n in g} w_n^* exp(j k cos el P2_n),
        q[az, g]   = k (cos az P0_g + sin az P1_g),

    where g runs over the distinct (P0, P1) pairs of the elements, taken
    about the centre of their bounding box (a common shift changes AF by
    a unit-modulus factor only).  By Jacobi-Anger,
    exp(j z cos(az - phi)) = sum_m j^m J_m(z) e^{jm(az - phi)}, so each row
    is a Fourier series in az whose terms vanish beyond |m| ~ z_max =
    k max hypot(P0, P1).  The factorization is evaluated at n_s uniform
    sample azimuths (``_series_order``); one FFT per row gives the
    coefficients c, and a matmul evaluates AF = sum_m c_m e^{jm(az + pi)}
    on the output grid, whatever its step.

    At the samples, exp(j sin el q) is evaluated once per distinct sin el
    (el and 180 - el share it, with their own B rows) and per distinct
    row of q up to sign: a column with q = -q' has
    AF = sum conj(T) B = conj(sum T conj(B)), with T = exp(j sin el q').
    Values that agree to within ``_GROUP_RTOL`` (of the array extent for
    q) count as equal.  On the default 0.25 deg grid (721 x 1440
    directions, 361 distinct sin el) the scenario arrays take these
    sample counts n_s, distinct sample columns A' and exp(j sin el q)
    terms, besides the 721 x N exponentials of B and the n_s x 1440 of
    the series:

        array (elements, G)    z_max   n_s   A'   361 x A' x G
        ULA   (82, G = 1)          0     4    1            361
        URA   (81, G = 9)       12.6    84   22           71 K
        UCA   (82, G = 42)      41.0   156   40          606 K
        CCA   (82, G = 43)      18.7   100   26          404 K

    Memory: the power grid becomes ``gain_db`` in place, so at most the
    output grid, one scratch grid (the sin el-weighted product of the 4*pi
    integral) and one ``_ROW_CHUNK`` chunk are live at once; each phase
    frees its arrays when it ends.  In-place writes keep every operation
    and its order, so the values equal those of out-of-place arithmetic
    bit for bit.
    """
    positions = np.asarray(positions, dtype=float)
    weights = np.asarray(weights, dtype=complex)
    if positions.shape[0] != weights.shape[0]:
        raise ValueError("weights length must match element count")
    if positions.shape[0] == 0:
        raise ValueError("positions must be nonempty")
    if not (az_step_deg > 0.0 and el_step_deg > 0.0):
        raise ValueError(f"grid step must be positive, got az_step_deg="
                         f"{az_step_deg:g}, el_step_deg={el_step_deg:g}")
    if az_step_deg > 1.0 or el_step_deg > 1.0:
        raise ValueError("grid resolution must be 1 degree or finer")
    _check_offsets(steer_az_deg, steer_el_off_deg)
    frame = np.eye(3) if frame is None else np.asarray(frame, float)

    az_deg = np.arange(-180.0, 180.0, az_step_deg)
    el_deg = np.arange(0.0, 180.0 + el_step_deg / 2.0, el_step_deg)
    az = np.deg2rad(az_deg)
    el = np.deg2rad(el_deg)
    kscale = 2.0 * np.pi / wavelength

    chart = positions @ frame
    low, high = chart[:, :2].min(axis=0), chart[:, :2].max(axis=0)
    chart[:, :2] -= (low + high) / 2.0
    # all-zero coordinates group under any tolerance
    tol = _GROUP_RTOL * (np.abs(chart).max(initial=0.0) or 1.0)
    first, group = _distinct_rows(chart[:, :2], tol)
    b = np.zeros((el.size, first.size), dtype=complex)  # (E, G)
    np.add.at(b, (slice(None), group),
              np.exp(1j * kscale * np.outer(np.cos(el), chart[:, 2]))
              * weights.conj())

    # sample azimuths -pi + 2 pi s / n_s, each column up to sign:
    # in_plane = sign * canonical row
    n_s = _series_order(kscale * np.hypot(chart[:, 0], chart[:, 1]).max())
    sample_az = -np.pi + 2.0 * np.pi * np.arange(n_s) / n_s
    in_plane = np.outer(np.cos(sample_az), chart[first, 0]) \
        + np.outer(np.sin(sample_az), chart[first, 1])  # (n_s, G)
    ticks = np.round(in_plane / tol)
    negated = ticks[np.arange(n_s), np.argmax(ticks != 0.0, axis=1)] < 0.0
    canonical = np.where(negated[:, None], -in_plane, in_plane)
    columns, column = _distinct_rows(canonical, tol)
    q = kscale * canonical[columns]                     # (A', G)

    # elevation rows sharing sin el: mirror[r] lists the rows of group r,
    # the last one repeated to fill K columns
    sin_el = np.sin(el)
    _, row = _distinct_rows(sin_el[:, None], _GROUP_RTOL)
    counts = np.bincount(row)
    order = np.argsort(row, kind="stable")          # rows grouped by sin el
    slot = np.minimum(np.arange(counts.max()), counts[:, None] - 1)
    mirror = order[(np.cumsum(counts) - counts)[:, None] + slot]  # (R, K)
    # sample s reads vector member + K * negated[s] of its group
    pick = mirror.shape[1] * negated

    samples = np.empty((el.size, n_s), dtype=complex)  # sqrt(N) * w^H a
    for r0 in range(0, mirror.shape[0], _ROW_CHUNK):
        members = mirror[r0:r0 + _ROW_CHUNK]            # (R', K)
        terms = 1j * sin_el[members[:, 0], None, None] * q
        np.exp(terms, out=terms)
        vectors = b[members].transpose(0, 2, 1)         # (R', G, K)
        af = terms @ np.concatenate([vectors, vectors.conj()], axis=2)
        for m in range(members.shape[1]):
            samples[members[:, m]] = af[:, column, m + pick]
    del b, terms, vectors, af
    # the series needs AF itself, and a negated column computed conj(AF)
    samples[:, negated] = samples[:, negated].conj()

    # AF[el, az] = sum_m c[el, m] exp(j m (az + pi)), c = FFT(samples) / n_s
    coefficients = np.fft.fft(samples, axis=1)
    del samples
    harmonics = np.fft.fftfreq(n_s, 1.0 / n_s)
    series = np.exp(1j * np.outer(harmonics, az + np.pi)) / n_s  # (n_s, A)
    power = np.empty((el.size, az.size))
    for r0 in range(0, el.size, _ROW_CHUNK):
        af = coefficients[r0:r0 + _ROW_CHUNK] @ series
        block = power[r0:r0 + _ROW_CHUNK]
        np.multiply(af.real, af.real, out=block)
        np.multiply(af.imag, af.imag, out=af.imag)
        block += af.imag
    del coefficients, series, af

    el_weights = sin_el.copy()
    el_weights[0] *= 0.5
    el_weights[-1] *= 0.5
    # the weighted product is the one scratch grid, freed by .sum()
    integral = (power * el_weights[:, None]).sum() \
        * np.deg2rad(az_step_deg) * np.deg2rad(el_step_deg)
    if not integral > 0.0:
        raise ValueError(f"weights radiate no power, got {integral:g}")
    gain_db = power                 # directivity, then dBi, in place
    gain_db *= 4.0 * np.pi / integral
    np.maximum(gain_db, 1e-300, out=gain_db)
    np.log10(gain_db, out=gain_db)
    gain_db *= 10.0
    return RadiationPattern(az_deg=az_deg, el_deg=el_deg, gain_db=gain_db,
                            steer_az_deg=steer_az_deg,
                            steer_el_deg=90.0 - steer_el_off_deg)


def _series_order(z_max: float) -> int:
    """Sample count n_s for an azimuth series of half-bandwidth m_max.

    J_m(z) falls off faster than exponentially once m exceeds z by a few
    multiples of cbrt(z), so terms beyond m_max = ceil(z + 8 cbrt(z) + 8)
    are below float noise; n_s is the smallest multiple of 4 that is
    >= 2 m_max + 1, which keeps 0, +-90 and 180 deg (negated and mirror
    columns) among the samples.
    """
    m_max = int(np.ceil(z_max + 8.0 * np.cbrt(z_max) + 8.0)) if z_max else 0
    return 4 * (m_max // 2 + 1)


def _distinct_rows(values: np.ndarray,
                   tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Index of the first row of each distinct row, and the distinct-row
    number of every row; rows are compared on a grid of step ``tol``."""
    _, first, inverse = np.unique(np.round(values / tol), axis=0,
                                  return_index=True, return_inverse=True)
    return first, inverse.ravel()


def steered_pattern(spec: GeometrySpec, az_off_deg: float = 0.0,
                    el_off_deg: float = 0.0, az_step_deg: float = 0.25,
                    el_step_deg: float = 0.25) -> RadiationPattern:
    """Pattern of a geometry steered (az_off, el_off) from broadside."""
    weights = steering_weights(spec, az_off_deg, el_off_deg)
    return compute_pattern(spec.positions, weights, spec.wavelength,
                           steer_az_deg=az_off_deg, steer_el_off_deg=el_off_deg,
                           az_step_deg=az_step_deg, el_step_deg=el_step_deg,
                           frame=pattern_frame(spec.kind))


def _half_power_width(values_db: np.ndarray, start: int, step_deg: float,
                      threshold_db: float) -> float:
    """Width around ``start`` until the cut drops below threshold both ways.

    The cut is treated as a closed circle.  Crossings are located by
    linear interpolation of the linear power between grid samples; if a
    side never crosses, the full circle (360 deg) is reported.
    """
    lin = 10.0 ** (values_db / 10.0)
    thr = 10.0 ** (threshold_db / 10.0)
    n = lin.size

    def distance(direction: int) -> float | None:
        prev = lin[start]
        for s in range(1, n):
            j = (start + direction * s) % n
            cur = lin[j]
            if cur < thr:
                frac = (prev - thr) / (prev - cur)
                return (s - 1 + frac) * step_deg
            prev = cur
        return None

    right = distance(+1)
    left = distance(-1)
    if right is None or left is None:
        return 360.0
    return right + left


def _elevation_circle(pattern: RadiationPattern, ia: int) -> np.ndarray:
    """Full meridian circle through azimuth column ia and its antipode.

    Index i of the returned cut equals grid row i for i < n_el; the walk
    then continues over the pole down the antipodal column.
    """
    n_az = pattern.az_deg.size
    ia_opp = (ia + n_az // 2) % n_az
    col = pattern.gain_db[:, ia]
    col_opp = pattern.gain_db[::-1, ia_opp]
    return np.concatenate([col, col_opp[1:-1]])


def summarize(pattern: RadiationPattern) -> PatternSummary:
    """Peak directivity, half-power widths and average side-lobe level."""
    ie, ia = target = pattern.target_index()
    peak_db = float(pattern.gain_db[target])
    threshold = peak_db - HALF_POWER_DB

    az_cut = pattern.gain_db[ie, :]
    hpbw_az = _half_power_width(az_cut, ia, pattern.az_step_deg, threshold)

    el_circle = _elevation_circle(pattern, ia)
    hpbw_el = _half_power_width(el_circle, ie, pattern.el_step_deg, threshold)

    main_lobe = main_lobe_mask(pattern.gain_db, target)
    return PatternSummary(directivity_dbi=peak_db, hpbw_az_deg=hpbw_az,
                          hpbw_el_deg=hpbw_el,
                          asld_db=average_sidelobe_db(pattern, main_lobe))


def main_lobe_mask(gain_db: np.ndarray,
                   target: tuple[int, int]) -> np.ndarray:
    """Connected region around grid cell ``target`` (el, az) above its
    value - 20 dB.

    Cells connect to their 8 neighbours; the azimuth edges do not wrap.
    A span fill: each row the fill reaches is split once into its runs of
    above-floor cells, and a run joins the lobe when it touches a lobe
    run of the row above or below, diagonally included.
    """
    floor = gain_db[target] - MAIN_LOBE_FLOOR_DB
    n_rows, n_cols = gain_db.shape
    mask = np.zeros(gain_db.shape, dtype=bool)
    above = np.zeros(n_cols + 2, dtype=bool)  # one row, False at both ends
    runs: dict[int, tuple[list[int], list[int]]] = {}  # row -> starts, ends
    ie, ia = target
    stack = [(ie, ia, ia + 1)]   # row, and the columns a run must touch
    while stack:
        row, lo, hi = stack.pop()
        if row not in runs:
            np.greater_equal(gain_db[row], floor, out=above[1:-1])
            edges = np.flatnonzero(above[1:] != above[:-1])
            runs[row] = edges[::2].tolist(), edges[1::2].tolist()
        starts, ends = runs[row]
        for k in range(bisect_right(ends, lo), bisect_left(starts, hi)):
            start, end = starts[k], ends[k]
            if mask[row, start]:
                continue
            mask[row, start:end] = True
            for next_row in (row - 1, row + 1):
                if 0 <= next_row < n_rows:
                    stack.append((next_row, start - 1, end + 1))
    return mask


def average_sidelobe_db(pattern: RadiationPattern,
                        main_lobe: np.ndarray) -> float:
    """Geometric-mean side-lobe directivity in dB.

    The side-lobe region is sampled at every grid cell of the forward
    hemisphere (|az| <= FORWARD_AZ_DEG) outside ``main_lobe``, and the
    dB values are averaged: the geometric mean of the sampled side-lobe
    directivities.
    """
    selected = ~main_lobe
    selected &= (np.abs(pattern.az_deg) <= FORWARD_AZ_DEG)[None, :]
    if not selected.any():
        return float("nan")
    return float(pattern.gain_db[selected].mean())


def write_pattern_csv(pattern: RadiationPattern, path: Path) -> None:
    """Write the grid as ``az_deg,el_deg,directivity_dbi`` rows, azimuth
    fastest, each value formatted ``%.4f``: the bytes ``np.savetxt``
    writes with that format, with each azimuth formatted once."""
    az_text = ["%.4f," % az for az in pattern.az_deg.tolist()]
    with open(path, "w") as f:
        f.write("az_deg,el_deg,directivity_dbi\n")
        for el, row in zip(pattern.el_deg.tolist(), pattern.gain_db):
            el_text = "%.4f," % el
            f.write("".join([az + el_text + "%.4f\n" % gain
                             for az, gain in zip(az_text, row.tolist())]))
