"""Antenna array geometries and the steering (array response) kernel.

``scenario_geometry`` is the one builder of an array (``GeometrySpec``):
a uniform linear (ULA, along z), uniform rectangular (URA, x-y plane),
uniform circular (UCA) or concentric circular (CCA) array, the last two
in the z = 0 plane.  ULA and URA elements are half a wavelength apart,
the UCA radius gives half-wavelength arc spacing and the CCA is the
scenario's fixed four-ring layout.  Positions come out in meters.

Angle convention: ``el`` is the polar angle measured from the +z axis,
``az`` the azimuth in the x-y plane from +x.  Angles are taken as given
(no wrapping or clamping).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s
# The scenario's 28 GHz carrier.  No output depends on it: every layout
# is in half wavelengths, so steering phases are carrier-free, and the
# path-loss constants were measured at this carrier.
WAVELENGTH = SPEED_OF_LIGHT / 28e9  # m


class ArrayKind(str, Enum):
    ULA = "ULA"
    URA = "URA"
    UCA = "UCA"
    CCA = "CCA"

    @classmethod
    def _missing_(cls, value):
        """Fail on an unknown kind with a message that lists the kinds."""
        kinds = ", ".join(kind.value for kind in cls)
        raise ValueError(f"{value!r} is not a valid ArrayKind "
                         f"(geometries: {kinds})")


@dataclass(frozen=True, eq=False)
class GeometrySpec:
    """One array: its kind, its wavelength in meters and its element
    positions in meters, shape (N, 3), which are made read-only.

    ``scenario_geometry`` builds every one.  Element order is fixed: ULA
    by n_z; URA row-major by (n_x, n_y); UCA by n_c; CCA ring-major by
    (ring, n_c).  Circular layouts place element n_c at azimuth
    2*pi*n_c / N_ring.
    """

    kind: ArrayKind
    wavelength: float
    positions: np.ndarray

    def __post_init__(self) -> None:
        self.positions.flags.writeable = False

    @property
    def n_elements(self) -> int:
        return len(self.positions)


def _require_wavelength(wavelength: float) -> None:
    if not 0.0 < wavelength < np.inf:
        raise ValueError(f"wavelength must be finite and positive, got "
                         f"{wavelength:g}")


def _ring_positions(radii: tuple[float, ...], counts: tuple[int, ...],
                    wavelength: float) -> np.ndarray:
    """Concentric rings in the z = 0 plane, ring-major, (sum(counts), 3)."""
    rings = []
    for radius, count in zip(radii, counts):
        ang = 2.0 * np.pi * np.arange(count) / count
        r = radius * wavelength
        rings.append(np.column_stack([r * np.cos(ang), r * np.sin(ang),
                                      np.zeros(count)]))
    return np.vstack(rings)


def unit_directions(az: np.ndarray, el: np.ndarray) -> np.ndarray:
    """Unit vectors toward polar angle ``el`` and azimuth ``az``, shape
    (..., 3) over the broadcast angle shape."""
    az, el = np.broadcast_arrays(np.asarray(az, float), np.asarray(el, float))
    se, ce = np.sin(el), np.cos(el)
    return np.stack([se * np.cos(az), se * np.sin(az), ce], axis=-1)


def steering(positions: np.ndarray, directions: np.ndarray,
             wavelength: float) -> np.ndarray:
    """Unit-norm array response: entry n is exp(j 2 pi p_n.d / lambda)
    / sqrt(N) for element position p_n and unit direction d.

    ``directions`` is one unit vector, shape (3,), giving an (N,) vector,
    or a stack of them, shape (K, 3), giving one column per direction,
    shape (N, K).

    The phase c, in cycles, is reduced to [-1/2, 1/2] exactly; with the
    half-angle tangent t = tan(pi c) the entry is ((1 - t^2) + 2jt) /
    (sqrt(N) (1 + t^2)), within about 5e-16 / sqrt(N) of exp(j 2 pi c) /
    sqrt(N), as a relative error e in t moves the phase 2 arctan(t) by at
    most e.  At c = +-1/2, t is about +-1.6e16, and the entry -1/sqrt(N).
    """
    positions = np.asarray(positions, dtype=float)
    if positions.size == 0:
        raise ValueError("positions must be nonempty")
    _require_wavelength(wavelength)
    cycles = (positions / wavelength) @ np.asarray(directions, dtype=float).T
    cycles -= np.rint(cycles)
    t = np.tan(np.multiply(cycles, np.pi, out=cycles), out=cycles)
    square = t * t
    den = square + 1.0
    den *= np.sqrt(len(positions))                      # sqrt(N) (1 + t^2)
    response = np.empty(cycles.shape, dtype=complex)
    np.divide(np.subtract(1.0, square, out=square), den, out=response.real)
    np.divide(np.multiply(t, 2.0, out=t), den, out=response.imag)
    return response


# Table-style scenario defaults: 82 elements (9x9 = 81 for URA), all
# half-wavelength spaced; the CCA uses the optimized four-ring layout,
# radii in wavelengths.
CCA_RING_RADII = (0.76, 1.36, 2.09, 2.99)
CCA_RING_COUNTS = (9, 17, 25, 31)


def scenario_geometry(kind: ArrayKind | str, wavelength: float,
                      n: int = 82) -> GeometrySpec:
    """The scenario array of one kind with about ``n`` elements.

    ULA: ``n`` elements along z, half a wavelength apart.  URA: the
    square grid of half-wavelength pitch nearest ``n`` (82 gives 9x9).
    UCA: ``n`` elements on a ring of radius n / (4 pi) wavelengths, which
    spaces them half a wavelength apart along the arc.  CCA: the fixed
    82-element four-ring layout, so ``n`` must be 82.
    """
    kind = ArrayKind(kind)
    _require_wavelength(wavelength)
    if n < 1:
        raise ValueError(f"{kind.value} needs n >= 1, got {n}")
    if kind is ArrayKind.ULA:
        pos = np.zeros((n, 3))
        pos[:, 2] = np.arange(n) * 0.5 * wavelength
    elif kind is ArrayKind.URA:
        side = int(round(np.sqrt(n)))
        ix, iy = np.divmod(np.arange(side * side), side)
        pos = np.zeros((side * side, 3))
        pos[:, 0] = ix * 0.5 * wavelength
        pos[:, 1] = iy * 0.5 * wavelength
    elif kind is ArrayKind.UCA:
        pos = _ring_positions((n / (4.0 * np.pi),), (n,), wavelength)
    elif n == sum(CCA_RING_COUNTS):
        pos = _ring_positions(CCA_RING_RADII, CCA_RING_COUNTS, wavelength)
    else:
        raise ValueError("CCA scenario layout is fixed at 82 elements")
    return GeometrySpec(kind, wavelength, pos)
