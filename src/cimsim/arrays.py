"""Antenna array geometries and the steering (array response) kernel.

Supported layouts: uniform linear (ULA, along z), uniform rectangular
(URA, x-y plane), uniform circular (UCA) and concentric circular (CCA),
both in the z = 0 plane.  Element spacings and radii are given in
wavelengths; positions come out in meters.

Angle convention: ``el`` is the polar angle measured from the +z axis,
``az`` the azimuth in the x-y plane from +x.  Angles are taken as given
(no wrapping or clamping).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s


class ArrayKind(str, Enum):
    ULA = "ULA"
    URA = "URA"
    UCA = "UCA"
    CCA = "CCA"


@dataclass(frozen=True)
class GeometrySpec:
    """Element layout description for one of the four array kinds.

    Only the fields relevant to ``kind`` are used.  Spacings (``d_*``)
    and radii are in wavelengths; ``wavelength`` is in meters.
    """

    kind: ArrayKind
    wavelength: float
    n_z: int = 0
    d_z: float = 0.5
    n_x: int = 0
    n_y: int = 0
    d_x: float = 0.5
    d_y: float = 0.5
    n_circ: int = 0
    radius: float = 0.0
    ring_radii: tuple[float, ...] = field(default_factory=tuple)
    ring_counts: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not 0.0 < self.wavelength < np.inf:
            raise ValueError("wavelength must be finite and positive, got "
                             f"{self.wavelength:g}")
        if self.kind is ArrayKind.ULA:
            if self.n_z < 1 or self.d_z <= 0:
                raise ValueError("ULA needs n_z >= 1 and d_z > 0")
        elif self.kind is ArrayKind.URA:
            if self.n_x < 1 or self.n_y < 1:
                raise ValueError("URA needs n_x, n_y >= 1")
            if self.d_x <= 0 or self.d_y <= 0:
                raise ValueError("URA spacings must be positive")
        elif self.kind is ArrayKind.UCA:
            if self.n_circ < 1 or self.radius <= 0:
                raise ValueError("UCA needs n_circ >= 1 and radius > 0")
        elif self.kind is ArrayKind.CCA:
            if len(self.ring_radii) != len(self.ring_counts):
                raise ValueError("CCA ring radius/count lists differ in length")
            if not self.ring_radii:
                raise ValueError("CCA needs at least one ring")
            if any(r <= 0 for r in self.ring_radii):
                raise ValueError("CCA ring radii must be positive")
            if any(n < 1 for n in self.ring_counts):
                raise ValueError("CCA ring counts must be >= 1")

    @property
    def n_elements(self) -> int:
        if self.kind is ArrayKind.ULA:
            return self.n_z
        if self.kind is ArrayKind.URA:
            return self.n_x * self.n_y
        if self.kind is ArrayKind.UCA:
            return self.n_circ
        return int(sum(self.ring_counts))

    @staticmethod
    def ula(n: int, wavelength: float, spacing: float = 0.5) -> "GeometrySpec":
        return GeometrySpec(ArrayKind.ULA, wavelength, n_z=n, d_z=spacing)

    @staticmethod
    def ura(n_x: int, n_y: int, wavelength: float,
            spacing: float = 0.5) -> "GeometrySpec":
        return GeometrySpec(ArrayKind.URA, wavelength, n_x=n_x, n_y=n_y,
                            d_x=spacing, d_y=spacing)

    @staticmethod
    def uca(n: int, wavelength: float, radius: float | None = None) -> "GeometrySpec":
        # Default radius keeps ~half-wavelength arc spacing between elements.
        if radius is None:
            radius = n / (4.0 * np.pi)
        return GeometrySpec(ArrayKind.UCA, wavelength, n_circ=n, radius=radius)

    @staticmethod
    def cca(ring_radii: tuple[float, ...], ring_counts: tuple[int, ...],
            wavelength: float) -> "GeometrySpec":
        return GeometrySpec(ArrayKind.CCA, wavelength,
                            ring_radii=tuple(ring_radii),
                            ring_counts=tuple(ring_counts))


def element_positions(spec: GeometrySpec) -> np.ndarray:
    """Element coordinates in meters, shape (N, 3).

    Ordering is fixed: ULA by n_z; URA row-major by (n_x, n_y); UCA by
    n_c; CCA ring-major by (ring, n_c).  Circular layouts place element
    n_c at azimuth 2*pi*n_c / N_ring, one angle set per ring.
    """
    lam = spec.wavelength
    if spec.kind is ArrayKind.ULA:
        z = np.arange(spec.n_z) * spec.d_z * lam
        pos = np.zeros((spec.n_z, 3))
        pos[:, 2] = z
        return pos
    if spec.kind is ArrayKind.URA:
        ix, iy = np.meshgrid(np.arange(spec.n_x), np.arange(spec.n_y),
                             indexing="ij")
        pos = np.zeros((spec.n_x * spec.n_y, 3))
        pos[:, 0] = ix.ravel() * spec.d_x * lam
        pos[:, 1] = iy.ravel() * spec.d_y * lam
        return pos
    if spec.kind is ArrayKind.UCA:
        ang = 2.0 * np.pi * np.arange(spec.n_circ) / spec.n_circ
        r = spec.radius * lam
        return np.column_stack([r * np.cos(ang), r * np.sin(ang),
                                np.zeros(spec.n_circ)])
    rings = []
    for radius, count in zip(spec.ring_radii, spec.ring_counts):
        ang = 2.0 * np.pi * np.arange(count) / count
        r = radius * lam
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
    """
    positions = np.asarray(positions, dtype=float)
    if positions.size == 0:
        raise ValueError("positions must be nonempty")
    if not 0.0 < wavelength < np.inf:
        raise ValueError(f"wavelength must be finite and positive, got "
                         f"{wavelength:g}")
    k = (2.0 * np.pi / wavelength) * np.asarray(directions, dtype=float)
    return np.exp(1j * (positions @ k.T)) / np.sqrt(positions.shape[0])


# Table-style scenario defaults: 82 elements (9x9 = 81 for URA), all
# half-wavelength spaced; the CCA uses the optimized four-ring layout.
CCA_RING_RADII = (0.76, 1.36, 2.09, 2.99)
CCA_RING_COUNTS = (9, 17, 25, 31)


def scenario_geometry(kind: ArrayKind | str, wavelength: float,
                      n: int = 82) -> GeometrySpec:
    """Default geometry of the simulated scenario for one array kind."""
    kind = ArrayKind(kind)
    if kind is ArrayKind.ULA:
        return GeometrySpec.ula(n, wavelength)
    if kind is ArrayKind.URA:
        side = int(round(np.sqrt(n)))
        return GeometrySpec.ura(side, side, wavelength)
    if kind is ArrayKind.UCA:
        return GeometrySpec.uca(n, wavelength)
    if n != sum(CCA_RING_COUNTS):
        raise ValueError("CCA scenario layout is fixed at 82 elements")
    return GeometrySpec.cca(CCA_RING_RADII, CCA_RING_COUNTS, wavelength)
