"""Domain-coloring renderer for complex wave fields.

Samples a field on a plane and writes a binary PPM image in which the phase
of the field sets the colour hue and the modulus sets the brightness, at full
saturation.  The emitter-free image shows concentric phase rings dimming as
1/R; adding an obstacle dims the whole spherical wave by the normalization
factor and adds a bright forward beam behind the atom.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .numerics import require_unit

__all__ = [
    "PlaneSpec",
    "FieldImage",
    "sample_plane",
    "colorize",
    "write_ppm",
    "write_grid_csv",
]

logger = logging.getLogger(__name__)

ORTHOGONALITY_TOL = 1e-10
MIN_RESOLUTION = 16
MAX_RESOLUTION = 2048


@dataclass(frozen=True, eq=False)
class PlaneSpec:
    """Square sampling lattice on a plane in space.

    Sample offsets along each axis are -half_extent + 2*half_extent*i/resolution
    for i in [0, resolution); the lattice step is 2*half_extent/resolution, so
    doubling the resolution keeps every existing sample point.  Pixel (row r,
    col c) of the rendered image maps to origin + u_axis*offset[c] +
    v_axis*offset[r].

    The resolution lies in [MIN_RESOLUTION, MAX_RESOLUTION].  A render
    allocates about 176 bytes of arrays per pixel at its peak (traced numpy
    allocations of obstacle renders from 384^2 to 2048^2), so the largest
    accepted render needs about 704 MiB.
    """

    origin: np.ndarray
    u_axis: np.ndarray
    v_axis: np.ndarray
    half_extent: float
    resolution: int

    def __post_init__(self):
        origin = np.asarray(self.origin, dtype=float)
        if origin.shape != (3,) or not np.all(np.isfinite(origin)):
            raise ValueError(f"origin must be a finite 3-vector, got {self.origin}")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "u_axis", require_unit(self.u_axis))
        object.__setattr__(self, "v_axis", require_unit(self.v_axis))
        if abs(float(np.dot(self.u_axis, self.v_axis))) > ORTHOGONALITY_TOL:
            raise ValueError("plane axes must be orthogonal")
        if self.half_extent <= 0.0:
            raise ValueError(f"half_extent must be positive, got {self.half_extent}")
        if not MIN_RESOLUTION <= self.resolution <= MAX_RESOLUTION:
            raise ValueError(
                f"resolution must lie in [{MIN_RESOLUTION}, {MAX_RESOLUTION}], got {self.resolution}"
            )

    def offsets(self) -> np.ndarray:
        i = np.arange(self.resolution, dtype=float)
        return -self.half_extent + 2.0 * self.half_extent * i / self.resolution


@dataclass(frozen=True, eq=False)
class FieldImage:
    """RGB image as raw row-major byte triples."""

    width: int
    height: int
    rgb: bytes

    def __post_init__(self):
        if len(self.rgb) != 3 * self.width * self.height:
            raise ValueError(
                f"rgb length {len(self.rgb)} != 3 * {self.width} * {self.height}"
            )


def sample_plane(field, plane: PlaneSpec) -> np.ndarray:
    """Complex field values on the plane lattice, indexed grid[col, row].

    ``field`` is called once with all lattice points, an array of shape
    (resolution, resolution, 3), and returns the complex values at them.
    Non-finite values (the field is NaN at the emitter and at an obstacle
    centre on the plane) are set to zero, so those pixels render black, and
    their indices are logged.
    """
    offs = plane.offsets()
    res = plane.resolution
    # the same two additions per point as origin + du*u + dv*v, so bit-equal
    base = plane.origin + offs[:, None] * plane.u_axis
    points = base[:, None, :] + offs[None, :, None] * plane.v_axis
    grid = np.asarray(field(points), dtype=complex)
    if grid.shape != (res, res):
        raise ValueError(f"field returned shape {grid.shape}, expected {(res, res)}")
    masked = ~np.isfinite(grid)
    if masked.any():
        grid[masked] = 0.0
        first = [tuple(map(int, ij)) for ij in np.argwhere(masked)[:8]]
        logger.info("masked %d singular pixel(s), first few: %s", int(masked.sum()), first)
    return grid


def _hsv_to_rgb_bytes(hue_turns: np.ndarray, value: np.ndarray) -> np.ndarray:
    # standard HSV->RGB at saturation 1, hue in turns
    h6 = (hue_turns % 1.0) * 6.0
    sector = np.floor(h6).astype(int) % 6
    f = h6 - np.floor(h6)
    p = np.zeros_like(value)
    q = value * (1.0 - f)
    t = value * f
    r = np.choose(sector, [value, q, p, p, t, value])
    g = np.choose(sector, [t, value, value, q, p, p])
    b = np.choose(sector, [p, p, t, value, value, q])
    rgb = np.stack([r, g, b], axis=-1)
    return np.floor(np.clip(rgb, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


def colorize(grid: np.ndarray, modulus_scale: float) -> FieldImage:
    """Domain-colour a sampled grid; grid columns become image rows.

    Hue encodes the phase (0 degrees at phase 0, increasing linearly around
    the circle); brightness is the modulus clipped at ``modulus_scale``;
    saturation is fixed at 1.  Zero maps to black.
    """
    if modulus_scale <= 0.0:
        raise ValueError(f"modulus_scale must be positive, got {modulus_scale}")
    hue = np.angle(grid) / (2.0 * np.pi)
    value = np.minimum(1.0, np.abs(grid) / modulus_scale)
    rgb = _hsv_to_rgb_bytes(hue, value)
    image = np.transpose(rgb, (1, 0, 2))  # grid[i, j] -> pixel row j, col i
    h, w, _ = image.shape
    return FieldImage(width=w, height=h, rgb=image.tobytes())


def write_ppm(image: FieldImage, path) -> None:
    """Write a binary PPM (P6, maxval 255); byte-exact for golden-file tests."""
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(image.rgb)
    except OSError as exc:
        raise OSError(f"failed writing PPM to {path}: {exc}") from exc


def write_grid_csv(grid: np.ndarray, plane: PlaneSpec, path) -> None:
    """Dump the complex grid as CSV rows ``u,v,re,im``."""
    offs = plane.offsets()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("u,v,re,im\n")
        for i, du in enumerate(offs):
            for j, dv in enumerate(offs):
                z = grid[i, j]
                fh.write(f"{float(du)!r},{float(dv)!r},{float(z.real)!r},{float(z.imag)!r}\n")
