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
# pixels per block of whole rows in sample_plane and colorize: temporaries stay in cache
BLOCK_PIXELS = 8192
# which levels (0, value, value * (1 - f), value * f) feed r, g, b in each sixth of the hue circle
_SECTOR_LEVELS = np.array([[1, 3, 0], [2, 1, 0], [0, 1, 3], [0, 2, 1], [3, 0, 1], [1, 0, 2]])


@dataclass(frozen=True, eq=False)
class PlaneSpec:
    """Square sampling lattice on a plane in space.

    Sample offsets along each axis are -half_extent + 2*half_extent*i/resolution
    for i in [0, resolution); the lattice step is 2*half_extent/resolution, so
    doubling the resolution keeps every existing sample point.  Pixel (row r,
    col c) of the rendered image maps to origin + u_axis*offset[c] +
    v_axis*offset[r].

    The resolution lies in [MIN_RESOLUTION, MAX_RESOLUTION].  At its peak a
    render holds about 22 bytes of numpy arrays per pixel (traced at 1024^2
    and 2048^2), so the largest accepted render needs about 89 MiB.
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


def _row_blocks(n_rows: int, row_length: int):
    # slices of whole rows, in order, of at most max(BLOCK_PIXELS, row_length) pixels each
    step = max(1, BLOCK_PIXELS // max(1, row_length))
    return (slice(i, i + step) for i in range(0, n_rows, step))


def sample_plane(field, plane: PlaneSpec) -> np.ndarray:
    """Complex field values on the plane lattice, indexed grid[col, row].

    ``field`` is called once per block of whole lattice rows, in order, with
    the block's points, an array of shape (rows, resolution, 3) holding about
    BLOCK_PIXELS points, and returns the complex values at them.  Non-finite
    values (the field is NaN at the emitter and at an obstacle centre on the
    plane) are set to zero, so those pixels render black, and their indices
    are logged.
    """
    offs = plane.offsets()
    # the same two additions per point as origin + du*u + dv*v, so bit-equal
    base = plane.origin + offs[:, None] * plane.u_axis
    grid = np.empty((plane.resolution,) * 2, dtype=complex)
    for rows in _row_blocks(*grid.shape):
        values = np.asarray(field(base[rows, None, :] + offs[:, None] * plane.v_axis), dtype=complex)
        if values.shape != grid[rows].shape:
            raise ValueError(f"field returned shape {values.shape}, expected {grid[rows].shape}")
        grid[rows] = values
    masked = ~np.isfinite(grid)
    if masked.any():
        grid[masked] = 0.0
        first = [tuple(map(int, ij)) for ij in np.argwhere(masked)[:8]]
        logger.info("masked %d singular pixel(s), first few: %s", int(masked.sum()), first)
    return grid


def colorize(grid: np.ndarray, modulus_scale: float) -> FieldImage:
    """Domain-colour a sampled grid; grid columns become image rows.

    Hue encodes the phase (0 degrees at phase 0, increasing linearly around
    the circle); brightness is the modulus clipped at ``modulus_scale``;
    saturation is fixed at 1.  Zero and non-finite values map to black.  A
    channel at level x in [0, 1] of the HSV->RGB map is the byte
    floor(x * 255 + 0.5).
    """
    if modulus_scale <= 0.0:
        raise ValueError(f"modulus_scale must be positive, got {modulus_scale}")
    w, h = grid.shape
    image = np.empty((h, w, 3), dtype=np.uint8)  # grid[i, j] -> pixel row j, col i
    lanes = np.arange(3 * max(BLOCK_PIXELS, h)) // 3 * 4  # 4 p for each channel of block pixel p
    for rows in _row_blocks(w, h):
        z = grid[rows]
        z = np.where(np.isfinite(z), z, 0.0)  # as sample_plane masks them
        with np.errstate(over="ignore"):  # a modulus that overflows is far above the scale: value 1
            value = np.minimum(1.0, np.abs(z) / modulus_scale)
        hue = np.angle(z) / (2.0 * np.pi)
        h6 = (hue + (hue < 0.0)) * 6.0  # the bits of hue % 1.0 on [-1/2, 1/2], at a tenth of the cost
        sector = np.floor(h6)
        f = h6 - sector
        levels = np.zeros(z.shape + (4,), dtype=np.uint8)
        for i, x in enumerate((value, value * (1.0 - f), value * f), start=1):
            levels[..., i] = np.floor(x * 255.0 + 0.5)
        # h6 is 6.0 where hue % 1.0 rounds up to a whole turn: sector 6 is sector 0
        picks = np.take(_SECTOR_LEVELS, sector.astype(np.intp) % 6, axis=0).ravel()
        picks += lanes[:picks.size]
        image[:, rows] = levels.ravel()[picks].reshape(z.shape + (3,)).transpose(1, 0, 2)
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
