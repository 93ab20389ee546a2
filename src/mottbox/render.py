"""Domain-coloring renderer for complex wave fields.

Samples a field on a plane and writes a binary PPM image in which the phase
of the field sets the colour hue and the modulus sets the brightness, at full
saturation.  The emitter-free image shows concentric phase rings dimming as
1/R; adding an obstacle dims the whole spherical wave by the normalization
factor and adds a bright forward beam behind the atom.
"""

from __future__ import annotations

import contextlib
import logging
import os

import numpy as np

from .numerics import Frozen, require_unit

__all__ = [
    "PlaneSpec",
    "FieldImage",
    "sample_plane",
    "render_plane",
    "check_modulus_scale",
    "colorize",
    "write_ppm",
]

logger = logging.getLogger(__name__)

ORTHOGONALITY_TOL = 1e-10
MIN_RESOLUTION = 16
MAX_RESOLUTION = 2048
# pixels per block of whole rows in sampling, colouring and grid.csv: temporaries stay in cache
BLOCK_PIXELS = 8192
# which levels (0, value, value * (1 - f), value * f) feed r, g, b in each sixth of the hue circle
_SECTOR_LEVELS = np.array([[1, 3, 0], [2, 1, 0], [0, 1, 3], [0, 2, 1], [3, 0, 1], [1, 0, 2]])


class PlaneSpec(Frozen):
    """Square sampling lattice on a plane in space.

    Sample offsets along each axis are -half_extent + 2*half_extent*i/resolution
    for i in [0, resolution); the lattice step is 2*half_extent/resolution, so
    doubling the resolution keeps every existing sample point.  Pixel (row r,
    col c) of the rendered image maps to origin + u_axis*offset[c] +
    v_axis*offset[r].

    The resolution lies in [MIN_RESOLUTION, MAX_RESOLUTION].  At its peak
    :func:`render_plane` holds the image, 3 bytes a pixel, plus under 2 MiB of
    block arrays and grid.csv text (traced at 384^2 to 2048^2), so the largest
    accepted render needs about 14 MiB; a :func:`sample_plane` grid adds 16
    bytes a pixel.
    """

    __slots__ = ("origin", "u_axis", "v_axis", "half_extent", "resolution")

    def __init__(self, origin, u_axis, v_axis, half_extent: float, resolution: int):
        point = np.asarray(origin, dtype=float)
        if point.shape != (3,) or not np.all(np.isfinite(point)):
            raise ValueError(f"origin must be a finite 3-vector, got {origin}")
        super().__init__(point, require_unit(u_axis), require_unit(v_axis), half_extent, resolution)
        if abs(float(np.dot(self.u_axis, self.v_axis))) > ORTHOGONALITY_TOL:
            raise ValueError("plane axes must be orthogonal")
        if half_extent <= 0.0:
            raise ValueError(f"half_extent must be positive, got {half_extent}")
        if not MIN_RESOLUTION <= resolution <= MAX_RESOLUTION:
            raise ValueError(f"resolution must lie in [{MIN_RESOLUTION}, {MAX_RESOLUTION}], got {resolution}")
        # the offsets and sample_plane's sums are monotone, so finite corners mean finite points
        with np.errstate(over="ignore", invalid="ignore"):
            ends = self.offsets()[[0, -1]]
            corners = point + ends[:, None, None] * self.u_axis + ends[:, None] * self.v_axis
        if not np.isfinite(corners).all():
            raise ValueError(f"half_extent {self.half_extent} overflows the lattice about origin {point}")

    def offsets(self) -> np.ndarray:
        i = np.arange(self.resolution, dtype=float)
        return -self.half_extent + 2.0 * self.half_extent * i / self.resolution


class FieldImage(Frozen):
    """RGB image as raw row-major byte triples; a render fills a bytearray ``rgb`` in place."""

    __slots__ = ("width", "height", "rgb")

    def __init__(self, width: int, height: int, rgb: bytes | bytearray):
        if len(rgb) != 3 * width * height:
            raise ValueError(f"rgb length {len(rgb)} != 3 * {width} * {height}")
        super().__init__(width, height, rgb)


def _row_blocks(n_rows: int, row_length: int):
    # slices of whole rows, in order, of at most max(BLOCK_PIXELS, row_length) pixels each
    step = max(1, BLOCK_PIXELS // max(1, row_length))
    return (slice(i, i + step) for i in range(0, n_rows, step))


def _masked(z: np.ndarray):
    # z with its non-finite values set to zero, and the indices of those values in order
    bad = ~np.isfinite(z)
    if not bad.any():
        return z, ()
    return np.where(bad, 0.0, z), np.argwhere(bad)


def _sampled_blocks(field, plane: PlaneSpec):
    # (rows, values) for each block of whole lattice rows, in order, with the
    # non-finite values set to zero; the masked pixels are logged after the last block
    offs = plane.offsets()
    # the same two additions per point as origin + du*u + dv*v, so bit-equal
    base = plane.origin + offs[:, None] * plane.u_axis
    count, first = 0, []
    for rows in _row_blocks(plane.resolution, plane.resolution):
        points = base[rows, None, :] + offs[:, None] * plane.v_axis
        values = np.asarray(field(points), dtype=complex)
        if values.shape != points.shape[:-1]:
            raise ValueError(f"field returned shape {values.shape}, expected {points.shape[:-1]}")
        values, bad = _masked(values)
        count += len(bad)
        first += [(rows.start + int(i), int(j)) for i, j in bad[:8 - len(first)]]
        yield rows, values
    if count:
        logger.info("masked %d singular pixel(s), first few: %s", count, first)


def sample_plane(field, plane: PlaneSpec) -> np.ndarray:
    """Complex field values on the plane lattice, indexed grid[col, row].

    ``field`` is called once per block of whole lattice rows, in order, with
    the block's points, an array of shape (rows, resolution, 3) holding about
    BLOCK_PIXELS points, and returns the complex values at them.  Non-finite
    values (the field is NaN at the emitter and at an obstacle centre on the
    plane) are set to zero, so those pixels render black, and their indices
    are logged.
    """
    grid = np.empty((plane.resolution,) * 2, dtype=complex)
    for rows, values in _sampled_blocks(field, plane):
        grid[rows] = values
    return grid


def check_modulus_scale(modulus_scale: float) -> float:
    """The brightness scale of :func:`colorize`, which must be positive."""
    if modulus_scale <= 0.0:
        raise ValueError(f"modulus_scale must be positive, got {modulus_scale}")
    return modulus_scale


def _canvas(width: int, height: int, modulus_scale: float):
    # a black image and paint(rows, z), which colours the finite grid rows z into
    # image columns rows (grid[i, j] -> pixel row j, col i)
    check_modulus_scale(modulus_scale)
    image = FieldImage(width=width, height=height, rgb=bytearray(3 * width * height))
    pixels = np.frombuffer(image.rgb, dtype=np.uint8).reshape(height, width, 3)
    lanes = np.arange(3 * max(BLOCK_PIXELS, height)) // 3 * 4  # 4 p for each channel of block pixel p

    def paint(rows: slice, z: np.ndarray) -> None:
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
        pixels[:, rows] = levels.ravel()[picks].reshape(z.shape + (3,)).transpose(1, 0, 2)

    return image, paint


def colorize(grid: np.ndarray, modulus_scale: float) -> FieldImage:
    """Domain-colour a sampled grid; grid columns become image rows.

    Hue encodes the phase (0 degrees at phase 0, increasing linearly around
    the circle); brightness is the modulus clipped at ``modulus_scale``;
    saturation is fixed at 1.  Zero and non-finite values map to black.  A
    channel at level x in [0, 1] of the HSV->RGB map is the byte
    floor(x * 255 + 0.5).
    """
    image, paint = _canvas(*grid.shape, modulus_scale)
    for rows in _row_blocks(*grid.shape):
        paint(rows, _masked(grid[rows])[0])  # as sample_plane masks them
    return image


@contextlib.contextmanager
def _grid_csv(plane: PlaneSpec, path):
    # write(rows, z) appends the ``u,v,re,im`` lines of grid rows z to the CSV at path, after its
    # header, and a run that fails after it opens removes it, as cli._csv does; no path, no file
    if path is None:
        yield lambda rows, z: None
        return
    labels = list(map(repr, plane.offsets().tolist()))  # each lattice offset formatted once
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("u,v,re,im\n")

        def write(rows: slice, z: np.ndarray) -> None:
            for u, re, im in zip(labels[rows], z.real.tolist(), z.imag.tolist()):
                fh.write("".join([f"{u},{v},{r!r},{m!r}\n" for v, r, m in zip(labels, re, im)]))

        try:
            yield write
        except BaseException:
            fh.close()
            os.remove(path)
            raise


def render_plane(field, plane: PlaneSpec, modulus_scale: float, grid_csv=None) -> FieldImage:
    """Sample ``field`` on ``plane`` and colour it, one block of lattice rows at a time.

    The image is colorize(sample_plane(field, plane), modulus_scale), and
    ``grid_csv``, when given, receives the bytes that ``write_grid_csv`` in
    tests/oracles.py writes for that grid; but each block is coloured and
    written as it is sampled, so the image is the only array the plane's size.
    """
    image, paint = _canvas(plane.resolution, plane.resolution, modulus_scale)
    with _grid_csv(plane, grid_csv) as write:
        for rows, values in _sampled_blocks(field, plane):
            paint(rows, values)
            write(rows, values)
    return image


def write_ppm(image: FieldImage, path) -> None:
    """Write a binary PPM (P6, maxval 255); byte-exact for golden-file tests."""
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(image.rgb)
    except OSError as exc:
        raise OSError(f"failed writing PPM to {path}: {exc}") from exc
