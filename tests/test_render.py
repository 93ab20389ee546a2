import colorsys
import hashlib
import logging
import math
import tracemalloc

import numpy as np
import pytest

from mottbox import render
from mottbox.mott import ScatteringContext, atom, normalization_c2, wave_field
from mottbox.render import (
    MAX_RESOLUTION,
    FieldImage,
    PlaneSpec,
    colorize,
    render_plane,
    sample_plane,
    write_ppm,
)
from oracles import colorize_choose, colormap, lattice_points, render_field, write_grid_csv

# frozen after the first verified render (phase rings spaced 2 pi / k plus
# 1/R radial dimming, singular centre pixel masked to black)
GOLDEN_FREE_RENDER_SHA256 = "881d49d7ab127aad7154bc702a48d7a1f8cfb44acd32b42ac3bead5c2ed34666"


def xy_plane(half_extent=10.0, resolution=64):
    return PlaneSpec(
        origin=np.zeros(3),
        u_axis=np.array([1.0, 0.0, 0.0]),
        v_axis=np.array([0.0, 1.0, 0.0]),
        half_extent=half_extent,
        resolution=resolution,
    )


def brightness(image: FieldImage) -> np.ndarray:
    # saturation is 1, so HSV value is the max channel
    pixels = np.frombuffer(image.rgb, dtype=np.uint8).reshape(image.height, image.width, 3)
    return pixels.max(axis=2) / 255.0


def test_plane_spec_validation():
    with pytest.raises(ValueError, match="orthogonal"):
        PlaneSpec(
            origin=np.zeros(3),
            u_axis=np.array([1.0, 0.0, 0.0]),
            v_axis=np.array([0.7071067811865476, 0.7071067811865476, 0.0]),
            half_extent=1.0,
            resolution=32,
        )
    with pytest.raises(ValueError, match="resolution"):
        xy_plane(resolution=8)
    with pytest.raises(ValueError, match="resolution"):
        xy_plane(resolution=MAX_RESOLUTION + 1)
    for origin in ([0.0, 0.0], [0.0, 0.0, np.nan], [np.inf, 0.0, 0.0]):
        with pytest.raises(ValueError, match="origin"):
            PlaneSpec(
                origin=origin,
                u_axis=np.array([1.0, 0.0, 0.0]),
                v_axis=np.array([0.0, 1.0, 0.0]),
                half_extent=1.0,
                resolution=32,
            )
    with pytest.raises(ValueError, match="unit"):
        PlaneSpec(
            origin=np.zeros(3),
            u_axis=np.array([2.0, 0.0, 0.0]),
            v_axis=np.array([0.0, 1.0, 0.0]),
            half_extent=1.0,
            resolution=32,
        )


@pytest.mark.parametrize("origin, half_extent", [
    ([0.0, 0.0, 0.0], 5.992310449541053e+306),  # 2 * half_extent * 15 overflows
    ([0.0, 0.0, 0.0], 1e308),  # 2 * half_extent overflows: the first offset is NaN
    ([1.7e308, 0.0, 0.0], 5e307),
    ([1.79e308, 0.0, 0.0], 5e306),  # every offset finite, origin + offset overflows
    ([0.0, 0.0, -1.79e308], 5e306),  # along v, at the last offset
    ([0.0, 1.7e308, 0.0], 2e307),
])
def test_plane_whose_lattice_overflows_is_rejected(origin, half_extent):
    plane = dict(origin=origin, u_axis=[1.0, 0.0, 0.0], v_axis=[0.0, 0.6, -0.8],
                 half_extent=half_extent, resolution=16)
    with pytest.raises(ValueError, match="overflows the lattice"):
        PlaneSpec(**plane)


@pytest.mark.parametrize("origin, half_extent", [
    ([0.0, 0.0, 0.0], 5.9e306),
    ([1.7e308, 0.0, 0.0], 5e306),
    ([0.0, 1.7e308, -1.7e308], 1e306),
])
def test_plane_near_the_float_limit_samples_finite_points(origin, half_extent):
    plane = PlaneSpec(origin=origin, u_axis=[1.0, 0.0, 0.0], v_axis=[0.0, 0.6, -0.8],
                      half_extent=half_extent, resolution=16)
    points = []
    sample_plane(lambda p: points.append(p) or np.zeros(p.shape[:-1]), plane)
    assert np.isfinite(np.concatenate(points)).all()


def test_plane_offsets_lattice():
    plane = xy_plane(half_extent=8.0, resolution=16)
    offs = plane.offsets()
    assert offs[0] == -8.0
    assert len(offs) == 16
    assert np.allclose(np.diff(offs), 1.0)
    assert offs[-1] == 7.0  # half-open lattice: +half_extent itself is excluded


def test_sample_plane_constant_field():
    grid = sample_plane(lambda p: np.full(p.shape[:-1], 1.0 + 0.0j), xy_plane(resolution=16))
    assert np.all(grid == 1.0 + 0.0j)
    with pytest.raises(ValueError, match="shape"):
        sample_plane(lambda p: 1.0 + 0.0j, xy_plane(resolution=16))


def test_sample_plane_lattice_matches_point_loop(monkeypatch):
    # the field sees every lattice point once, in blocks of whole rows taken in order
    plane = PlaneSpec(
        origin=np.array([0.3, -1.7, 2.9]),
        u_axis=np.array([0.6, 0.8, 0.0]),
        v_axis=np.array([0.0, 0.0, 1.0]),
        half_extent=7.3,
        resolution=24,
    )
    offs = plane.offsets()
    for block_pixels, block_rows in ((render.BLOCK_PIXELS, [24]), (24, [1] * 24), (7 * 24, [7, 7, 7, 3])):
        monkeypatch.setattr(render, "BLOCK_PIXELS", block_pixels)
        seen = []

        def field(points):
            seen.append(points)
            return np.zeros(points.shape[:-1], dtype=complex)

        sample_plane(field, plane)
        assert [block.shape for block in seen] == [(rows, 24, 3) for rows in block_rows]
        points = np.concatenate(seen)
        for i, du in enumerate(offs):
            for j, dv in enumerate(offs):
                assert np.array_equal(points[i, j], plane.origin + du * plane.u_axis + dv * plane.v_axis)


@pytest.mark.parametrize("block_rows", [1, 3, 7, 16, 64, None])
@pytest.mark.parametrize("resolution", [100, 170])
def test_sample_plane_in_blocks_is_one_whole_lattice_call(monkeypatch, caplog, resolution, block_rows):
    # neither resolution is a multiple of the default block (81 and 48 rows);
    # the emitter (offset index resolution / 2) and the obstacle centre
    # (offset 12 = -20 + 40 * 0.8) both lie on the lattice
    if block_rows is not None:
        monkeypatch.setattr(render, "BLOCK_PIXELS", block_rows * resolution)
    ctx = ScatteringContext.from_wavenumber(10.0, 0.01)
    obstacle = atom(position=np.array([12.0, 0.0, 0.0]), width=1.0, g0=50.0, g1=0.0, delta_e=0.01)
    plane = xy_plane(half_extent=20.0, resolution=resolution)
    with np.errstate(invalid="ignore"):
        whole = wave_field(ctx, obstacle, lattice_points(plane))
    masked = ~np.isfinite(whole)
    centre = resolution // 2
    assert np.argwhere(masked).tolist() == [[centre, centre], [resolution * 4 // 5, centre]]
    with caplog.at_level(logging.INFO, logger="mottbox.render"):
        grid = sample_plane(lambda p: wave_field(ctx, obstacle, p), plane)
    assert grid.tobytes() == np.where(masked, 0.0, whole).tobytes()
    first = [tuple(ij) for ij in np.argwhere(masked).tolist()]
    assert f"masked 2 singular pixel(s), first few: {first}" in caplog.text


@pytest.mark.parametrize("seed", range(6))
def test_sample_plane_in_blocks_matches_whole_lattice_on_random_planes(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    axes, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    plane = PlaneSpec(origin=rng.uniform(-5.0, 5.0, 3), u_axis=axes[:, 0], v_axis=axes[:, 1],
                      half_extent=rng.uniform(5.0, 30.0), resolution=int(rng.integers(16, 120)))
    direction = rng.standard_normal(3)
    obstacle = atom(position=rng.uniform(12.0, 30.0) * direction / np.linalg.norm(direction),
                    width=rng.uniform(0.5, 1.2), g0=rng.uniform(0.1, 50.0), g1=rng.uniform(0.0, 5.0))
    ctx = ScatteringContext.from_wavenumber(rng.uniform(1.0, 10.0))
    whole = wave_field(ctx, obstacle, lattice_points(plane))
    for block_rows in (1, 3, None):
        if block_rows is not None:
            monkeypatch.setattr(render, "BLOCK_PIXELS", block_rows * plane.resolution)
        grid = sample_plane(lambda p: wave_field(ctx, obstacle, p), plane)
        assert grid.tobytes() == whole.tobytes()


def test_sample_plane_free_wave_rings():
    k = 2.0
    ctx = ScatteringContext.from_wavenumber(k)
    plane = xy_plane(half_extent=10.0, resolution=64)
    grid = sample_plane(lambda p: wave_field(ctx, None, p), plane)
    offs = plane.offsets()
    row = int(np.where(offs == 0.0)[0][0])
    radii = offs[offs > 0]
    phases = np.angle(grid[offs > 0, row])
    expected = np.mod(k * radii, 2.0 * np.pi)
    expected = np.where(expected > np.pi, expected - 2.0 * np.pi, expected)
    assert np.allclose(phases, expected, atol=1e-12)
    # unwrapped phase climbs by k per unit radius: rings spaced 2 pi / k
    step = radii[1] - radii[0]
    assert np.allclose(np.diff(np.unwrap(phases)), k * step, atol=1e-12)
    moduli = np.abs(grid[offs > 0, row])
    assert np.all(np.diff(moduli) < 0.0)


def test_sample_plane_resolution_refinement_shares_points():
    field = lambda p: np.exp(-np.sum(p * p, axis=-1) / 9.0) * np.exp(1j * p[..., 0])
    coarse = sample_plane(field, xy_plane(half_extent=5.0, resolution=16))
    fine = sample_plane(field, xy_plane(half_extent=5.0, resolution=32))
    assert np.array_equal(coarse, fine[::2, ::2])


def test_sample_plane_masks_singular_points(caplog):
    ctx = ScatteringContext.from_wavenumber(2.0)
    plane = xy_plane(half_extent=10.0, resolution=16)
    with caplog.at_level(logging.INFO, logger="mottbox.render"):
        grid = sample_plane(lambda p: wave_field(ctx, None, p), plane)
    offs = plane.offsets()
    i = int(np.where(offs == 0.0)[0][0])
    assert grid[i, i] == 0.0
    assert "masked 1 singular pixel" in caplog.text


def test_colormap_zero_is_black():
    assert colormap(0.0 + 0.0j, 1.0) == (0, 0, 0)


def test_colormap_full_scale_real_is_red():
    assert colormap(2.5 + 0.0j, 2.5) == (255, 0, 0)


def test_colormap_rejects_bad_scale():
    with pytest.raises(ValueError):
        colormap(1.0 + 0.0j, 0.0)


def test_colormap_hue_depends_only_on_phase():
    z = 0.3 * np.exp(1j * 1.234)
    for factor in (2.0, 5.0, 40.0):
        r1, g1, b1 = colormap(z, 1.0)
        r2, g2, b2 = colormap(factor * z, 1.0)
        h1 = colorsys.rgb_to_hsv(r1 / 255, g1 / 255, b1 / 255)[0]
        h2 = colorsys.rgb_to_hsv(r2 / 255, g2 / 255, b2 / 255)[0]
        assert abs(h1 - h2) < 0.01 or abs(abs(h1 - h2) - 1.0) < 0.01


def test_colormap_brighter_with_larger_modulus():
    z = 0.2 * np.exp(1j * 0.7)
    dim = colormap(z, 1.0)
    bright = colormap(2.0 * z, 1.0)
    assert max(bright) >= max(dim)


def test_colormap_phase_quadrants():
    # phase 0 -> hue 0 (red); +pi/2 -> 90 deg; pi -> 180 deg; -pi/2 -> 270 deg
    assert colormap(1.0 + 0.0j, 1.0) == (255, 0, 0)
    assert colormap(1.0j, 1.0) == (128, 255, 0)
    assert colormap(-1.0 + 0.0j, 1.0) == (0, 255, 255)
    assert colormap(-1.0j, 1.0) == (128, 0, 255)


def test_colorize_matches_scalar_colormap():
    rng = np.random.default_rng(8)
    grid = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    image = colorize(grid, 1.5)
    pixels = np.frombuffer(image.rgb, dtype=np.uint8).reshape(image.height, image.width, 3)
    assert image.width == 5 and image.height == 4
    for i in range(5):
        for j in range(4):
            assert tuple(pixels[j, i]) == colormap(grid[i, j], 1.5)


def edge_phases():
    # each sixth-of-a-turn edge and 40 ulps on either side of it
    phases = []
    for edge in np.pi / 3.0 * np.arange(-3, 4):
        below, above = [edge], [edge]
        for _ in range(40):
            below.append(np.nextafter(below[-1], -np.inf))
            above.append(np.nextafter(above[-1], np.inf))
        phases += below[::-1] + above[1:]
    return np.array(phases)


def colorize_grid():
    scale = 0.5
    rng = np.random.default_rng(14)
    phases = np.concatenate([edge_phases(), rng.uniform(-np.pi, np.pi, 2000)])
    moduli = np.concatenate([[0.0, 0.3 * scale, scale, 1.7 * scale, 1e300], rng.uniform(0.0, 2.0 * scale, 20)])
    values = (moduli[:, None] * np.exp(1j * phases)).ravel()
    special = [0.0, -0.0 + 0.0j, complex(0.0, -0.0), complex(-0.0, -0.0), 1.0, -1.0, 1j, -1j,
               complex(-1.0, -0.0), complex(0.3, -1e-300), complex(0.3, -5e-324), complex(0.3, -0.0),
               complex(np.inf, 0.0), complex(np.inf, np.inf), complex(-np.inf, 1.0), complex(0.0, -np.inf),
               complex(-np.inf, -np.inf), complex(1e308, 1e308), complex(-1e308, -1e-308)]
    values = np.concatenate([values, special])
    values = np.concatenate([values, np.zeros(-len(values) % 61)])  # whole rows of 61 pixels
    return values.reshape(-1, 61), scale


def test_colorize_renders_non_finite_values_black():
    grid = np.random.default_rng(15).uniform(-1.0, 1.0, (24, 64)).view(complex)
    bad = [complex(np.nan, 0.0), complex(0.5, np.nan), complex(np.nan, np.nan), complex(np.inf, 0.0),
           complex(-np.inf, 0.3), complex(0.2, np.inf), complex(0.0, -np.inf), complex(np.inf, np.nan)]
    cells = [(i, 3 * i + 1) for i in range(len(bad))]
    zeroed = grid.copy()
    for (i, j), z in zip(cells, bad):
        grid[i, j], zeroed[i, j] = z, 0.0
    image = colorize(grid, 0.5)  # a cast of NaN would warn, and tier-1 fails on RuntimeWarning
    assert image.rgb == colorize(zeroed, 0.5).rgb
    pixels = np.frombuffer(image.rgb, dtype=np.uint8).reshape(image.height, image.width, 3)
    assert all(not pixels[j, i].any() for i, j in cells)


def test_colorize_grid_covers_every_sector_edge():
    grid, _ = colorize_grid()
    h6 = (np.angle(grid) / (2.0 * np.pi) % 1.0) * 6.0
    assert set(range(7)) <= set(h6[h6 == np.floor(h6)].tolist())  # 6.0 is the hue that rounds to a turn
    assert np.isinf(grid).any() and (grid == 0.0).any()


@pytest.mark.parametrize("block_rows", [1, 3, None])
def test_colorize_matches_whole_grid_choose(monkeypatch, block_rows):
    grid, scale = colorize_grid()
    if block_rows is not None:
        monkeypatch.setattr(render, "BLOCK_PIXELS", block_rows * grid.shape[1])
    with np.errstate(over="ignore"):  # |1e308 + 1e308j| / scale is inf, so its value is 1
        image = colorize(grid, scale)
        assert (image.width, image.height) == grid.shape
        assert image.rgb == colorize_choose(grid, scale)
        assert colorize(grid.T, scale).rgb == colorize_choose(grid.T, scale)
    for empty in (np.zeros((3, 0), dtype=complex), np.zeros((0, 3), dtype=complex)):
        image = colorize(empty, scale)
        assert (image.width, image.height, image.rgb) == (*empty.shape, b"")


def test_field_image_length_validation():
    with pytest.raises(ValueError):
        FieldImage(width=2, height=2, rgb=b"\x00" * 11)


def test_write_ppm_single_black_pixel(tmp_path):
    path = tmp_path / "one.ppm"
    write_ppm(FieldImage(width=1, height=1, rgb=b"\x00\x00\x00"), path)
    assert path.read_bytes() == b"P6\n1 1\n255\n\x00\x00\x00"
    assert path.stat().st_size == 14  # 3 header lines (3+4+4 bytes) + 3 pixel bytes


def test_write_ppm_two_pixels(tmp_path):
    path = tmp_path / "two.ppm"
    write_ppm(FieldImage(width=2, height=1, rgb=b"\xff\x00\x00\x00\x00\x00"), path)
    assert path.read_bytes() == b"P6\n2 1\n255\n\xff\x00\x00\x00\x00\x00"


def test_write_ppm_surfaces_path_on_failure(tmp_path):
    image = FieldImage(width=1, height=1, rgb=b"\x00\x00\x00")
    bad = tmp_path / "missing_dir" / "x.ppm"
    with pytest.raises(OSError, match="missing_dir"):
        write_ppm(image, bad)


def test_golden_free_render(tmp_path):
    ctx = ScatteringContext.from_wavenumber(2.0)
    image = render_field(lambda p: wave_field(ctx, None, p), xy_plane(), 0.5)
    path = tmp_path / "free.ppm"
    write_ppm(image, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_FREE_RENDER_SHA256


def test_free_render_radially_dimming():
    ctx = ScatteringContext.from_wavenumber(2.0)
    plane = xy_plane(half_extent=10.0, resolution=64)
    image = render_field(lambda p: wave_field(ctx, None, p), plane, 0.5)
    value = brightness(image)
    offs = plane.offsets()
    uu, vv = np.meshgrid(offs, offs, indexing="ij")
    radius = np.sqrt(uu * uu + vv * vv).T  # image layout: row=v, col=u
    edges = np.linspace(1.0, 10.0, 10)
    means = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        band = (radius >= lo) & (radius < hi)
        means.append(value[band].mean())
    assert np.all(np.diff(means) < 1.0 / 255.0)


def test_obstacle_render_off_cone_brightness_ratio():
    ctx = ScatteringContext.from_wavenumber(10.0, 0.01)
    obstacle = atom(
        position=np.array([12.0, 0.0, 0.0]), width=1.0, g0=50.0, g1=0.0, delta_e=0.01
    )
    plane = xy_plane(half_extent=20.0, resolution=128)
    scale = 0.08
    free = render_field(lambda p: wave_field(ctx, None, p), plane, scale)
    with_atom = render_field(lambda p: wave_field(ctx, obstacle, p), plane, scale)
    v_free = brightness(free)
    v_atom = brightness(with_atom)
    offs = plane.offsets()
    uu, vv = np.meshgrid(offs, offs, indexing="ij")
    radius = np.sqrt(uu * uu + vv * vv).T
    # angle of (p - a) from the obstacle direction, in the image layout
    du, dv = (uu - 12.0).T, vv.T
    off_cone = np.arccos(np.clip(du / np.hypot(du, dv), -1, 1)) > 0.6
    band = (radius >= 15.0) & (radius <= 19.0) & off_cone
    ratio = v_atom[band].mean() / v_free[band].mean()
    expected = math.sqrt(normalization_c2(ctx, obstacle))
    assert ratio == pytest.approx(expected, rel=0.05)


def test_write_grid_csv(tmp_path):
    plane = xy_plane(half_extent=1.0, resolution=16)
    path = tmp_path / "grid.csv"
    render_plane(lambda p: p[..., 0] + 1j * p[..., 1], plane, 1.0, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "u,v,re,im"
    assert len(lines) == 1 + 16 * 16
    u, v, re, im = (float(x) for x in lines[1].split(","))
    assert (u, v) == (-1.0, -1.0)
    assert re == u and im == v


@pytest.mark.parametrize("seed", range(4))
def test_render_plane_is_colorize_of_sample_plane(monkeypatch, caplog, tmp_path, seed):
    # random planes and couplings, plus the emitter and the obstacle centre on
    # one lattice, in blocks of one row, a few rows and the default size
    rng = np.random.default_rng(seed)
    axes, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    plane = PlaneSpec(origin=rng.uniform(-5.0, 5.0, 3), u_axis=axes[:, 0], v_axis=axes[:, 1],
                      half_extent=rng.uniform(5.0, 30.0), resolution=int(rng.integers(16, 90)))
    obstacle = atom(position=rng.uniform(12.0, 30.0) * axes[:, 2], width=rng.uniform(0.5, 1.2),
                    g0=rng.uniform(0.1, 50.0), g1=rng.uniform(0.0, 5.0))
    cases = [(plane, obstacle, rng.uniform(0.01, 0.5)),
             (xy_plane(half_extent=20.0, resolution=50),
              atom(position=np.array([12.0, 0.0, 0.0]), width=1.0, g0=50.0, g1=0.0), 0.08)]
    ctx = ScatteringContext.from_wavenumber(rng.uniform(1.0, 10.0))
    for plane, obstacle, scale in cases:
        field = lambda p: wave_field(ctx, obstacle, p)
        for block_rows in (1, 3, None):
            if block_rows is not None:
                monkeypatch.setattr(render, "BLOCK_PIXELS", block_rows * plane.resolution)
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="mottbox.render"):
                grid = sample_plane(field, plane)
                expected_log = caplog.messages
                caplog.clear()
                image = render_plane(field, plane, scale, tmp_path / "streamed.csv")
                assert caplog.messages == expected_log
            assert (image.width, image.height) == (plane.resolution,) * 2
            assert image.rgb == colorize(grid, scale).rgb
            write_grid_csv(grid, plane, tmp_path / "whole.csv")
            assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
            assert render_plane(field, plane, scale).rgb == image.rgb
    assert expected_log == ["masked 2 singular pixel(s), first few: [(25, 25), (40, 25)]"]


def test_render_plane_holds_no_plane_sized_array_but_the_image():
    # traced at 1024^2: the image (3 MiB) plus about 1.7 MiB of block arrays;
    # a complex grid of the plane would add 16 MiB
    ctx = ScatteringContext.from_wavenumber(10.0, 0.01)
    obstacle = atom(position=np.array([12.0, 0.0, 0.0]), width=1.0, g0=50.0, g1=0.0, delta_e=0.01)
    plane = xy_plane(half_extent=20.0, resolution=1024)
    tracemalloc.start()
    try:
        render_plane(lambda p: wave_field(ctx, obstacle, p), plane, 0.08)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 1024**2 + 3 * 2**20


def test_render_plane_checks_the_scale_before_sampling():
    def forbidden(points):
        raise AssertionError("sampled before modulus_scale was checked")

    with pytest.raises(ValueError, match="modulus_scale must be positive"):
        render_plane(forbidden, xy_plane(resolution=16), 0.0)
