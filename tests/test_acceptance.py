"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py``)."""

import math
import time

import numpy as np
import pytest

from mottbox.bell import (
    ApparatusSetting,
    HiddenVariable,
    bell_test,
    correlation_mc,
    correlation_quantum,
    epr_trial,
)
from mottbox.chamber import (
    AtomSpecies,
    GasConfiguration,
    isotropy_experiment,
    load_configuration,
    sample_gas,
    save_configuration,
    select_track,
)
from mottbox.mott import (
    ScatteringContext,
    angular_amplitude,
    atom,
    flux_free,
    flux_total,
    normalization_c2,
    transferred_momentum,
    wave_field,
)
from mottbox.numerics import RngStream, unit
from mottbox.render import PlaneSpec, write_ppm
from oracles import flux_free_numeric, quad_3d, render_field

CHAMBER_CTX = ScatteringContext.from_wavenumber(10.0, 0.01)
CHAMBER_SPECIES = AtomSpecies(width=1.0, g0=0.5, g1=0.5, delta_e=0.01)


def report(n, message):
    print(f"criterion {n}: PASS - {message}")


def random_setting(rng):
    return ApparatusSetting(unit(rng.standard_normal(3)))


def image_pixels(image):
    return np.frombuffer(image.rgb, dtype=np.uint8).reshape(image.height, image.width, 3)


def hue_phase(pixels):
    """Phase in [0, 2 pi) recovered from saturation-1 RGB bytes."""
    rgb = pixels.astype(float) / 255.0
    mx = rgb.max(axis=-1)
    mn = rgb.min(axis=-1)
    c = mx - mn
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    with np.errstate(invalid="ignore", divide="ignore"):
        h = np.where(
            mx == r, (g - b) / c, np.where(mx == g, (b - r) / c + 2.0, (r - g) / c + 4.0)
        )
    h = np.where(c == 0, 0.0, h) % 6.0
    return h / 6.0 * 2.0 * np.pi


def xy_plane(half_extent, resolution):
    return PlaneSpec(
        origin=np.zeros(3),
        u_axis=np.array([1.0, 0.0, 0.0]),
        v_axis=np.array([0.0, 1.0, 0.0]),
        half_extent=half_extent,
        resolution=resolution,
    )


def test_criterion_1_singlet_correlation():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for case in range(20):
        a, b = random_setting(rng), random_setting(rng)
        est = correlation_mc(a, b, 1_000_000, RngStream(9001, case))
        deviation = abs(est.mean - correlation_quantum(a, b))
        assert deviation < 4 * est.std_error
        worst = max(worst, deviation / est.std_error)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(1, f"20 random pairs match -a.b within 4 SE (worst {worst:.2f} SE, {elapsed:.1f} s)")


def test_criterion_2_bell_violation():
    a = ApparatusSetting([1.0, 0.0, 0.0])
    b = ApparatusSetting(unit([1.0, 1.0, 0.0]))
    c = ApparatusSetting([0.0, 1.0, 0.0])
    rng = RngStream(9002, 0)
    streams = iter(range(1, 4))

    def correlation(x, y):
        return correlation_mc(x, y, 1_000_000, rng.substream(next(streams)))

    result = bell_test(a, b, c, correlation)
    gap = result.lhs - result.rhs
    assert result.violated
    assert gap == pytest.approx(math.sqrt(2.0) - 1.0, abs=0.01)
    report(2, f"Monte Carlo inequality gap lhs-rhs = {gap:.4f} (expected 0.4142 +- 0.01)")


def test_criterion_3_perfect_anticorrelation():
    a = ApparatusSetting(unit([0.2, -0.4, 0.7]))
    u = RngStream(9003, 0).uniform(size=(100_000, 2))
    for lam1, lam2 in u:
        r1, r2 = epr_trial(a, a, HiddenVariable(lam1), HiddenVariable(lam2))
        assert r1 * r2 == -1
    report(3, "aligned settings give product -1 in 100% of 100000 trials")


def test_criterion_4_free_flux_identity():
    worst = 0.0
    for k in (1.0, 5.0, 10.0, 50.0):
        ctx = ScatteringContext.from_wavenumber(k)
        numeric = flux_free_numeric(ctx)
        rel = abs(numeric - flux_free(ctx)) / flux_free(ctx)
        assert rel < 1e-9
        worst = max(worst, rel)
    report(4, f"numeric current flux equals 4 pi v for k in 1..50 (worst rel err {worst:.1e})")


def test_criterion_5_flux_normalization_identity():
    rng = np.random.default_rng(105)
    worst = 0.0
    for case in range(50):
        s = rng.uniform(0.5, 2.0)
        a = s * rng.uniform(10.0, 100.0)
        k = rng.uniform(1.0, 50.0) / s
        g0, g1 = rng.uniform(0.0, 1.0, size=2)
        e_alpha = 0.5 * k * k
        delta_e = rng.uniform(0.0, 0.05) * e_alpha
        ctx = ScatteringContext(e_alpha=e_alpha, delta_e=delta_e)
        axis = unit(rng.standard_normal(3))
        obstacle = atom(position=a * axis, width=s, g0=g0, g1=g1, delta_e=delta_e)
        c2 = normalization_c2(ctx, obstacle)
        rel = abs(c2 * flux_total(ctx, obstacle) - flux_free(ctx)) / flux_free(ctx)
        assert rel < 1e-10
        worst = max(worst, rel)
        if g0 + g1 > 0.0:
            assert c2 < 1.0
        assert 0.0 < c2 <= 1.0
    report(5, f"|C|^2 flux identity holds on 50 random sets (worst rel err {worst:.1e})")


def test_criterion_6_fourier_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(106)
    worst = 0.0
    for case in range(5):
        s = rng.uniform(0.7, 1.5)
        k = rng.uniform(0.6, 2.0) / s
        a = s * rng.uniform(10.0, 30.0)
        g0 = rng.uniform(0.2, 1.0)
        g1 = rng.uniform(0.2, 1.0)
        ctx = ScatteringContext.from_wavenumber(k)
        obstacle = atom(position=np.array([0.0, 0.0, a]), width=s, g0=g0, g1=g1)
        for channel, g in enumerate((g0, g1)):
            for theta in np.linspace(0.0, math.pi, 5):
                q = transferred_momentum(k, theta)

                def integrand(pts):
                    r2 = np.sum(pts * pts, axis=1)
                    return g * np.exp(-r2 / (2.0 * s * s)) * np.exp(1j * q * pts[:, 2])

                volume = quad_3d(integrand, 8.0 * s, 72, vectorized=True)
                oracle = np.exp(1j * k * a) / a * volume / (2.0 * math.pi)
                got = angular_amplitude(ctx, obstacle, channel, theta)
                rel = abs(got - oracle) / abs(oracle)
                assert rel < 1e-4
                worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(6, f"analytic amplitude matches volume quadrature, 50 checks (worst rel {worst:.1e}, {elapsed:.1f} s)")


def test_criterion_7_aligned_chain_reduction():
    atoms = CHAMBER_SPECIES.records([[0.0, 0.0, r] for r in (10.0, 20.0, 30.0, 40.0, 50.0)])
    gas = GasConfiguration(atoms=atoms, chamber_radius=60.0, inner_radius=10.0, seed=0)
    track = select_track(gas, CHAMBER_CTX)
    assert track.chain.n == 5
    c2 = normalization_c2(CHAMBER_CTX, gas.atoms[track.chain.head])
    assert track.surviving_spherical_flux == flux_free(CHAMBER_CTX) * c2**5
    assert track.flux_ratio == c2**5
    # fifty aligned steps at |C|^2 = 0.9 drive the spherical wave toward zero
    assert 0.9**50 == pytest.approx(5.154e-3, abs=1e-6)
    assert 0.9**50 < 1e-2
    report(7, f"5-chain flux ratio is (|C|^2)^5 exactly; 0.9^50 = {0.9 ** 50:.3e} < 1e-2")


def test_criterion_8_deterministic_measurement(tmp_path):
    gas = sample_gas(3e-4, 12.0, 40.0, CHAMBER_SPECIES, RngStream(9009, 0))
    path = tmp_path / "stored_gas.json"
    save_configuration(gas, path)
    reference = select_track(load_configuration(path), CHAMBER_CTX)
    for _ in range(100):
        replay = select_track(load_configuration(path), CHAMBER_CTX)
        assert np.array_equal(replay.direction, reference.direction)
        assert replay.chain.indices == reference.chain.indices
        assert replay.surviving_spherical_flux == reference.surviving_spherical_flux
        assert replay.c2_per_step == reference.c2_per_step
    report(8, f"stored configuration replayed 100x bitwise-identical (N={reference.chain.n})")


def test_criterion_9_emergent_isotropy():
    start = time.perf_counter()
    rng = RngStream(20260810, 0)
    result = isotropy_experiment(
        n_configs=10_000,
        density=1e-4,
        inner_radius=12.0,
        chamber_radius=40.0,
        species=CHAMBER_SPECIES,
        ctx=CHAMBER_CTX,
        rng=rng,
        tracks=lambda *chunk: None,  # only the bin counts are tested
    )
    elapsed = time.perf_counter() - start
    assert result.p_value > 0.01
    assert len(result.counts) == 32
    assert elapsed < 300.0
    # each individual configuration is still deterministic
    config = sample_gas(1e-4, 12.0, 40.0, CHAMBER_SPECIES, rng.substream(1))
    first, second = select_track(config, CHAMBER_CTX), select_track(config, CHAMBER_CTX)
    assert np.array_equal(first.direction, second.direction)
    report(
        9,
        f"10^4 deterministic tracks are isotropic: chi2={result.chi_square:.1f}, "
        f"p={result.p_value:.3f} ({elapsed:.0f} s)",
    )


def test_criterion_10_render_morphology(tmp_path):
    # ring spacing measured from image hue along the +u row
    k_rings = 2.0
    ctx = ScatteringContext.from_wavenumber(k_rings)
    plane = xy_plane(half_extent=20.0, resolution=384)
    free = render_field(lambda p: wave_field(ctx, None, p), plane, 0.5)
    write_ppm(free, tmp_path / "free.ppm")
    pixels = image_pixels(free)
    offs = plane.offsets()
    row = int(np.where(offs == 0.0)[0][0])
    cols = offs > 1.0  # stay clear of the clipped centre
    radii = offs[cols]
    phase = np.unwrap(hue_phase(pixels[row, cols]))
    crossings = []
    next_target = (math.floor(phase[0] / (2 * math.pi)) + 1) * 2 * math.pi
    for i in range(len(radii) - 1):
        while phase[i] < next_target <= phase[i + 1]:
            frac = (next_target - phase[i]) / (phase[i + 1] - phase[i])
            crossings.append(radii[i] + frac * (radii[i + 1] - radii[i]))
            next_target += 2 * math.pi
    spacings = np.diff(crossings)
    expected = 2.0 * math.pi / k_rings
    assert len(spacings) >= 4
    assert np.mean(spacings) == pytest.approx(expected, rel=0.02)

    # off-cone brightness drops by sqrt(|C|^2) when the obstacle is added
    ctx_atom = ScatteringContext.from_wavenumber(10.0, 0.01)
    obstacle = atom(
        position=np.array([12.0, 0.0, 0.0]), width=1.0, g0=50.0, g1=0.0, delta_e=0.01
    )
    scale = 0.08
    free_hi = render_field(lambda p: wave_field(ctx_atom, None, p), plane, scale)
    dimmed = render_field(lambda p: wave_field(ctx_atom, obstacle, p), plane, scale)
    write_ppm(dimmed, tmp_path / "obstacle.ppm")
    v_free = image_pixels(free_hi).max(axis=2) / 255.0
    v_atom = image_pixels(dimmed).max(axis=2) / 255.0
    uu, vv = np.meshgrid(offs, offs, indexing="ij")
    radius = np.sqrt(uu * uu + vv * vv).T
    du, dv = (uu - 12.0).T, vv.T
    off_cone = np.arccos(np.clip(du / np.hypot(du, dv), -1.0, 1.0)) > 0.6
    band = (radius >= 15.0) & (radius <= 19.0) & off_cone
    ratio = v_atom[band].mean() / v_free[band].mean()
    expected_ratio = math.sqrt(normalization_c2(ctx_atom, obstacle))
    assert ratio == pytest.approx(expected_ratio, rel=0.05)
    report(
        10,
        f"ring spacing {np.mean(spacings):.4f} vs 2 pi/k = {expected:.4f}; "
        f"off-cone dimming {ratio:.4f} vs sqrt(|C|^2) = {expected_ratio:.4f}",
    )
