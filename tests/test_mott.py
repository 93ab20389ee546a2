import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

from mottbox import mott
from mottbox.mott import (
    ATOM_DTYPE,
    ScatteringContext,
    angular_amplitude,
    atom,
    flux_free,
    flux_total,
    normalization_c2,
    quadrature_convergence_check,
    transferred_momentum,
    wave_field,
)
from mottbox.numerics import gauss_legendre, norm, unit
from oracles import (
    angular_amplitude_scalar,
    flux_free_numeric,
    form_factor,
    gauss_legendre_mpmath,
    intensity_integrals_scalar,
    ulps_from,
    quad_3d,
    wave_field_scalar,
)

# frozen before the build from an independent 1024-node quadrature of the
# closed-form angular intensity (a=10, s=1, k=10, g0=g1=0.5, delta_e=0.01)
FLUX_TOTAL_REGRESSION = 125.67357525448791
C2_REGRESSION = 0.9999214702782488

# forward amplitude modulus for a=10, s=1, k=10, g=0.1:
# (1/(2 pi 10)) * 0.1 * (2 pi)^{3/2}
FORWARD_AMPLITUDE = 0.025066282746310006


def make_obstacle(a=10.0, s=1.0, g0=0.5, g1=0.5, delta_e=0.01, axis=None):
    if axis is None:
        axis = np.array([0.0, 0.0, 1.0])
    return atom(position=a * np.asarray(axis, dtype=float), width=s, g0=g0, g1=g1, delta_e=delta_e)


def unit_rows(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def closed_form_intensity_integral(k, a, s, g):
    # int_0^pi sin(theta) |I(theta)|^2 dtheta for the Gaussian coupling
    return g * g * 2.0 * math.pi * s**6 / (a * a) * (1.0 - math.exp(-4 * k * k * s * s)) / (
        2.0 * k * k * s * s
    )


def test_context_kinematics():
    ctx = ScatteringContext(e_alpha=50.0, delta_e=0.01)
    assert ctx.k == pytest.approx(math.sqrt(100.0), rel=1e-15)
    assert ctx.k_prime == pytest.approx(math.sqrt(99.98), rel=1e-15)
    assert ctx.v_alpha == ctx.k
    assert ctx.v_alpha_prime == ctx.k_prime
    assert ctx.k_prime < ctx.k
    assert ScatteringContext(e_alpha=50.0).k_prime == ScatteringContext(e_alpha=50.0).k


def test_context_from_wavenumber():
    ctx = ScatteringContext.from_wavenumber(10.0, 0.01)
    assert ctx.e_alpha == pytest.approx(50.0, rel=1e-15)
    assert ctx.k == pytest.approx(10.0, rel=1e-15)


def test_context_validation():
    with pytest.raises(ValueError):
        ScatteringContext(e_alpha=0.0)
    with pytest.raises(ValueError):
        ScatteringContext(e_alpha=1.0, delta_e=1.0)
    with pytest.raises(ValueError):
        ScatteringContext(e_alpha=1.0, delta_e=-0.5)


def test_obstacle_far_field_guard_names_ratio():
    with pytest.raises(ValueError, match="a/s = 5"):
        atom(position=np.array([0.0, 0.0, 5.0]), width=1.0, g0=0.1, g1=0.1)


# mott.atom's verdicts and messages for these (position, width, g0, g1, delta_e),
# frozen from the per-atom dataclass it replaced, so that callers matching on
# a message keep working
ATOM_MESSAGES = [
    (([0.0, 0.0, 5.0], 1.0, 0.1, 0.1, 0.0),
     "far-field amplitudes need |position| >= 10 * width, got |position| = 5, width = 1, g0 = 0.1, "
     "g1 = 0.1, delta_e = 0, a/s = 5"),
    (([0.0, 0.0], 1.0, 0.5, 0.5, 0.0), "position must be a 3-vector, got [0.0, 0.0]"),
    (([[0.0, 0.0, 20.0]], 1.0, 0.5, 0.5, 0.0), "position must be a 3-vector, got [[0.0, 0.0, 20.0]]"),
    (("abc", 1.0, 0.5, 0.5, 0.0), "could not convert string to float: 'abc'"),
    (([np.inf, 0.0, 0.0], 1.0, 0.5, 0.5, 0.0),
     "position must have a finite norm, got |position| = inf, width = 1, g0 = 0.5, g1 = 0.5, delta_e = 0"),
    (([1e200, 1e200, 0.0], 1.0, 0.5, 0.5, 0.0),
     "position must have a finite norm, got |position| = inf, width = 1, g0 = 0.5, g1 = 0.5, delta_e = 0"),
    (([0.0, 0.0, 20.0], 0.0, 0.5, 0.5, 0.0),
     "width must be finite and positive, got |position| = 20, width = 0, g0 = 0.5, g1 = 0.5, delta_e = 0"),
    (([0.0, 0.0, 20.0], np.nan, 0.5, 0.5, 0.0),
     "width must be finite and positive, got |position| = 20, width = nan, g0 = 0.5, g1 = 0.5, delta_e = 0"),
    (([0.0, 0.0, 20.0], 1.0, -0.1, 0.5, 0.0),
     "couplings must be finite and non-negative, got |position| = 20, width = 1, g0 = -0.1, g1 = 0.5, "
     "delta_e = 0"),
    (([0.0, 0.0, 20.0], 1.0, 0.5, np.inf, 0.0),
     "couplings must be finite and non-negative, got |position| = 20, width = 1, g0 = 0.5, g1 = inf, "
     "delta_e = 0"),
    (([0.0, 0.0, 20.0], 1.0, 0.5, 0.5, -0.01),
     "excitation energy must be finite and non-negative, got |position| = 20, width = 1, g0 = 0.5, "
     "g1 = 0.5, delta_e = -0.01"),
    (([0.0, 0.0, 20.0], 1.0, 0.5, 0.5, np.nan),
     "excitation energy must be finite and non-negative, got |position| = 20, width = 1, g0 = 0.5, "
     "g1 = 0.5, delta_e = nan"),
    (([0.0, 0.0, 12.0], 1.25, 0.5, 0.5, 0.01),
     "far-field amplitudes need |position| >= 10 * width, got |position| = 12, width = 1.25, g0 = 0.5, "
     "g1 = 0.5, delta_e = 0.01, a/s = 9.6"),
]


@pytest.mark.parametrize("args, message", ATOM_MESSAGES)
def test_atom_rejects_with_the_messages_of_the_per_atom_type(args, message):
    with pytest.raises(ValueError) as exc:
        atom(*args)
    assert str(exc.value) == message


def test_atom_is_one_read_only_record():
    record = atom((0, 12, 0), 1.2, 1e308, 1e308)  # delta_e defaults to 0
    assert record.dtype == ATOM_DTYPE
    assert record["position"].tolist() == [0.0, 12.0, 0.0]
    assert record.tolist()[1:] == (1.2, 1e308, 1e308, 0.0)
    with pytest.raises(ValueError, match="read-only"):
        record["g0"] = 1.0


def test_form_factor_peak():
    ob = make_obstacle(g0=0.7, g1=0.2)
    assert form_factor(ob, 0, [0.0, 0.0, 0.0]) == 0.7
    assert form_factor(ob, 1, [0.0, 0.0, 0.0]) == 0.2


def test_form_factor_at_one_width():
    ob = make_obstacle(a=25.0, s=2.0, g0=0.7)
    assert form_factor(ob, 0, [0.0, 2.0, 0.0]) == pytest.approx(0.7 * math.exp(-0.5), rel=1e-15)


def test_form_factor_decoupled_channel():
    ob = make_obstacle(g1=0.0)
    for r in ([0.0, 0.0, 0.0], [1.0, 2.0, 3.0]):
        assert form_factor(ob, 1, r) == 0.0


def test_form_factor_channel_validation():
    with pytest.raises(ValueError):
        form_factor(make_obstacle(), 2, [0.0, 0.0, 0.0])


def test_transferred_momentum():
    assert transferred_momentum(5.0, 0.0) == 0.0
    assert transferred_momentum(5.0, math.pi) == pytest.approx(10.0, rel=1e-15)
    assert transferred_momentum(10.0, math.pi / 2) == pytest.approx(10.0 * math.sqrt(2), rel=1e-15)
    with pytest.raises(ValueError):
        transferred_momentum(5.0, -0.1)
    with pytest.raises(ValueError):
        transferred_momentum(5.0, 3.5)
    with pytest.raises(ValueError, match="got nan$"):
        transferred_momentum(5.0, math.nan)


def test_transferred_momentum_over_an_array_is_the_scalar_formula_per_angle():
    thetas = np.linspace(0.0, math.pi, 1001).reshape(7, 143)
    q = transferred_momentum(3.0, thetas)
    assert q.shape == thetas.shape
    want = [2.0 * 3.0 * math.sin(0.5 * t) for t in thetas.ravel().tolist()]
    assert q.ravel().tolist() == want
    assert type(transferred_momentum(3.0, np.float64(0.25))) is float
    assert type(transferred_momentum(3.0, np.array(0.25))) is float


@pytest.mark.parametrize("thetas, bad", [
    ([0.1, math.nan, -1.0], "nan"),
    ([0.1, 2.0, 4.0, -1.0], "4.0"),
    ([math.pi, math.nextafter(math.pi, 4.0)], repr(math.nextafter(math.pi, 4.0))),
    ([0.0, -5e-324], "-5e-324"),
    ([[0.5, 0.5], [math.inf, 0.5]], "inf"),
])
def test_transferred_momentum_over_an_array_names_the_first_bad_angle(thetas, bad):
    with pytest.raises(ValueError, match=f"must lie in \\[0, pi\\], got {bad}$"):
        transferred_momentum(10.0, np.array(thetas))


# (k, s, g0, g1, delta_e, a): k s = 1.9 (wide cone), 10 (the README), 55 and 0.3
AMPLITUDE_CASES = [
    (1.9, 1.0, 0.5, 0.5, 0.01, 10.0),
    (10.0, 1.0, 0.5, 0.5, 0.01, 10.0),
    (55.0, 1.0, 0.3, 0.0, 0.5, 23.7),
    (0.6, 0.5, 2.0, 1e-3, 0.0, 7.25),
    (27.5, 2.0, 1e-3, 40.0, 1.0, 61.0),
]


@pytest.mark.parametrize("k, s, g0, g1, delta_e, a", AMPLITUDE_CASES)
def test_angular_amplitude_over_many_angles_bit_equal_to_scalar_formula(k, s, g0, g1, delta_e, a):
    ctx = ScatteringContext.from_wavenumber(k, delta_e)
    ob = make_obstacle(a=a, s=s, g0=g0, g1=g1, delta_e=delta_e, axis=[1.0, -2.0, 2.0])
    a = norm(ob["position"])
    thetas = np.linspace(0.0, math.pi, 100_000)  # 0 and pi included
    for channel, g in enumerate((g0, g1)):
        got = angular_amplitude(ctx, ob, channel, thetas)
        assert got.dtype == complex and got.shape == thetas.shape
        want = np.array([angular_amplitude_scalar(k, a, s, g, t) for t in thetas.tolist()])
        assert got.tobytes() == want.tobytes()


def test_angular_amplitude_of_one_angle_is_element_zero_of_the_array():
    ctx = ScatteringContext.from_wavenumber(10.0, 0.01)
    ob = make_obstacle()
    for theta in (0.0, 0.3, math.pi):
        whole = angular_amplitude(ctx, ob, 1, np.array([theta, 1.0]))
        for one in (theta, np.float64(theta), np.array(theta)):
            got = angular_amplitude(ctx, ob, 1, one)
            assert type(got) is complex
            assert np.array([got]).tobytes() == whole[:1].tobytes()


def test_forward_amplitude_modulus():
    ctx = ScatteringContext.from_wavenumber(10.0)
    ob = make_obstacle(g0=0.1, g1=0.0, delta_e=0.0)
    assert abs(angular_amplitude(ctx, ob, 0, 0.0)) == pytest.approx(FORWARD_AMPLITUDE, rel=1e-12)


def test_amplitude_vanishes_without_coupling():
    ctx = ScatteringContext.from_wavenumber(10.0)
    ob = make_obstacle(g0=0.0, g1=0.0, delta_e=0.0)
    assert angular_amplitude(ctx, ob, 0, 0.3) == 0.0
    assert angular_amplitude(ctx, ob, 1, 0.3) == 0.0


def test_amplitude_envelope_at_unit_qs():
    # |I| drops by e^{-1/2} where q s = 1
    ctx = ScatteringContext.from_wavenumber(10.0)
    ob = make_obstacle(g0=0.3, g1=0.0, delta_e=0.0)
    theta = 2.0 * math.asin(1.0 / (2.0 * ctx.k * float(ob["width"])))
    ratio = abs(angular_amplitude(ctx, ob, 0, theta)) / abs(angular_amplitude(ctx, ob, 0, 0.0))
    assert ratio == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_amplitude_matches_fourier_oracle():
    # brute-force volume quadrature of the defining Fourier integral
    rng = np.random.default_rng(99)
    for case in range(5):
        s = rng.uniform(0.7, 1.5)
        k = rng.uniform(0.6, 2.0) / s
        a = s * rng.uniform(10.0, 30.0)
        g = rng.uniform(0.2, 1.0)
        ctx = ScatteringContext.from_wavenumber(k)
        ob = make_obstacle(a=a, s=s, g0=g, g1=0.0, delta_e=0.0)
        for theta in np.linspace(0.0, math.pi, 10):
            q = transferred_momentum(k, theta)

            def integrand(pts):
                r2 = np.sum(pts * pts, axis=1)
                return g * np.exp(-r2 / (2.0 * s * s)) * np.exp(1j * q * pts[:, 2])

            volume = quad_3d(integrand, 8.0 * s, 72, vectorized=True)
            oracle = np.exp(1j * k * a) / a * volume / (2.0 * math.pi)
            got = angular_amplitude(ctx, ob, 0, theta)
            assert got == pytest.approx(oracle, rel=1e-4)


def test_angular_table_monotone_modulus():
    ctx = ScatteringContext.from_wavenumber(10.0)
    ob = make_obstacle()
    moduli = np.abs([angular_amplitude(ctx, ob, 0, t) for t in np.linspace(0.0, math.pi, 200)])
    assert np.all(np.diff(moduli) <= 1e-12 * moduli[0])


def test_angular_amplitude_half_width_scales_inversely_with_ks():
    # angle where |I| has dropped by e^{-1/2} shrinks as 1/(k s)
    ob = make_obstacle(a=20.0, s=1.0, g0=0.4, g1=0.0, delta_e=0.0)
    for ks in (10.0, 20.0, 50.0):
        ctx = ScatteringContext.from_wavenumber(ks)
        peak = abs(angular_amplitude(ctx, ob, 0, 0.0))

        def drop(theta):
            return abs(angular_amplitude(ctx, ob, 0, theta)) - peak * math.exp(-0.5)

        width = brentq(drop, 1e-6, 1.0)
        assert width * ks == pytest.approx(1.0, rel=0.05)


def test_flux_free_values():
    assert flux_free(ScatteringContext.from_wavenumber(1.0)) == pytest.approx(4 * math.pi, rel=1e-15)
    assert flux_free(ScatteringContext.from_wavenumber(10.0)) == pytest.approx(40 * math.pi, rel=1e-15)
    assert flux_free(ScatteringContext.from_wavenumber(1e-6)) < 1e-4


def test_flux_free_numeric_matches_closed_form():
    for k in (1.0, 10.0):
        ctx = ScatteringContext.from_wavenumber(k)
        assert flux_free_numeric(ctx) == pytest.approx(flux_free(ctx), rel=1e-9)


def test_flux_total_without_couplings_is_free():
    ctx = ScatteringContext.from_wavenumber(10.0, 0.01)
    ob = make_obstacle(g0=0.0, g1=0.0)
    assert flux_total(ctx, ob) == flux_free(ctx)


def test_flux_total_elastic_only_exceeds_free():
    ctx = ScatteringContext.from_wavenumber(10.0)
    ob = make_obstacle(g0=0.5, g1=0.0, delta_e=0.0)
    expected = flux_free(ctx) + 2.0 * math.pi * ctx.v_alpha * closed_form_intensity_integral(
        ctx.k, norm(ob["position"]), ob["width"], ob["g0"]
    )
    got = flux_total(ctx, ob)
    assert got > flux_free(ctx)
    assert got == pytest.approx(expected, rel=1e-12)


def test_flux_total_regression():
    ctx = ScatteringContext.from_wavenumber(10.0, 0.01)
    ob = make_obstacle()
    assert flux_total(ctx, ob) == pytest.approx(FLUX_TOTAL_REGRESSION, rel=1e-10)


def test_flux_total_matches_closed_form_with_both_channels():
    ctx = ScatteringContext.from_wavenumber(7.0, 0.02)
    ob = make_obstacle(a=15.0, s=0.8, g0=0.4, g1=0.9, delta_e=0.02)
    a0 = closed_form_intensity_integral(ctx.k, norm(ob["position"]), ob["width"], ob["g0"])
    a1 = closed_form_intensity_integral(ctx.k, norm(ob["position"]), ob["width"], ob["g1"])
    expected = (
        4 * math.pi * ctx.v_alpha
        + 2 * math.pi * ctx.v_alpha * a0
        + 2 * math.pi * ctx.v_alpha_prime * a1
    )
    assert flux_total(ctx, ob) == pytest.approx(expected, rel=1e-12)


def test_normalization_without_couplings_is_one():
    ctx = ScatteringContext.from_wavenumber(10.0, 0.01)
    assert normalization_c2(ctx, make_obstacle(g0=0.0, g1=0.0)) == 1.0


def test_normalization_below_one_with_coupling():
    ctx = ScatteringContext.from_wavenumber(10.0, 0.01)
    assert normalization_c2(ctx, make_obstacle()) < 1.0
    assert normalization_c2(ctx, make_obstacle()) == pytest.approx(C2_REGRESSION, rel=1e-10)


def test_flux_identity_on_regression_pair():
    ctx = ScatteringContext.from_wavenumber(10.0, 0.01)
    ob = make_obstacle()
    assert normalization_c2(ctx, ob) * flux_total(ctx, ob) == pytest.approx(
        flux_free(ctx), rel=1e-10
    )


def test_flux_identity_random_parameters():
    rng = np.random.default_rng(512)
    for case in range(10):
        s = rng.uniform(0.5, 2.0)
        ratio = rng.uniform(10.0, 100.0)
        ks = rng.uniform(1.0, 50.0)
        g0, g1 = rng.uniform(0.0, 1.0, size=2)
        delta_e = rng.uniform(0.0, 0.1)
        ctx = ScatteringContext.from_wavenumber(ks / s, delta_e)
        ob = make_obstacle(a=ratio * s, s=s, g0=g0, g1=g1, delta_e=delta_e)
        c2 = normalization_c2(ctx, ob)
        assert c2 * flux_total(ctx, ob) == pytest.approx(flux_free(ctx), rel=1e-10)
        if g0 + g1 > 0:
            assert c2 < 1.0


def test_normalization_monotone_in_couplings():
    ctx = ScatteringContext.from_wavenumber(5.0, 0.01)
    grid = np.linspace(0.0, 1.0, 5)
    for g1 in grid:
        values = [normalization_c2(ctx, make_obstacle(g0=g0, g1=g1)) for g0 in grid]
        assert np.all(np.diff(values) <= 0.0)
    for g0 in grid:
        values = [normalization_c2(ctx, make_obstacle(g0=g0, g1=g1)) for g1 in grid]
        assert np.all(np.diff(values) <= 0.0)


def test_wave_field_free_phase_wraps():
    ctx = ScatteringContext.from_wavenumber(2.0 * math.pi)
    value = wave_field(ctx, None, [1.0, 0.0, 0.0])
    assert value == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_wave_field_reduced_off_cone():
    ctx = ScatteringContext.from_wavenumber(10.0, 0.01)
    ob = make_obstacle(a=12.0, s=1.0, g0=20.0, g1=0.0, delta_e=0.01, axis=[1.0, 0.0, 0.0])
    c2 = normalization_c2(ctx, ob)
    point = np.array([0.0, 0.0, 18.0])  # 90 degrees off the obstacle axis
    got = abs(wave_field(ctx, ob, point))
    free = abs(wave_field(ctx, None, point))
    assert got < free
    assert got == pytest.approx(math.sqrt(c2) * free, rel=1e-3)


def test_wave_field_forward_beam_brighter_than_off_cone():
    ctx = ScatteringContext.from_wavenumber(10.0, 0.01)
    ob = make_obstacle(a=12.0, s=1.0, g0=20.0, g1=0.0, delta_e=0.01, axis=[1.0, 0.0, 0.0])
    r = 25.0
    on_axis = abs(wave_field(ctx, ob, [r, 0.0, 0.0]))
    off_cone = abs(wave_field(ctx, ob, [0.0, 0.0, r]))
    assert on_axis > off_cone


def test_wave_field_singularities():
    ctx = ScatteringContext.from_wavenumber(10.0)
    ob = make_obstacle(delta_e=0.0)
    assert np.isnan(wave_field(ctx, None, [0.0, 0.0, 0.0]))
    a = ob["position"]
    values = wave_field(ctx, ob, [[0.0, 0.0, 0.0], a, a + 5e-10, [1.0, 2.0, 3.0]])
    assert values.shape == (4,)
    assert np.isnan(values[:3]).all()
    assert np.isfinite(values[3])


def test_wave_field_array_matches_scalar_formula():
    ctx = ScatteringContext.from_wavenumber(10.0, 0.01)
    rng = np.random.default_rng(2024)
    # on this axis rounding pushes cos(theta) past +-1 at on-axis points
    for ob in (None, make_obstacle(a=12.0, g0=20.0, g1=0.0, axis=unit([2.0, -1.0, 3.0]))):
        a = np.zeros(3) if ob is None else ob["position"]
        axis = np.array([1.0, 0.0, 0.0]) if ob is None else unit(ob["position"])
        points = np.concatenate(
            [
                rng.uniform(-30.0, 30.0, size=(200, 3)),
                np.linspace(0.5, 40.0, 50)[:, None] * axis,  # on the obstacle axis
                rng.choice([2e-9, 1e-6, 1e-3], size=(30, 1)) * unit_rows(rng, 30),
                a + rng.choice([2e-9, 1e-6, 1e-3], size=(30, 1)) * unit_rows(rng, 30),
            ]
        )
        got = wave_field(ctx, ob, points.reshape(10, -1, 3)).ravel()
        expected = np.array([wave_field_scalar(ctx, ob, p) for p in points])
        assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected))


def test_stored_rule_is_128_mirrored_nodes():
    x, w = mott._NODES, mott._WEIGHTS
    assert x.shape == w.shape == (128,)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert (np.diff(x) > 0.0).all() and (w > 0.0).all()


def test_stored_rule_within_2_ulp_of_leggauss():
    # bit equality is left to the pinned outputs: another LAPACK may round leggauss otherwise
    for stored, solved in zip((mott._NODES, mott._WEIGHTS), gauss_legendre(128)):
        assert (np.abs(stored - solved) <= 2 * np.spacing(np.abs(solved))).all()


def test_stored_rule_against_a_50_digit_newton_solve():
    # the nodes are within 0.82 ulp of the Legendre roots.  The weights carry
    # leggauss's own error, up to 6.3e-15 absolute: 50 ulp near the centre,
    # 1.2e5 ulp (1.4e-11 relative) at the outermost node
    pytest.importorskip("mpmath")
    nodes, weights = gauss_legendre_mpmath(128)
    assert max(ulps_from(x, want) for x, want in zip(mott._NODES[64:].tolist(), nodes)) < 1.0
    assert max(float(abs(w - want)) for w, want in zip(mott._WEIGHTS[64:].tolist(), weights)) < 1e-14


def test_quadrature_convergence_check_passes():
    ctx = ScatteringContext.from_wavenumber(10.0, 0.01)
    quadrature_convergence_check(ctx, 1.0, 0.5, 0.5)


@pytest.mark.parametrize("ks, converged", [(10.0, True), (100.0, True), (300.0, False), (1e3, False), (3e3, False)])
def test_quadrature_convergence_check_sees_scattered_error(ks, converged):
    # the 128-node scattered integral, which sets 1 - |C|^2, is off by 3e-9
    # at k s = 100 and 2e-4 at 300; the total flux hides it
    ctx = ScatteringContext.from_wavenumber(ks, 0.01)
    for g0, g1 in ((0.5, 0.5), (0.0, 0.5), (0.5, 0.0)):
        if converged:
            quadrature_convergence_check(ctx, 1.0, g0, g1)
        else:
            with pytest.raises(ValueError, match=f"not converged at n=128 for k\\*s = {ks:g}"):
                quadrature_convergence_check(ctx, 1.0, g0, g1)
    quadrature_convergence_check(ctx, 1.0, 0.0, 0.0)  # nothing scatters


def _converged_128_vs_256(k, s, g0, g1):
    # the verdict of doubling the node count, from the per-node scalar sums
    pairs = zip(*(intensity_integrals_scalar(k, 10.0 * s, s, g0, g1, n) for n in (128, 256)))
    return all(abs(at_n - at_2n) <= 1e-8 * abs(at_2n) for at_n, at_2n in pairs)


def test_quadrature_check_verdict_equals_node_doubling():
    # the closed form gives the verdict the 128/256-node comparison gave,
    # over the accepted range and through both edges near k s = 101.7 and 113
    grid = np.concatenate(
        [np.logspace(-1.0, 4.0, 201), np.arange(100.0, 103.0, 0.05), np.arange(112.0, 115.0, 0.05)]
    )
    verdicts = set()
    for ks in grid.tolist():
        ctx = ScatteringContext.from_wavenumber(ks)
        for g0, g1 in ((0.5, 0.5), (0.0, 0.5), (0.5, 0.0)):
            try:
                quadrature_convergence_check(ctx, 1.0, g0, g1)
                converged = True
            except ValueError:
                converged = False
            assert converged == _converged_128_vs_256(ks, 1.0, g0, g1), (ks, g0, g1)
            verdicts.add((ks > 105.0, converged))
    assert verdicts == {(False, True), (False, False), (True, True), (True, False)}


def test_quadrature_check_covers_every_coupled_width():
    ctx = ScatteringContext.from_wavenumber(1.0)
    # k s = 113.5 lies where the 128-node rule is exact again; 105 does not
    with pytest.raises(ValueError, match="k\\*s = 105:"):
        quadrature_convergence_check(ctx, np.array([113.5, 105.0]), np.array([0.5, 0.5]), np.zeros(2))
    quadrature_convergence_check(ctx, 113.5, 0.5, 0.0)
    # atoms without a coupling scatter nothing, at any width
    quadrature_convergence_check(ctx, np.array([10.0, 105.0, 1e3]), np.array([0.5, 0.0, 0.0]), np.zeros(3))
    quadrature_convergence_check(ctx, 1e4, 0.0, 0.0)
    quadrature_convergence_check(ctx, np.empty(0), np.empty(0), np.empty(0))


def test_intensity_integrals_bit_equal_to_scalar_sum():
    # the node-factor table must reproduce the per-node Python sum to the
    # bit, so |C|^2, flux_total and every output built on them stay fixed
    cases = 0
    for s in (1.0, 0.37):
        for ks in np.logspace(-1.0, 3.0, 9):
            k = ks / s
            ctx = ScatteringContext.from_wavenumber(k, 0.01 * k * k)
            for a in (10.0 * s, 10.5 * s, 123.456 * s, 1e3 * s):
                for g0, g1 in ((0.0, 0.0), (0.5, 0.0), (0.0, 0.7), (0.5, 0.5)):
                    ob = make_obstacle(a=a, s=s, g0=g0, g1=g1)
                    a0, a1 = intensity_integrals_scalar(ctx.k, norm(ob["position"]), s, g0, g1, 128)
                    ratio = ctx.v_alpha_prime / ctx.v_alpha
                    assert normalization_c2(ctx, ob) == 1.0 / (1.0 + 0.5 * a0 + 0.5 * ratio * a1)
                    assert flux_total(ctx, ob) == (
                        4.0 * math.pi * ctx.v_alpha
                        + 2.0 * math.pi * ctx.v_alpha * a0
                        + 2.0 * math.pi * ctx.v_alpha_prime * a1
                    )
                    cases += 1
    assert cases == 2 * 9 * 4 * 4


def test_normalization_c2_atoms_bit_equal_to_each_obstacle():
    # one quadrature over atoms of several widths and couplings gives each
    # atom the bits of its own normalization_c2
    rng = np.random.default_rng(12)
    for k in (0.7, 10.0, 60.0):
        ctx = ScatteringContext.from_wavenumber(k, 0.01)
        obstacles = [
            make_obstacle(a=ratio * s, s=s, g0=g0, g1=g1, axis=unit_rows(rng, 1)[0])
            for s in (0.05, 0.37, 1.0, 2.5)
            for ratio in (10.001, 10.5, 37.0, 400.0)
            for g0, g1 in ((0.0, 0.0), (0.5, 0.0), (0.0, 0.7), (0.5, 0.5), (50.0, 2.0), (1e-8, 1e3))
        ]
        expected = [normalization_c2(ctx, ob) for ob in obstacles]
        assert mott.normalization_c2_atoms(ctx, np.array(obstacles)).tolist() == expected


def test_normalization_c2_atoms_raises_what_the_first_failing_obstacle_raises():
    # the batch raises the error of its first failing atom, channel g0
    # before g1, as that atom alone raises it
    ctx = ScatteringContext.from_wavenumber(0.7, 0.01)
    fine = make_obstacle()
    g1_over = make_obstacle(g0=0.0, g1=1e155)
    g0_over = make_obstacle(g0=2e155, g1=1e155, axis=[1.0, 0.0, 0.0])
    messages = []
    for ob in (g1_over, g0_over):
        with pytest.raises(ValueError, match="non-finite") as exc:
            normalization_c2(ctx, ob)
        messages.append(str(exc.value))
    assert messages[0] != messages[1]
    for atoms, message in (((fine, g1_over, g0_over), messages[0]), ((fine, g0_over, g1_over), messages[1])):
        with pytest.raises(ValueError) as exc:
            mott.normalization_c2_atoms(ctx, np.array(atoms))
        assert str(exc.value) == message


def test_normalization_c2_atoms_of_many_atoms_bit_equal_and_in_small_memory():
    # 5 * 10^3 atoms of three widths and two couplings, whose quadrature runs
    # in row blocks: each atom has the bits of its own normalization_c2, and
    # the traced peak stays far below one (5000, 2, 128) node array (10 MB)
    ctx = ScatteringContext.from_wavenumber(10.0, 0.01)
    rng = np.random.default_rng(31)
    n = 5000
    radii = 14.0 + 26.0 * rng.random(n)
    atoms = mott._records(radii[:, None] * unit_rows(rng, n), rng.choice([0.4, 1.0, 1.3], n),
                          rng.choice([0.0, 0.5], n), 0.5, 0.01)
    tracemalloc.start()
    try:
        c2 = mott.normalization_c2_atoms(ctx, atoms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert c2.tobytes() == np.array([normalization_c2(ctx, a) for a in atoms]).tobytes()
    # the first failing atom, in a later block, raises its own message
    bad = atoms.copy()
    bad["position"][[4321, 4700]], bad["width"][[4321, 4700]] = [0.0, 0.0, 20.0], 0.4
    bad["g1"][[4321, 4700]] = 1e157, 1e200  # the first overflows at a later node
    messages = []
    for i in (4321, 4700):
        with pytest.raises(ValueError, match="non-finite") as exc:
            normalization_c2(ctx, bad[i])
        messages.append(str(exc.value))
    assert messages[0] != messages[1]
    with pytest.raises(ValueError) as exc:
        mott.normalization_c2_atoms(ctx, bad)
    assert str(exc.value) == messages[0]


def test_intensity_integrals_overflow_raises():
    ctx = ScatteringContext.from_wavenumber(10.0, 0.01)
    with pytest.raises(ValueError, match="non-finite"):
        normalization_c2(ctx, make_obstacle(g0=1e200))
    with pytest.raises(ValueError, match="non-finite"):
        flux_total(ctx, make_obstacle(g0=0.0, g1=1e200))
    assert mott._intensity_integrals(ctx.k, 10.0, 1.0, 0.5, 0.5) == intensity_integrals_scalar(
        ctx.k, 10.0, 1.0, 0.5, 0.5, 128
    )
