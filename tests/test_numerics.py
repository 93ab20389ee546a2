import math
import os

import numpy as np
import pytest
from scipy.stats import chisquare

from mottbox import bell, chamber, mott, render
from mottbox.numerics import (
    Frozen,
    RngStream,
    chi2_sf,
    gauss_legendre,
    ordered_ranges,
    quad_1d,
    require_unit,
    unit,
)
from forks import assert_no_child_left, on_cpus
from oracles import chi2_sf_mpmath, quad_3d, ulps_from

# frozen from the radial oracles below before the 3D rule was written
GAUSSIAN_3D = 15.749609945722419  # (2 pi)^{3/2}
GAUSSIAN_FOURIER_Q1 = 9.552621310595672  # (2 pi)^{3/2} e^{-1/2}


def radial_gaussian_oracle():
    # 4 pi int r^2 exp(-r^2/2) dr
    return 4.0 * np.pi * quad_1d(lambda r: r * r * np.exp(-r * r / 2.0), 0.0, 14.0, 200)


def radial_fourier_oracle(q):
    # (4 pi / q) int r sin(q r) exp(-r^2/2) dr
    return (
        4.0
        * np.pi
        / q
        * quad_1d(lambda r: r * np.sin(q * r) * np.exp(-r * r / 2.0), 0.0, 14.0, 200)
    )


def test_unit_and_require_unit():
    v = unit([3.0, 4.0, 0.0])
    assert np.allclose(v, [0.6, 0.8, 0.0])
    require_unit(v)
    with pytest.raises(ValueError):
        require_unit([1.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        unit([0.0, 0.0, 0.0])


@pytest.mark.parametrize("scale", [5e-324, 1e-320, 1e-200, 2e-162, 1e-155, 1e200, 1e308])
def test_unit_when_the_squared_norm_is_not_a_normal_float(scale):
    # |v|^2 underflows, is subnormal or overflows: v is scaled first, and
    # gives the bits of the same direction at scale 1
    for direction in ([1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [1.0, 1.0, 0.0], [3.0, 0.0, 4.0]):
        v = np.array(direction)
        with np.errstate(over="ignore"):
            scaled = scale * v
        if np.isfinite(scaled).all():
            assert unit(scaled).tobytes() == unit(v).tobytes(), (scale, direction)
    for bad in ([np.inf, 0.0, 0.0], [np.nan, 1.0, 0.0], [-0.0, 0.0, 0.0]):
        with pytest.raises(ValueError):
            unit(bad)


def test_quad_1d_sin():
    assert quad_1d(np.sin, 0.0, np.pi, 64) == pytest.approx(2.0, abs=1e-12)


def test_quad_1d_constant():
    assert quad_1d(lambda x: 1.0, 0.0, 1.0, 8) == pytest.approx(1.0, abs=1e-15)


def test_quad_1d_quadratic():
    assert quad_1d(lambda x: x * x, 0.0, 1.0, 16) == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_quad_1d_polynomial_exactness():
    rng = np.random.default_rng(2024)
    for n in (2, 4, 8, 16):
        coeffs = rng.uniform(-1.0, 1.0, size=2 * n)  # degree 2n - 1
        poly = np.polynomial.Polynomial(coeffs)
        exact = poly.integ()(1.5) - poly.integ()(-0.5)
        got = quad_1d(poly, -0.5, 1.5, n)
        assert got == pytest.approx(exact, rel=1e-13, abs=1e-14)


def test_quad_1d_convergence_doubles():
    exact = 2.0
    errs = [abs(quad_1d(np.sin, 0.0, np.pi, n) - exact) for n in (4, 8, 16)]
    assert errs[1] < errs[0] * 1e-3
    assert errs[2] < 1e-14


def test_quad_1d_nonfinite_reports_abscissa():
    def f(x):
        return 1.0 / (x - 0.5) if abs(x - 0.5) > 0.2 else np.nan

    with pytest.raises(ValueError, match="non-finite"):
        quad_1d(f, 0.0, 1.0, 32)


def test_quad_1d_requires_two_nodes():
    with pytest.raises(ValueError):
        quad_1d(np.sin, 0.0, 1.0, 1)


def test_quad_3d_gaussian_matches_radial_oracle():
    got = quad_3d(lambda p: np.exp(-np.dot(p, p) / 2.0), 10.0, 48)
    oracle = radial_gaussian_oracle()
    assert oracle == pytest.approx(GAUSSIAN_3D, rel=1e-12)
    assert got.real == pytest.approx(GAUSSIAN_3D, abs=1e-6)
    assert abs(got.imag) < 1e-12


def test_quad_3d_zero():
    assert quad_3d(lambda p: 0.0, 5.0, 8) == 0.0


def test_quad_3d_gaussian_fourier():
    q = np.array([1.0, 0.0, 0.0])

    def f(pts):
        pts = np.atleast_2d(pts)
        return np.exp(-np.sum(pts * pts, axis=1) / 2.0) * np.exp(1j * pts @ q)

    got = quad_3d(f, 10.0, 48, vectorized=True)
    oracle = radial_fourier_oracle(1.0)
    assert oracle == pytest.approx(GAUSSIAN_FOURIER_Q1, rel=1e-12)
    assert got.real == pytest.approx(GAUSSIAN_FOURIER_Q1, abs=1e-6)
    assert abs(got.imag) < 1e-10


def test_quad_3d_even_real_integrand_has_tiny_imag():
    got = quad_3d(lambda p: np.cos(p[0]) * np.exp(-np.dot(p, p)), 6.0, 24)
    assert abs(got.imag) <= 1e-12 * abs(got.real)


def test_quad_3d_scalar_and_vectorized_agree():
    def scalar(p):
        return np.exp(-np.dot(p, p) / 2.0 + 1j * p[2])

    def vector(pts):
        return np.exp(-np.sum(pts * pts, axis=1) / 2.0 + 1j * pts[:, 2])

    a = quad_3d(scalar, 8.0, 16)
    b = quad_3d(vector, 8.0, 16, vectorized=True)
    assert a == pytest.approx(b, rel=1e-13)


def test_quad_3d_nonfinite_reports_point():
    def f(p):
        return np.inf if p[0] > 0 else 1.0

    with pytest.raises(ValueError, match="non-finite"):
        quad_3d(f, 1.0, 4)


def test_gauss_legendre_validates():
    with pytest.raises(ValueError):
        gauss_legendre(1)


def test_rng_stream_reproducible():
    a = RngStream(1234, 5).uniform(size=1000)
    b = RngStream(1234, 5).uniform(size=1000)
    assert np.array_equal(a, b)


def test_rng_stream_distinct_ids_differ():
    a = RngStream(1234, 5).uniform(size=1000)
    b = RngStream(1234, 6).uniform(size=1000)
    assert not np.array_equal(a, b)


def test_rng_stream_uniformity():
    for stream_id in (0, 1, 99):
        draws = RngStream(777, stream_id).uniform(size=100_000)
        counts = np.bincount((draws * 16).astype(int), minlength=16)
        assert chisquare(counts).pvalue > 0.001


def test_rng_stream_substream_and_poisson():
    base = RngStream(42, 0)
    sub = base.substream(3)
    assert sub.seed == 42 and sub.stream_id == 3
    assert RngStream(42, 3).poisson(100.0) == RngStream(42, 3).poisson(100.0)


def test_rng_stream_seed_wraps_to_uint64():
    s = RngStream(-1, 2**64 + 5)
    assert s.seed == 2**64 - 1
    assert s.stream_id == 5


def _every_draw(stream):
    # each kind of draw the package makes, several of them unaligned to
    # Philox's four-word buffer
    return (
        stream.raw_words(3).tobytes(),
        stream.uniform(),
        stream.uniform(size=6).tobytes(),
        stream.standard_normal(size=(5, 3)).tobytes(),
        stream.poisson(30.0),
        stream.raw_words(1).tobytes(),
        stream.poisson(2e4),
        stream.uniform(size=(2, 3)).tobytes(),
    )


def test_rng_stream_rekey_draws_as_a_fresh_stream():
    def fresh(stream):
        pass

    def mid_buffer(stream):  # leaves Philox mid-way through its four-word buffer
        stream.poisson(30.0)
        stream.standard_normal(size=(5, 3))
        stream.uniform(size=2)
        assert 0 < stream._gen.bit_generator.state["buffer_pos"] < 4

    def half_word(stream):  # a 32-bit draw keeps the other half of its word
        stream._gen.integers(0, 2**32, dtype=np.uint32)
        assert stream._gen.bit_generator.state["has_uint32"] == 1

    def both(stream):
        mid_buffer(stream)
        half_word(stream)

    for seed in (42, 2**64 - 1):
        for before in (fresh, mid_buffer, half_word, both):
            for stream_id in (0, 7, 2**63, 2**64 - 1, 2**64 + 7):
                stream = RngStream(seed, 3)
                before(stream)
                stream.rekey(stream_id)
                assert (stream.seed, stream.stream_id) == (seed, stream_id % 2**64)
                assert stream._gen.bit_generator.state["has_uint32"] == 0
                assert _every_draw(stream) == _every_draw(RngStream(seed, stream_id)), (seed, stream_id)


@pytest.mark.parametrize("size", [None, 1, 1000, (3, 4), (2, 0, 5)])
def test_uniform_has_the_bits_of_generator_uniform(size):
    for seed, stream_id in ((1, 0), (2**64 - 1, 2**63)):
        stream = RngStream(seed, stream_id)
        gen = np.random.Generator(np.random.Philox(key=np.array([seed, stream_id], dtype=np.uint64)))
        for _ in range(3):  # successive calls continue one sequence
            got, want = stream.uniform(size=size), gen.uniform(size=size)
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_uniform_is_the_top_53_bits_of_the_raw_word():
    # numpy's contract that bell.correlation_mc compares raw words by; words
    # and uniforms continue one sequence
    for seed, stream_id in ((1, 0), (42, 3), (2**64 - 1, 2**63)):
        stream = RngStream(seed, stream_id)
        stream.uniform(size=5)
        words = stream.raw_words(1001)
        want = (words >> np.uint64(11)) * 2.0**-53
        assert np.array_equal(RngStream(seed, stream_id).uniform(size=1006)[5:], want)
        after = RngStream(seed, stream_id).uniform(size=1009)[1006:]
        assert np.array_equal(stream.uniform(size=3), after)


@pytest.mark.parametrize("drawn", [0, 1, 2, 3])
@pytest.mark.parametrize("offset", [0, 1, 3, 4, 5, 2**16, 2**19, 2**19 + 2])
def test_skip_gives_the_words_after_drawing_and_discarding(drawn, offset):
    # from a fresh stream and from streams holding 3, 2 and 1 words of their last counter step:
    # the words after skip(offset) are those after drawing offset words, and so is the word after those
    for seed, stream_id in ((1, 0), (2**64 - 1, 2**63)):
        serial = RngStream(seed, stream_id).raw_words(drawn + offset + 9)[drawn + offset:]
        stream = RngStream(seed, stream_id)
        stream.raw_words(drawn)
        stream.skip(offset)
        assert np.array_equal(stream.raw_words(8), serial[:8])
        assert np.array_equal(stream.raw_words(1), serial[8:])


def test_skip_continues_the_uniforms():
    stream = RngStream(42, 3)
    stream.uniform(size=3)
    stream.skip(2**19 + 5)
    assert np.array_equal(stream.uniform(size=4), RngStream(42, 3).uniform(size=2**19 + 12)[-4:])


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_ordered_ranges_emits_in_range_order(monkeypatch, cpus):
    # seven ranges over up to three processes; each yields its items, one range none
    on_cpus(monkeypatch, cpus)
    emitted = []
    ordered_ranges([(i, i * i % 5) for i in range(7)], lambda span: [(span, pid) for pid in range(span[1])],
                   emitted.append, "a worker ended without sending its items")
    assert emitted == [((i, i * i % 5), pid) for i in range(7) for pid in range(i * i % 5)]
    assert_no_child_left()


class EndsTheProcess:
    """Pickling it ends the process, part-way through the message that holds it."""

    def __reduce__(self):
        os._exit(0)


@pytest.mark.parametrize("padding", [0, 2**18])
def test_ordered_ranges_worker_that_ends_part_way_through_a_message_raises_runtime_error(monkeypatch, padding):
    # the worker ends while it pickles its message for range 1: without padding nothing has reached the
    # pipe; with 256 KiB, more than a pipe holds, the caller reads a part of a pickle, then the pipe's end
    parent = os.getpid()

    def work(span):
        yield span
        if os.getpid() != parent:
            yield bytes(padding), EndsTheProcess()

    on_cpus(monkeypatch, 2)
    emitted = []
    with pytest.raises(RuntimeError, match="^a worker ended without sending its items$"):
        ordered_ranges(list(range(4)), work, emitted.append, "a worker ended without sending its items")
    assert emitted == [0]
    assert_no_child_left()


def _first_zero(f, lo, hi):
    # the smallest float x in (lo, hi] at which f(x) is 0, with f(lo) > 0 and f(hi) == 0
    assert f(lo) > 0.0 and f(hi) == 0.0
    while np.nextafter(lo, math.inf) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if f(mid) == 0.0 else (mid, hi)
    return hi


# where one factor e^{-x/2} underflows (1490.3), and where e^{-x/4} does (2980.5)
HALF_EXP_ZERO = _first_zero(lambda x: math.exp(-x / 2.0), 1e3, 1e4)
QUARTER_EXP_ZERO = _first_zero(lambda x: math.exp(-x / 4.0), 1e3, 1e4)
CHI2_DFS = (2, 3, 30, 31, 32, 63, 64)
NORMAL_MIN = 2.0**-1022


def _chi2_probes(df, rng):
    # random x over the bulk and the tails, the band 1200..3100 around both
    # underflows, and the edges 0, 1e-300 and the two underflows with their
    # neighbours
    edges = [0.0, float(df), 1e-300, HALF_EXP_ZERO, QUARTER_EXP_ZERO]
    xs = [rng.uniform(0.0, 4.0 * df, 1000), rng.exponential(df, 500), 10.0 ** rng.uniform(-300, 4, 500),
          rng.uniform(1200.0, 3100.0, 200)]
    for edge in edges:
        xs.append([np.nextafter(edge, -math.inf), edge, np.nextafter(edge, math.inf)])
    return [*np.concatenate(xs).tolist(), 5e-324, 1e300, math.inf, math.nan]


@pytest.mark.parametrize("df", CHI2_DFS)
def test_chi2_sf_within_16_ulp_of_mpmath(df):
    # every probe whose 200-bit tail is a normal float, to 16 ulp; a
    # subnormal or zero tail gives a result below the normal floats
    for x in _chi2_probes(df, np.random.default_rng(df)):
        got = chi2_sf(df, x)
        if math.isnan(x) or x < 0.0:
            assert math.isnan(got), (df, x, got)
            continue
        want = chi2_sf_mpmath(df, x)
        if want >= NORMAL_MIN:
            assert ulps_from(got, want) <= 16.0, (df, x, got, float(want))
        else:
            assert 0.0 <= got < NORMAL_MIN, (df, x, got, float(want))


def test_chi2_sf_probes_cover_every_branch():
    # both parities; probes in the band where one factor e^{-x/2} would
    # underflow but the tail is a normal float; and the exact 0.0 beyond it
    assert {df % 2 for df in CHI2_DFS} == {0, 1}
    for df in (31, 64):
        xs = _chi2_probes(df, np.random.default_rng(df))
        band = [x for x in xs if HALF_EXP_ZERO < x < QUARTER_EXP_ZERO]
        assert all(math.exp(-x / 2.0) == 0.0 for x in band)
        assert any(chi2_sf(df, x) >= NORMAL_MIN for x in band)
        beyond = [x for x in xs if x >= QUARTER_EXP_ZERO]
        assert len(beyond) > 10 and all(chi2_sf(df, x) == 0.0 for x in beyond)
        assert chi2_sf(df, 0.0) == 1.0 and chi2_sf(df, 1e-300) == 1.0


@pytest.mark.parametrize("df", [1, 2, 31, 64])
def test_chi2_sf_is_exactly_zero_from_3000(df):
    for x in (3000.0, 1e4, 1e300, math.inf):
        assert chi2_sf(df, x) == 0.0


def test_chi2_sf_is_nan_below_zero():
    for x in (-5e-324, -1.0, -math.inf):
        assert math.isnan(chi2_sf(31, x))


@pytest.mark.parametrize("df", [0, -31, 2.5, 31.0, "31"])
def test_chi2_sf_rejects_unported_degrees_of_freedom(df):
    # the closed form holds for whole df >= 1 only
    with pytest.raises(ValueError, match="integer df >= 1"):
        chi2_sf(df, 31.0)


def test_frozen_init_sets_the_slots_in_order_from_exactly_one_value_each():
    class Pair(Frozen):
        __slots__ = ("first", "second")

    pair = Pair(1, 2)
    assert (pair.first, pair.second) == (1, 2) and repr(pair) == "Pair(first=1, second=2)"
    for values in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError):
            Pair(*values)


_Z = np.array([0.0, 0.0, 1.0])
# each model type: a factory of equal instances, its fields, and whether == and hash follow the values
MODEL_TYPES = {
    "HiddenVariable": (lambda: bell.HiddenVariable(0.25), "lam", True),
    "PolarizedState": (lambda: bell.PolarizedState(axis=_Z, sign=-1), "axis sign", False),
    "ApparatusSetting": (lambda: bell.ApparatusSetting(_Z), "orientation", False),
    "CorrelationEstimate": (lambda: bell.CorrelationEstimate(-0.5, std_error=0.01, n_trials=100),
                            "mean std_error n_trials", True),
    "AtomSpecies": (lambda: chamber.AtomSpecies(width=1.0, g0=0.5, g1=0.5), "width g0 g1 delta_e", True),
    "GasConfiguration": (lambda: chamber.GasConfiguration((), 40.0, inner_radius=12.0, seed=1),
                         "atoms chamber_radius inner_radius seed stream_id", False),
    "AlignmentChain": (lambda: chamber.AlignmentChain((0,), direction=_Z), "indices direction", False),
    "TrackResult": (lambda: chamber.TrackResult(_Z, chamber.AlignmentChain((0,), _Z), 1.0, c2_per_step=0.5),
                    "direction chain surviving_spherical_flux c2_per_step", False),
    "IsotropyResult": (lambda: chamber.IsotropyResult(np.zeros(32, int), 0.0, 1.0, n_empty=0),
                       "counts chi_square p_value n_empty", False),
    "ScatteringContext": (lambda: mott.ScatteringContext(50.0, delta_e=0.01), "e_alpha delta_e", True),
    "PlaneSpec": (lambda: render.PlaneSpec([0, 0, 0], [1, 0, 0], [0, 1, 0], half_extent=20.0, resolution=16),
                  "origin u_axis v_axis half_extent resolution", False),
    "FieldImage": (lambda: render.FieldImage(width=1, height=1, rgb=b"rgb"), "width height rgb", False),
}


@pytest.mark.parametrize("name", MODEL_TYPES)
def test_model_types_are_read_only_with_value_or_identity_equality(name):
    make, fields, by_value = MODEL_TYPES[name]
    a, b, fields = make(), make(), fields.split()
    assert type(a).__name__ == name and a == a and hash(a) == hash(a)
    for field in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(a, field, getattr(a, field))
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert not hasattr(a, "__dict__")
    if by_value:  # as a dataclass with eq=True: equal field tuples, and only within the type
        values = tuple(getattr(a, field) for field in fields)
        assert a == b and hash(a) == hash(b) == hash(values) and a != values
        assert repr(a) == f"{name}({', '.join(f'{f}={v!r}' for f, v in zip(fields, values))})"
    else:
        assert a != b and hash(a) == object.__hash__(a)
