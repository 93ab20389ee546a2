import numpy as np
import pytest
from scipy.stats import chisquare

from mottbox.numerics import (
    RngStream,
    gauss_legendre,
    pairwise_sum,
    quad_1d,
    require_unit,
    unit,
)
from oracles import quad_3d

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


@pytest.mark.parametrize(
    "n", [1, 2, 7, 8, 9, 127, 128, 129, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5, 10**6 + 3, 10**7]
)
def test_pairwise_sum_bit_equal_to_add_reduce(n):
    # terms of both signs over ten decades, so a different summation order shows
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-5.0, 5.0, n)

    def leaf_sum(start, m):
        assert start % 8 == 0
        return np.add.reduce(x[start : start + m])

    assert pairwise_sum(leaf_sum, n).hex() == np.add.reduce(x).hex()


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
