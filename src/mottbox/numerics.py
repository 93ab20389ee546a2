"""Shared numerical substrate: 3-vectors, one-dimensional Gauss-Legendre
quadrature, reproducible counter-based random streams and the chi-square
tail probability."""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.random import Generator, Philox

__all__ = [
    "dot",
    "norm",
    "unit",
    "require_unit",
    "gauss_legendre",
    "quad_1d",
    "pairwise_sum",
    "chi2_sf",
    "RngStream",
]

UNIT_TOL = 1e-12

# ranges up to this length are summed by one np.add.reduce call
PAIRWISE_LEAF = 2**16


def dot(u, v) -> np.ndarray:
    """Row-wise dot product, shape (..., 3) -> (...), bit-equal to ``np.dot`` per row.

    Batched matmul sums in np.dot's order; ``einsum`` and ``sum(axis=-1)`` do not.
    """
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def norm(v) -> float:
    with np.errstate(over="ignore"):  # an overflowed norm is inf, which callers reject
        return float(np.sqrt(np.dot(v, v)))


def unit(v) -> np.ndarray:
    """Normalize ``v`` to unit length."""
    v = np.asarray(v, dtype=float)
    n = norm(v)
    if n == 0.0 or not np.isfinite(n):
        raise ValueError(f"cannot normalize vector with norm {n}")
    return v / n


def require_unit(v, tol: float = UNIT_TOL) -> np.ndarray:
    """Validate that ``v`` has unit norm within ``tol`` and return it."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    n = norm(v)
    if abs(n - 1.0) > tol:
        raise ValueError(f"expected a unit vector, got norm {n!r}")
    return v


@functools.lru_cache(maxsize=64)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    if n < 2:
        raise ValueError(f"need at least 2 quadrature nodes, got {n}")
    x, w = leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def quad_1d(f, lo: float, hi: float, n: int) -> float:
    """Gauss-Legendre estimate of the integral of ``f`` over [lo, hi].

    Exact to rounding for polynomials of degree <= 2n - 1.  For analytic
    integrands the error decays geometrically in n, so doubling n roughly
    squares the error until rounding dominates.
    """
    x, w = gauss_legendre(n)
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    total = 0.0
    for xi, wi in zip(x, w):
        t = mid + half * xi
        val = f(t)
        if not np.isfinite(val):
            raise ValueError(f"integrand returned non-finite value {val!r} at x={t!r}")
        total += wi * val
    return half * total


def pairwise_sum(leaf_sum, n: int, start: int = 0) -> float:
    """Sum of ``n`` terms from ``start`` in the order of ``np.add.reduce``.

    numpy sums a contiguous float64 array pairwise, splitting a range of
    more than 128 terms at half its length rounded down to a multiple of 8.
    This follows the same splits down to ranges of at most PAIRWISE_LEAF
    terms and calls ``leaf_sum(start, m)``, which must return
    ``np.add.reduce`` over terms start .. start + m - 1, so the terms never
    need to exist as one array.  Every leaf starts at a multiple of 8.
    """
    if n <= PAIRWISE_LEAF:
        return leaf_sum(start, n)
    half = n // 2
    half -= half % 8
    return pairwise_sum(leaf_sum, half, start) + pairwise_sum(leaf_sum, n - half, start + half)


# Constants of cephes' igam.c and lanczos.c (S. L. Moshier, Methods and
# Programs for Mathematical Functions, 1989, as shipped in scipy.special).
_MACHEP = 2.0**-53
_MAXLOG = 7.09782712893383996732e2
_MAXITER = 2000
_BIG = 2.0**52
_BIGINV = 2.0**-52
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_STIRLING = (  # highest degree first, as polevl takes them
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LANCZOS_G = 6.024680040776729583740234375
# lanczos_sum_expg_scaled = num / den, both highest degree first as ratevl takes them
_LANCZOS_NUM = (
    0.006061842346248906525783753964555936883222,
    0.5098416655656676188125178644804694509993,
    19.51992788247617482847860966235652136208,
    449.9445569063168119446858607650988409623,
    6955.999602515376140356310115515198987526,
    75999.29304014542649875303443598909137092,
    601859.6171681098786670226533699352302507,
    3481712.15498064590882071018964774556468,
    14605578.08768506808414169982791359218571,
    43338889.32467613834773723740590533316085,
    86363131.28813859145546927288977868422342,
    103794043.1163445451906271053616070238554,
    56906521.91347156388090791033559122686859,
)
_LANCZOS_DEN = (1.0, 66.0, 1925.0, 32670.0, 357423.0, 2637558.0, 13339535.0, 45995730.0,
                105258076.0, 150917976.0, 120543840.0, 39916800.0, 0.0)


def _polevl(y: float, coefs) -> float:
    # Horner's rule, highest degree first
    ans = coefs[0]
    for coef in coefs[1:]:
        ans = ans * y + coef
    return ans


def _lgam(a: float) -> float:
    # cephes lgam for 13 <= a < 1000: Stirling's series
    q = (a - 0.5) * math.log(a) - a + _LS2PI
    return q + _polevl(1.0 / (a * a), _STIRLING) / a


def _lanczos_sum_expg_scaled(a: float) -> float:
    # cephes ratevl for a > 1: both polynomials in 1/a, from the constant term
    y = 1.0 / a
    return _polevl(y, _LANCZOS_NUM[::-1]) / _polevl(y, _LANCZOS_DEN[::-1])


def _igam_fac(a: float, x: float) -> float:
    # x^a exp(-x) / Gamma(a)
    if abs(a - x) > 0.4 * a:
        ax = a * math.log(x) - x - _lgam(a)
        if ax < -_MAXLOG:
            return 0.0
        return math.exp(ax)
    fac = a + _LANCZOS_G - 0.5
    res = math.sqrt(fac / math.exp(1)) / _lanczos_sum_expg_scaled(a)
    return res * (math.exp(a - x) * math.pow(x / fac, a))  # a, x < 200


def _igam_series(a: float, x: float) -> float:
    # regularized lower incomplete gamma, DLMF 8.11.4
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    r, c, ans = a, 1.0, 1.0
    for _ in range(_MAXITER):
        r += 1.0
        c *= x / r
        ans += c
        if c <= _MACHEP * ans:
            break
    return ans * ax / a


def _igamc_continued_fraction(a: float, x: float) -> float:
    # regularized upper incomplete gamma, DLMF 8.9.2
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    y = 1.0 - a
    z = x + y + 1.0
    c = 0.0
    pkm2, qkm2 = 1.0, x
    pkm1, qkm1 = x + 1.0, z * x
    ans = pkm1 / qkm1
    for _ in range(_MAXITER):
        c += 1.0
        y += 1.0
        z += 2.0
        yc = y * c
        pk = pkm1 * z - pkm2 * yc
        qk = qkm1 * z - qkm2 * yc
        if qk != 0.0:
            r = pk / qk
            t = abs((ans - r) / r)
            ans = r
        else:
            t = 1.0
        pkm2, pkm1 = pkm1, pk
        qkm2, qkm1 = qkm1, qk
        if abs(pk) > _BIG:
            pkm2 *= _BIGINV
            pkm1 *= _BIGINV
            qkm2 *= _BIGINV
            qkm1 *= _BIGINV
        if t <= _MACHEP:
            break
    return ans * ax


def chi2_sf(df: int, x: float) -> float:
    """Chi-square tail probability P(X > x) for ``df`` degrees of freedom.

    Bit-equal to ``scipy.special.chdtrc(df, x)``: a line-for-line port of
    the branches cephes ``igamc(a, x / 2)`` takes for a = df / 2 in
    [13, 20], which are Stirling's lgam, the power series below a and the
    continued fraction above it.  Below 13 lgam takes another form, and
    above 20 igamc switches to an asymptotic series near a, so other
    ``df`` raise ValueError.  NaN for x < 0 and for NaN, as chdtrc.
    """
    if not 26 <= df <= 40:
        raise ValueError(f"chi2_sf supports 26 <= df <= 40, got {df}")
    if not x >= 0.0:
        return math.nan
    a, x = df / 2.0, x / 2.0
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    if x < a:  # igamc's branches for x <= 1.1 also take 1 - series when a >= 13
        return 1.0 - _igam_series(a, x)
    return _igamc_continued_fraction(a, x)


class RngStream:
    """Reproducible random stream keyed by (seed, stream_id).

    Backed by the counter-based Philox generator, so equal keys give
    bitwise-equal draw sequences on every platform.  Streams are meant to be
    single-owner: give each logical trial or configuration its own stream_id
    instead of sharing one stream across threads.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) % 2**64
        self.stream_id = int(stream_id) % 2**64
        self._gen = Generator(Philox(key=self._key()))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    def _key(self) -> np.ndarray:
        return np.array([self.seed, self.stream_id], dtype=np.uint64)

    def substream(self, stream_id: int) -> "RngStream":
        """Fresh stream with the same seed and a different stream id."""
        return RngStream(self.seed, stream_id)

    def rekey(self, stream_id: int) -> None:
        """Restart this stream as (seed, stream_id): the draws of a fresh stream with that key.

        Re-keys the one Philox in place, at about a third of the cost of
        building a new generator.
        """
        self.stream_id = int(stream_id) % 2**64
        self._gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": self._key()},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def raw_words(self, size: int) -> np.ndarray:
        """The next ``size`` 64-bit Philox words of this stream.

        :meth:`uniform` draws one word w per value and returns
        ``(w >> 11) * 2**-53``, so words and uniforms continue one sequence.
        """
        return self._gen.bit_generator.random_raw(size)

    def uniform(self, size=None):
        """Uniform draws from [0, 1)."""
        return self._gen.uniform(size=size)

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size=size)

    def poisson(self, lam: float) -> int:
        return int(self._gen.poisson(lam))
