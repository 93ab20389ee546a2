"""Shared numerical substrate: 3-vectors, normalized without under- or
overflow, reproducible counter-based random streams, the chi-square tail
probability, a generic Gauss-Legendre rule, the read-only base of the model
types, the ordered range map that runs long loops on every CPU and their text sink.

The generic rule (``gauss_legendre``, ``quad_1d``) serves the tests and their
oracles only; the flux integrals of ``mott`` carry their own stored rule, so
no run loads ``numpy.polynomial`` or solves for nodes."""

from __future__ import annotations

import contextlib
import functools
import math
import os
import pickle

import numpy as np
from numpy.random import Generator, Philox

__all__ = [
    "dot",
    "norm",
    "unit",
    "require_unit",
    "gauss_legendre",
    "quad_1d",
    "chi2_sf",
    "RngStream",
    "Frozen",
    "FrozenValue",
    "ordered_ranges",
    "text_sink",
]

UNIT_TOL = 1e-12


class Frozen:
    """Base of the package's model types: read-only fields, ``==`` and ``hash`` by identity.

    A subclass names its fields in ``__slots__``; its ``__init__`` checks its
    arguments and passes one value per field, in ``__slots__`` order, to
    ``super().__init__``, which sets each once.  Any later assignment or
    deletion raises AttributeError.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self.__slots__)})"


class FrozenValue(Frozen):
    """A Frozen type whose ``==`` and ``hash`` are those of its field values, in ``__slots__`` order."""

    __slots__ = ()

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)


def dot(u, v) -> np.ndarray:
    """Row-wise dot product, shape (..., 3) -> (...), bit-equal to ``np.dot`` per row.

    Batched matmul sums in np.dot's order; ``einsum`` and ``sum(axis=-1)`` do not.
    """
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def norm(v) -> float:
    with np.errstate(over="ignore"):  # an overflowed norm is inf, which callers reject
        return float(np.sqrt(np.dot(v, v)))


def unit(v) -> np.ndarray:
    """Normalize ``v`` to unit length.

    Where |v|^2 is not a normal float (every component below about 1e-154,
    or one above about 1e154), a finite non-zero ``v`` is first divided by
    its largest |component|.
    """
    v = np.asarray(v, dtype=float)
    n = norm(v)
    if not 2.0**-511 <= n < math.inf and np.isfinite(v).all() and v.any():
        return unit(v / np.abs(v).max())
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
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], by an eigenvalue solve."""
    if n < 2:
        raise ValueError(f"need at least 2 quadrature nodes, got {n}")
    from numpy.polynomial.legendre import leggauss  # here, so that importing numerics does not load it

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


def chi2_sf(df: int, x: float) -> float:
    """Chi-square tail probability P(X > x) for an integer ``df`` >= 1.

    The closed forms of Abramowitz & Stegun 26.4.4-5: for even df,
    e^{-x/2} sum_{j<df/2} (x/2)^j / j!; for odd df, erfc(sqrt(x/2)) +
    sqrt(2x/pi) e^{-x/2} sum_{j=1}^{(df-1)/2} x^{j-1} / (1 3 ... (2j-1)).
    Every term is positive, so nothing cancels.  e^{-x/2} is applied as two
    factors e^{-x/4}, one in the terms and one on their sum: a single
    e^{-x/2} underflows above x = 1490, where the tail of a large df is
    still a normal float.  0.0 once e^{-x/4} underflows (x > 2980), NaN for
    x < 0 and for NaN.  For df = 1 the result is erfc alone, whose relative
    error grows as x 2^-53 with the rounding of sqrt(x/2).
    """
    if not isinstance(df, (int, np.integer)) or df < 1:
        raise ValueError(f"chi2_sf needs an integer df >= 1, got {df!r}")
    x = float(x)
    if not x >= 0.0:
        return math.nan
    quarter = math.exp(-x / 4.0)
    if quarter == 0.0:
        return 0.0
    odd = df % 2
    term, total = (math.sqrt(2.0 * x / math.pi) if odd else 1.0) * quarter, 0.0
    for j in range(1, df // 2 + 1):  # the terms by recurrence, each with one e^{-x/4}
        total += term
        term *= x / (2 * j + odd)
    return (math.erfc(math.sqrt(x / 2.0)) if odd else 0.0) + total * quarter


class RngStream:
    """Reproducible random stream keyed by (seed, stream_id).

    Backed by the counter-based Philox generator, so equal keys give
    bitwise-equal draw sequences on every platform.  A stream has one owner:
    each configuration takes its own stream_id, and each worker of
    :func:`ordered_ranges` its own copy, moved to its part by :meth:`skip`.
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

        Re-keys the one Philox in place from plain ints and tuples, which
        its state setter reads faster than arrays: 1.6 us, against 4.3 us
        from arrays and 17 us for a new RngStream (numpy 2.4.6, one thread
        of a 2-vCPU VM).
        """
        self.stream_id = int(stream_id) % 2**64
        self._gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": (self.seed, self.stream_id)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def skip(self, words: int) -> None:
        """Move this stream ``words`` 64-bit words ahead in O(1), as drawing them would.

        ``Philox.advance`` drops the 0-3 words left of the last four-word counter step, so those count
        first; then whole steps advance, and at most three words of the next step are drawn.
        """
        bits = self._gen.bit_generator
        held = 4 - bits.state["buffer_pos"]
        if words > held:
            bits.advance((words - held) // 4)
            words = (words - held) % 4
        bits.random_raw(words)

    def raw_words(self, size: int) -> np.ndarray:
        """The next ``size`` 64-bit Philox words of this stream.

        :meth:`uniform` draws one word w per value and returns
        ``(w >> 11) * 2**-53``, so words and uniforms continue one sequence.
        """
        return self._gen.bit_generator.random_raw(size)

    def uniform(self, size=None):
        """Uniform draws from [0, 1), the bits of ``Generator.uniform``.

        That computes 0.0 + 1.0 * x from ``Generator.random``'s x, which
        is x, so ``random`` gives the same values at half the cost (26
        values: 1.7 us against 3.4 us).
        """
        return self._gen.random(size=size)

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size=size)

    def poisson(self, lam: float) -> int:
        return int(self._gen.poisson(lam))


def cpus() -> int:
    # the CPUs this process may run on: those of its affinity mask, or 1 where os cannot tell
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _worker(ranges, work, read, write) -> None:
    # a fork pickles the list of each range's items, or its ValueError's text, until a write fails.  It
    # ends in os._exit: never in the caller's stack, inherited stdio unflushed
    try:
        os.close(read)
        pipe = os.fdopen(write, "wb")
        for span in ranges:
            try:
                message = list(work(span))
            except ValueError as exc:
                message = str(exc)
            pickle.dump(message, pipe, pickle.HIGHEST_PROTOCOL)
            pipe.flush()
    finally:
        os._exit(0)


def _received(pipe, lost: str) -> list:
    try:  # the pipe's end before a whole message, at its start or part-way, means the worker ended
        message = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise RuntimeError(lost) from None
    if isinstance(message, str):
        raise ValueError(message)
    return message


def ordered_ranges(ranges: list, work, emit, lost: str) -> None:
    """Call ``emit(item)`` on each item of ``work(r)`` for every range r, in range order, on every CPU.

    Range r runs in process r mod W, W = min(cpus(), len(ranges)): 0 is the caller, which emits items
    as ``work`` yields them, the others are forks, which send each range's items down a pipe.  A
    worker's ValueError is raised again in order, with its text; one that ends without a whole message
    raises ``RuntimeError(lost)``.  No worker outlives the call.
    """
    n_procs, workers = min(cpus(), len(ranges)), [None]  # worker w: (pid, read end of its pipe)
    if n_procs > 1:
        from signal import SIGKILL  # here, so that only a run that forks loads the module (0.6 ms)
    try:
        for w in range(1, n_procs):
            read, write = os.pipe()
            if (pid := os.fork()) == 0:
                _worker(ranges[w::n_procs], work, read, write)
            os.close(write)
            workers.append((pid, os.fdopen(read, "rb")))
        for r, span in enumerate(ranges):
            for item in _received(workers[r % n_procs][1], lost) if r % n_procs else work(span):
                emit(item)
    finally:
        for pid, pipe in workers[1:]:
            pipe.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)


@contextlib.contextmanager
def text_sink(path, header: str):
    """Yield ``write(text)``, which appends ``text`` to the file at ``path``: the file opens at the first
    write, with the line ``header``, and a run that fails after that removes it."""
    with contextlib.ExitStack() as stack:
        files = []

        def write(text: str) -> None:
            if not files:
                files.append(open(path, "w", encoding="utf-8"))
                stack.push(lambda failed, *_: failed and os.remove(path))  # runs after the close below
                stack.callback(files[0].close)
                files[0].write(header + "\n")
            files[0].write(text)

        yield write
