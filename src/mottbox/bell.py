"""Deterministic apparatus-internal-variable model of the two-spin singlet
experiment: every measurement outcome is a pure function of the measured
state, the apparatus orientation and the apparatus internal variable, yet the
ensemble statistics reproduce the quantum singlet correlation -a.b and
therefore violate the three-direction Bell inequality."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

import numpy as np

from .numerics import RngStream, pairwise_sum, require_unit

__all__ = [
    "HiddenVariable",
    "PolarizedState",
    "ApparatusSetting",
    "CorrelationEstimate",
    "BellTestResult",
    "response",
    "epr_trial",
    "correlation_mc",
    "correlation_quantum",
    "bell_test",
]

# largest n_trials correlation_mc accepts.  One setting pair on a 2-vCPU VM:
# 1.4 s and 67 MB peak RSS at 10^8 trials, 16 s and 174 MB (125 MB of it the
# one-bit-per-trial bitset) at 10^9
MAX_TRIALS = 10**9

# trials per raw draw: 512 KiB of Philox words in flight, and a multiple of 8
# so that every block starts on a byte of the outcome bitset
BLOCK_TRIALS = 2**15


@dataclass(frozen=True)
class HiddenVariable:
    """Internal state of one measurement apparatus, a number in [0, 1)."""

    lam: float

    def __post_init__(self):
        if not (0.0 <= self.lam < 1.0):
            raise ValueError(f"hidden variable must lie in [0, 1), got {self.lam}")


@dataclass(frozen=True, eq=False)
class PolarizedState:
    """Spin-1/2 state fully polarized along ``axis`` with sign +1 or -1."""

    axis: np.ndarray
    sign: int

    def __post_init__(self):
        object.__setattr__(self, "axis", require_unit(self.axis))
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")


@dataclass(frozen=True, eq=False)
class ApparatusSetting:
    """Measurement orientation of one apparatus."""

    orientation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "orientation", require_unit(self.orientation))


@dataclass(frozen=True)
class CorrelationEstimate:
    """Monte Carlo estimate of the outcome-product correlation."""

    mean: float
    std_error: float
    n_trials: int

    def __post_init__(self):
        if not (-1.0 <= self.mean <= 1.0):
            raise ValueError(f"correlation mean must lie in [-1, 1], got {self.mean}")
        if self.std_error < 0.0:
            raise ValueError(f"std_error must be non-negative, got {self.std_error}")


class BellTestResult(NamedTuple):
    lhs: float
    rhs: float
    violated: bool


def _clamped_dot(u: np.ndarray, v: np.ndarray) -> float:
    d = float(np.dot(u, v))
    return min(1.0, max(-1.0, d))


def _plus_threshold(axis: np.ndarray, orientation: np.ndarray) -> float:
    # cos^2(theta/2) = (1 + cos theta)/2 for theta between axis and orientation
    return 0.5 * (1.0 + _clamped_dot(axis, orientation))


def response(state: PolarizedState, setting: ApparatusSetting, hv: HiddenVariable) -> int:
    """Outcome (+1 or -1) of measuring ``state`` with one apparatus.

    Threshold realization: the apparatus returns ``state.sign`` when
    ``hv.lam < cos^2(theta/2)`` and the opposite value otherwise, with theta
    the angle between the state axis and the apparatus orientation.  This is
    deterministic in all three arguments and satisfies the three defining
    constraints: outcomes are only +1/-1; a state measured along its own
    polarization axis gives its sign for every internal state; and the
    average over a uniform internal variable equals
    ``sign * (axis . orientation)``.

    The tie ``hv.lam == cos^2(theta/2)`` goes to the opposite sign (strict
    ``<``), fixed so outcomes are bit-reproducible.
    """
    t = _plus_threshold(state.axis, setting.orientation)
    return state.sign if hv.lam < t else -state.sign


def epr_trial(
    a: ApparatusSetting,
    b: ApparatusSetting,
    hv1: HiddenVariable,
    hv2: HiddenVariable,
) -> tuple[int, int]:
    """One singlet-pair measurement, fully determined by (hv1, hv2).

    Apparatus 1 measures first: writing the singlet in the basis of the first
    orientation makes the first outcome an even split over the internal
    variable, realized as +1 iff ``hv1.lam < 1/2``.  The partner particle is
    left polarized opposite to that outcome along the first orientation, and
    apparatus 2 measures it via :func:`response`.  Apparatus 1 never reads
    hv2 and apparatus 2 never reads hv1.
    """
    r1 = 1 if hv1.lam < 0.5 else -1
    collapsed = PolarizedState(axis=a.orientation, sign=-r1)
    r2 = response(collapsed, b, hv2)
    return r1, r2


def _word_limit(t: float) -> int:
    """Largest Philox word whose uniform lies below ``t``, or -1 if none does.

    numpy's uniform of a word w is (w >> 11) * 2**-53, and t * 2**53 is exact
    for t in [0, 1], so ``u < t`` holds exactly when ``w <= _word_limit(t)``.
    """
    return math.ceil(t * 2**53) * 2**11 - 1


def correlation_mc(
    a: ApparatusSetting, b: ApparatusSetting, n: int, rng: RngStream
) -> CorrelationEstimate:
    """Sample mean of the outcome product over ``n`` singlet trials.

    Each trial draws a fresh pair of internal variables (two consecutive
    uniforms from ``rng``), so a fixed (seed, stream_id) reproduces the
    estimate bitwise.  The product r1*r2 of :func:`epr_trial` is -1 exactly
    when the second uniform lies below the threshold t of b on the axis of a:
    r2 is -r1 times that response and r1*r1 is exactly 1.  The first uniform
    is never read, and the second is compared as its raw Philox word
    (:func:`_word_limit`); at t = 0 nothing is drawn.

    Words are drawn BLOCK_TRIALS pairs at a time (Philox continues across
    calls, so this is the sequence of one ``(n, 2)`` draw) and each trial
    keeps one bit, so memory is n/8 bytes plus one block.  ``mean`` and
    ``std_error`` are bit-equal to ``products.mean()`` and
    ``products.std(ddof=1) / sqrt(n)`` over the array of products: a sum of
    +-1 values is an exact integer, and the squared deviations are summed in
    numpy's pairwise order.
    """
    if not 1 <= n <= MAX_TRIALS:
        raise ValueError(f"n_trials must lie in [1, {MAX_TRIALS}], got {n}")
    limit = _word_limit(_plus_threshold(a.orientation, b.orientation))
    minus = np.zeros((n + 7) // 8, dtype=np.uint8)  # bit i: trial i gave -1
    n_minus = 0
    if limit >= 0:
        for start in range(0, n, BLOCK_TRIALS):
            m = min(BLOCK_TRIALS, n - start)
            below = rng.raw_words(2 * m)[1::2] <= np.uint64(limit)
            n_minus += int(np.count_nonzero(below))
            minus[start // 8 : (start + m + 7) // 8] = np.packbits(below)
    mean = (n - 2 * n_minus) / n
    if n == 1:
        return CorrelationEstimate(mean=mean, std_error=0.0, n_trials=n)
    # (p - mean)**2 for p = +1 and p = -1, formed as np.std forms them; row b
    # of ``squares`` holds them for the 8 trials of a bitset byte b
    plus_sq = (1.0 - mean) * (1.0 - mean)
    minus_sq = (-1.0 - mean) * (-1.0 - mean)
    byte_bits = np.unpackbits(np.arange(256, dtype=np.uint8)).reshape(256, 8)
    squares = np.where(byte_bits.view(bool), minus_sq, plus_sq)

    def leaf_sum(start: int, m: int) -> float:
        # every leaf starts at a multiple of 8, on a byte of the bitset
        rows = np.take(squares, minus[start // 8 : (start + m + 7) // 8], axis=0)
        return np.add.reduce(rows.reshape(-1)[:m])

    sum_sq = pairwise_sum(leaf_sum, n)
    std_error = math.sqrt(sum_sq / (n - 1)) / math.sqrt(n)
    return CorrelationEstimate(mean=mean, std_error=std_error, n_trials=n)


def correlation_quantum(a: ApparatusSetting, b: ApparatusSetting) -> float:
    """Singlet correlation -a.b predicted by quantum mechanics."""
    return -_clamped_dot(a.orientation, b.orientation)


CorrelationFn = Callable[[ApparatusSetting, ApparatusSetting], Union[float, CorrelationEstimate]]


def _as_mean(value) -> float:
    return float(getattr(value, "mean", value))


def bell_test(
    a: ApparatusSetting,
    b: ApparatusSetting,
    c: ApparatusSetting,
    correlation: CorrelationFn,
) -> BellTestResult:
    """Evaluate the three-direction Bell inequality |E(a,b) - E(a,c)| <= 1 + E(b,c).

    ``correlation`` may return floats or :class:`CorrelationEstimate` values.
    ``violated`` is True when the left side strictly exceeds the right side,
    which no particle-attached hidden-variable model can achieve.
    """
    e_ab = _as_mean(correlation(a, b))
    e_ac = _as_mean(correlation(a, c))
    e_bc = _as_mean(correlation(b, c))
    lhs = abs(e_ab - e_ac)
    rhs = 1.0 + e_bc
    return BellTestResult(lhs=lhs, rhs=rhs, violated=lhs > rhs)
