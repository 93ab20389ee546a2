"""Deterministic apparatus-internal-variable model of the two-spin singlet
experiment: every measurement outcome is a pure function of the measured
state, the apparatus orientation and the apparatus internal variable, yet the
ensemble statistics reproduce the quantum singlet correlation -a.b and
therefore violate the three-direction Bell inequality."""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Union

import numpy as np

from .numerics import Frozen, FrozenValue, RngStream, require_unit

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

# largest n_trials correlation_mc accepts.  One setting pair, in a fresh process
# on a 2-vCPU Xeon VM with AVX-512: 0.75 s at 10^8 trials and 6.4 s at 10^9, each
# at about 37 MB max RSS, which does not grow with n
MAX_TRIALS = 10**9

# trials per raw draw: 512 KiB of Philox words.  At 10^8 trials on that VM, blocks of
# 2^13 to 2^19 trials take 0.60-0.67 s (2^10: 0.83 s); a larger one only holds memory
BLOCK_TRIALS = 2**15


class HiddenVariable(FrozenValue):
    """Internal state of one measurement apparatus, a number in [0, 1)."""

    __slots__ = ("lam",)

    def __init__(self, lam: float):
        if not (0.0 <= lam < 1.0):
            raise ValueError(f"hidden variable must lie in [0, 1), got {lam}")
        super().__init__(lam)


class PolarizedState(Frozen):
    """Spin-1/2 state fully polarized along ``axis`` with sign +1 or -1."""

    __slots__ = ("axis", "sign")

    def __init__(self, axis: np.ndarray, sign: int):
        axis = require_unit(axis)
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        super().__init__(axis, sign)


class ApparatusSetting(Frozen):
    """Measurement orientation of one apparatus."""

    __slots__ = ("orientation",)

    def __init__(self, orientation: np.ndarray):
        super().__init__(require_unit(orientation))


class CorrelationEstimate(FrozenValue):
    """Monte Carlo estimate of the outcome-product correlation."""

    __slots__ = ("mean", "std_error", "n_trials")

    def __init__(self, mean: float, std_error: float, n_trials: int):
        if not (-1.0 <= mean <= 1.0):
            raise ValueError(f"correlation mean must lie in [-1, 1], got {mean}")
        if std_error < 0.0:
            raise ValueError(f"std_error must be non-negative, got {std_error}")
        super().__init__(mean, std_error, n_trials)


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
    calls, so this is the sequence of one ``(n, 2)`` draw), and only the
    count n_- of products -1 is kept.  ``mean`` is bit-equal to
    ``products.mean()``.  The products are +-1, so their sample variance is
    exactly 4 n_- n_+ / (n (n - 1)); ``std_error`` forms it from exact ints in
    four roundings, for a relative error below 3 * 2**-53.
    """
    if not 1 <= n <= MAX_TRIALS:
        raise ValueError(f"n_trials must lie in [1, {MAX_TRIALS}], got {n}")
    limit = _word_limit(_plus_threshold(a.orientation, b.orientation))
    n_minus = 0
    if limit >= 0:
        for start in range(0, n, BLOCK_TRIALS):
            m = min(BLOCK_TRIALS, n - start)
            n_minus += int(np.count_nonzero(rng.raw_words(2 * m)[1::2] <= np.uint64(limit)))
    mean = (n - 2 * n_minus) / n
    if n == 1:
        return CorrelationEstimate(mean=mean, std_error=0.0, n_trials=n)
    std_error = 2.0 * math.sqrt(n_minus * (n - n_minus) / ((n - 1) * n)) / math.sqrt(n)
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
