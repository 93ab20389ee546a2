import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mottbox import bell, numerics
from mottbox.bell import (
    MAX_TRIALS,
    ApparatusSetting,
    CorrelationEstimate,
    HiddenVariable,
    PolarizedState,
    bell_test,
    correlation_mc,
    correlation_quantum,
    epr_trial,
    response,
)
from mottbox.numerics import RngStream, unit

from forks import assert_no_child_left, on_cpus
from oracles import correlation_mc_products, response_batch, std_error_mpmath, trial_products, ulps_from

X = ApparatusSetting([1.0, 0.0, 0.0])
Y = ApparatusSetting([0.0, 1.0, 0.0])
Z = ApparatusSetting([0.0, 0.0, 1.0])
DIAG_XY = ApparatusSetting(unit([1.0, 1.0, 0.0]))  # pi/4 from X, pi/4 from Y
MINUS_X = ApparatusSetting([-1.0, 0.0, 0.0])

# one trial (std_error 0), a few, and sizes around one and two draw blocks
# (2^15 trials) and ending part-way into a block, up to 10^6 + 3
ORACLE_SIZES = (
    1, 2, 7, 8, 9, 127, 128, 129, 2**15 - 1, 2**15, 2**15 + 1,
    2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5, 10**6 + 3,
)


def random_direction(rng):
    return unit(rng.standard_normal(3))


def test_hidden_variable_range():
    HiddenVariable(0.0)
    HiddenVariable(0.999999)
    with pytest.raises(ValueError):
        HiddenVariable(1.0)
    with pytest.raises(ValueError):
        HiddenVariable(-0.1)


def test_polarized_state_validation():
    with pytest.raises(ValueError):
        PolarizedState(axis=[1.0, 1.0, 0.0], sign=1)
    with pytest.raises(ValueError):
        PolarizedState(axis=[1.0, 0.0, 0.0], sign=0)


def test_measurement_along_polarization_axis_is_reproducible():
    for lam in (0.0, 0.1, 0.5, 0.9, 0.9999999):
        hv = HiddenVariable(lam)
        assert response(PolarizedState(X.orientation, +1), X, hv) == 1
        assert response(PolarizedState(X.orientation, -1), X, hv) == -1


def test_response_orthogonal_threshold():
    up_z = PolarizedState(Z.orientation, +1)
    # threshold is cos^2(pi/4) = 1/2 for orthogonal directions
    assert response(up_z, X, HiddenVariable(0.3)) == 1
    assert response(up_z, X, HiddenVariable(0.7)) == -1


def test_response_tie_goes_to_minus():
    # lam exactly at the threshold: strict < assigns the opposite sign
    up_z = PolarizedState(Z.orientation, +1)
    assert response(up_z, X, HiddenVariable(0.5)) == -1
    down_z = PolarizedState(Z.orientation, -1)
    assert response(down_z, X, HiddenVariable(0.5)) == 1


def test_response_is_pure():
    state = PolarizedState(unit([0.3, -0.2, 0.5]), -1)
    setting = ApparatusSetting(unit([1.0, 2.0, -1.0]))
    hv = HiddenVariable(0.42)
    first = response(state, setting, hv)
    assert all(response(state, setting, hv) == first for _ in range(10))


def test_response_batch_matches_scalar():
    state = PolarizedState(unit([0.3, -0.2, 0.5]), +1)
    setting = ApparatusSetting(unit([-1.0, 0.4, 2.0]))
    lams = RngStream(5, 0).uniform(size=2000)
    batch = response_batch(state, setting, lams)
    for lam, expected in zip(lams[:200], batch[:200]):
        assert response(state, setting, HiddenVariable(lam)) == expected


def test_response_mean_orthogonal_is_zero():
    lams = RngStream(11, 0).uniform(size=1_000_000)
    mean = response_batch(PolarizedState(Z.orientation, +1), X, lams).mean()
    assert abs(mean) < 4e-3


def test_response_constraint_sweep():
    # uniform average of the response equals sign * (axis . orientation)
    rng = np.random.default_rng(314)
    for case in range(100):
        axis = random_direction(rng)
        orientation = random_direction(rng)
        sign = 1 if case % 2 == 0 else -1
        state = PolarizedState(axis, sign)
        setting = ApparatusSetting(orientation)
        lams = RngStream(1000, case).uniform(size=1_000_000)
        mean = response_batch(state, setting, lams).mean()
        assert mean == pytest.approx(sign * float(np.dot(axis, orientation)), abs=4e-3)


def test_epr_trial_perfect_anticorrelation():
    for lam1 in (0.0, 0.25, 0.5, 0.75):
        for lam2 in (0.0, 0.3, 0.6, 0.99):
            r1, r2 = epr_trial(X, X, HiddenVariable(lam1), HiddenVariable(lam2))
            assert r1 * r2 == -1


def test_epr_trial_first_outcome_threshold():
    _, _ = epr_trial(X, Y, HiddenVariable(0.2), HiddenVariable(0.5))
    assert epr_trial(X, Y, HiddenVariable(0.2), HiddenVariable(0.5))[0] == 1
    assert epr_trial(X, Y, HiddenVariable(0.9), HiddenVariable(0.5))[0] == -1


def test_epr_trial_never_reads_other_apparatus_variable():
    # r1 depends only on hv1; r2 only on (a, b, hv1-through-collapse, hv2)
    for lam2 in (0.0, 0.5, 0.99):
        assert epr_trial(X, Y, HiddenVariable(0.2), HiddenVariable(lam2))[0] == 1


def test_trial_products_matches_epr_trial_loop():
    u = RngStream(21, 0).uniform(size=(2000, 2))
    products = trial_products(X, DIAG_XY, u[:, 0], u[:, 1])
    for i in range(2000):
        r1, r2 = epr_trial(X, DIAG_XY, HiddenVariable(u[i, 0]), HiddenVariable(u[i, 1]))
        assert products[i] == r1 * r2


def test_orthogonal_product_mean_is_zero():
    u = RngStream(31, 0).uniform(size=(1_000_000, 2))
    mean = trial_products(X, Y, u[:, 0], u[:, 1]).mean()
    assert abs(mean) < 4e-3


def test_correlation_mc_quarter_turn():
    est = correlation_mc(X, DIAG_XY, 1_000_000, RngStream(42, 1))
    assert abs(est.mean - (-np.sqrt(2) / 2)) < 4 * est.std_error
    assert est.n_trials == 1_000_000


def test_correlation_mc_equal_settings_exact():
    est = correlation_mc(X, X, 10_000, RngStream(42, 2))
    assert est.mean == -1.0
    assert est.std_error == 0.0


def test_correlation_mc_orthogonal():
    est = correlation_mc(X, Y, 1_000_000, RngStream(42, 3))
    assert abs(est.mean) < 4 * est.std_error


def test_correlation_mc_rejects_zero_trials():
    with pytest.raises(ValueError):
        correlation_mc(X, Y, 0, RngStream(1, 0))


def test_correlation_mc_rejects_trials_above_guard(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("words were drawn above the trial guard")

    monkeypatch.setattr(numerics.RngStream, "uniform", forbidden)
    monkeypatch.setattr(numerics.RngStream, "raw_words", forbidden)
    with pytest.raises(ValueError, match="n_trials must lie in"):
        correlation_mc(X, Y, MAX_TRIALS + 1, RngStream(1, 0))


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_correlation_mc_bit_equal_to_array_oracle(n):
    # the README pairs (a, b), (a, c), (b, c), then every product -1 and every product +1.
    # An equal mean means an equal count of -1 products; std_error is within 2 ulp of exact
    pairs = [(X, DIAG_XY), (X, Y), (DIAG_XY, Y), (X, X), (X, MINUS_X)]
    for seed in (1, 2, 3):
        for stream_id, (a, b) in enumerate(pairs):
            got = correlation_mc(a, b, n, RngStream(seed, stream_id))
            products = correlation_mc_products(a, b, n, RngStream(seed, stream_id))
            assert got.mean.hex() == float(products.mean()).hex()
            assert ulps_from(got.std_error, std_error_mpmath(products)) <= 2.0
    assert correlation_mc(X, X, n, RngStream(1, 0)) == CorrelationEstimate(-1.0, 0.0, n)
    assert correlation_mc(X, MINUS_X, n, RngStream(1, 0)) == CorrelationEstimate(1.0, 0.0, n)


def uniform_below(word: int, t: float) -> bool:
    # numpy's uniform of the word, compared as bell.response compares it
    return (word >> 11) * 2.0**-53 < t


def assert_word_limit_exact(t):
    limit = bell._word_limit(t)
    words = {0, 2**64 - 1} | {w for w in (limit - 1, limit, limit + 1) if 0 <= w < 2**64}
    for w in words:
        assert uniform_below(w, t) == (w <= limit), (t.hex(), w)


@pytest.mark.parametrize("t", [0.0, 1.0, 0.5, 3 * 2.0**-53, 1 - 2.0**-53, 0.25 + 2.0**-53])
def test_word_limit_is_the_uniform_threshold(t):
    # at t = 0 no word is below and at t = 1 every word is; t * 2^53 integral,
    # and the doubles either side of each t
    for s in (np.nextafter(t, -1.0), t, np.nextafter(t, 2.0)):
        if 0.0 <= s <= 1.0:
            assert_word_limit_exact(float(s))
    assert bell._word_limit(0.0) == -1
    assert bell._word_limit(1.0) == 2**64 - 1


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1.0), st.integers(0, 2**64 - 1))
@example(math.sqrt(0.5), 0)
def test_word_limit_sweep(t, word):
    assert uniform_below(word, t) == (word <= bell._word_limit(t))
    assert_word_limit_exact(t)


def test_correlation_mc_memory_does_not_grow_with_trials():
    # one 512 KiB block of words and its mask; one (n, 2) array of uniforms
    # alone is 160 MB, and a bit per trial 1.25 MB
    tracemalloc.start()
    try:
        correlation_mc(X, DIAG_XY, 10_000_000, RngStream(3, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_correlation_mc_deterministic():
    a = correlation_mc(X, DIAG_XY, 50_000, RngStream(9, 9))
    b = correlation_mc(X, DIAG_XY, 50_000, RngStream(9, 9))
    assert a.mean == b.mean and a.std_error == b.std_error


def serial_estimate(a, b, n, rng):
    """correlation_mc on one CPU: n_- over consecutive blocks of one stream."""
    limit = bell._word_limit(bell._plus_threshold(a.orientation, b.orientation))
    n_minus = 0
    if limit >= 0:
        for start in range(0, n, bell.BLOCK_TRIALS):
            words = rng.raw_words(2 * min(bell.BLOCK_TRIALS, n - start))
            n_minus += int(np.count_nonzero(words[1::2] <= np.uint64(limit)))
    std_error = 2.0 * math.sqrt(n_minus * (n - n_minus) / ((n - 1) * n)) / math.sqrt(n) if n > 1 else 0.0
    return CorrelationEstimate((n - 2 * n_minus) / n, std_error, n)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("n, span_trials", [
    (2**20, 2**20), (2**20 + 1, 2**20), (3 * 2**20 + 12345, 2**20),  # at most one span below 2^20 + 1
    (1, 2**10), (2**15 + 1, 2**10), (5 * 2**15 + 7, 2**15), (10**5, 3 * 2**15 - 5),  # patched spans
])
def test_correlation_mc_on_every_cpu_bit_equal_to_the_serial_block_loop(monkeypatch, cpus, n, span_trials):
    # a threshold inside (0, 1), every word below it and none; the stream ends where the loop leaves it,
    # also from a stream that holds words of its last counter step
    monkeypatch.setattr(bell, "SPAN_TRIALS", span_trials)
    forks = on_cpus(monkeypatch, cpus)
    for a, b in ((X, DIAG_XY), (X, X), (X, MINUS_X)):
        for drawn in (0, 3):
            got, want = RngStream(8, 1), RngStream(8, 1)
            got.raw_words(drawn), want.raw_words(drawn)
            assert correlation_mc(a, b, n, got) == serial_estimate(a, b, n, want)
            assert np.array_equal(got.raw_words(5), want.raw_words(5))
    spans = min(cpus, -(-n // span_trials))  # below 2^15 trials a span, some spans hold no block
    assert len(forks) == 2 * 2 * (spans - 1)  # limit = -1 draws nothing and forks nothing
    assert_no_child_left()


def test_correlation_mc_forks_no_worker_up_to_2_20_trials(monkeypatch):
    forks = on_cpus(monkeypatch, 3)
    for n in (1, 10**6, 2**20):
        correlation_mc(X, DIAG_XY, n, RngStream(2, 0))
    assert not forks
    correlation_mc(X, DIAG_XY, 2**20 + 1, RngStream(2, 0))
    assert len(forks) == 1
    assert_no_child_left()


def test_bell_worker_that_ends_without_its_count_raises_runtime_error(monkeypatch):
    parent, skip = os.getpid(), RngStream.skip

    def skip_or_end(stream, words):
        if os.getpid() != parent:
            os._exit(1)
        skip(stream, words)

    on_cpus(monkeypatch, 2)
    monkeypatch.setattr(numerics.RngStream, "skip", skip_or_end)
    with pytest.raises(RuntimeError, match="^a Bell worker ended without sending its count$"):
        correlation_mc(X, DIAG_XY, 2**21, RngStream(2, 0))
    assert_no_child_left()


def test_bell_interrupt_in_the_caller_mid_run_leaves_no_worker(monkeypatch):
    # the caller stops at its third block while two workers count theirs
    parent, raw_words, calls = os.getpid(), RngStream.raw_words, []

    def interrupted(stream, size):
        if os.getpid() == parent:
            calls.append(1)
            if len(calls) == 3:
                raise KeyboardInterrupt("interrupted")
        return raw_words(stream, size)

    forks = on_cpus(monkeypatch, 3)
    monkeypatch.setattr(numerics.RngStream, "raw_words", interrupted)
    with pytest.raises(KeyboardInterrupt, match="interrupted"):
        correlation_mc(X, DIAG_XY, 3 * 2**20 + 12345, RngStream(2, 0))
    assert len(forks) == 2 and len(calls) == 3
    assert_no_child_left()


def test_correlation_mc_matches_quantum_on_random_pairs():
    rng = np.random.default_rng(2718)
    for case in range(10):
        a = ApparatusSetting(random_direction(rng))
        b = ApparatusSetting(random_direction(rng))
        est = correlation_mc(a, b, 200_000, RngStream(50, case))
        assert abs(est.mean - correlation_quantum(a, b)) < 4 * max(est.std_error, 1e-12)


def test_marginal_fairness():
    # first outcome is +1 half the time, within 3 binomial sigmas
    n = 1_000_000
    u = RngStream(77, 0).uniform(size=(n, 2))
    r1 = np.where(u[:, 0] < 0.5, 1, -1)
    freq = np.mean(r1 == 1)
    assert abs(freq - 0.5) < 3 * 0.5 / np.sqrt(n)


def test_correlation_quantum_values():
    assert correlation_quantum(X, X) == -1.0
    assert correlation_quantum(X, Y) == 0.0
    assert correlation_quantum(X, DIAG_XY) == pytest.approx(-np.sqrt(2) / 2, abs=1e-15)


def test_bell_test_quantum_violation():
    result = bell_test(X, DIAG_XY, Y, correlation_quantum)
    assert result.lhs == pytest.approx(0.7071067811865476, abs=1e-12)
    assert result.rhs == pytest.approx(0.2928932188134524, abs=1e-12)
    assert result.violated


def test_bell_test_degenerate_directions():
    result = bell_test(X, X, X, correlation_quantum)
    assert result.lhs == 0.0
    assert result.rhs == 0.0
    assert not result.violated


def test_bell_test_monte_carlo_violation():
    rng = RngStream(4242, 0)
    streams = iter(range(1, 10))

    def correlation(a, b):
        return correlation_mc(a, b, 1_000_000, rng.substream(next(streams)))

    result = bell_test(X, DIAG_XY, Y, correlation)
    assert result.violated
    assert result.lhs - result.rhs == pytest.approx(0.41421356237309515, abs=0.01)


def test_correlation_estimate_validation():
    with pytest.raises(ValueError):
        CorrelationEstimate(mean=1.5, std_error=0.0, n_trials=10)
    with pytest.raises(ValueError):
        CorrelationEstimate(mean=0.0, std_error=-1.0, n_trials=10)
