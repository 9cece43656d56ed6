"""VectorRateEstimator is bit-for-bit a WindowedRateEstimator.

The vectorised estimator folds its Python-list sample tail into flat numpy
arrays with a prefix-sum every ``_FOLD`` appends, expires whole prefixes
with a ``searchsorted`` instead of a scalar walk, and keeps the router's
inline append sites unchanged.  Exact equality everywhere: window sums are
integer byte counts (int64 prefix sums are exact) and the span arithmetic
is the deque estimator's expression, so there are **no tolerances** in this
file.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cellular.estimators import VectorRateEstimator
from repro.simulator.estimators import WindowedRateEstimator


def _pair(window):
    """The deque reference and the vectorised estimator under test."""
    return (WindowedRateEstimator(window=window),
            VectorRateEstimator(window=window))


# ------------------------------------------------------------- randomized
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("window", [0.04, 0.5])
def test_vector_matches_deque_and_batched(seed, window):
    rng = random.Random(f"vector-estimator-{seed}-{window}")
    deque_est, vec_est = _pair(window)
    now = 0.0
    for _ in range(6000):
        now += rng.expovariate(2000.0)
        size = rng.randrange(40, 1600)
        for est in (deque_est, vec_est):
            est.add(now, size)
        if rng.random() < 0.3:
            at = now + rng.random() * 0.01
            assert vec_est.rate_bps(at) == deque_est.rate_bps(at)
    assert vec_est.rate_bps(now) == deque_est.rate_bps(now)
    assert vec_est.folds > 0, (
        "6000 appends never triggered a fold; the vectorised path went "
        "untested")


def test_vector_matches_at_ack_burst_cadence():
    """The router's real cadence: bursts of same-timestamp ACK-clocked
    samples, rate read once per measurement interval."""
    rng = random.Random("burst-cadence")
    deque_est, vec_est = _pair(0.05)
    now = 0.0
    for _ in range(400):
        now += rng.expovariate(200.0)
        for _ in range(rng.randrange(1, 12)):        # one dequeue burst
            deque_est.add(now, 1500)
            vec_est.add(now, 1500)
        if rng.random() < 0.5:                        # interval boundary
            assert vec_est.rate_bps(now) == deque_est.rate_bps(now)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=50.0),
                          st.integers(min_value=1, max_value=100_000)),
                min_size=1, max_size=300),
       st.floats(min_value=1e-3, max_value=5.0))
def test_vector_matches_on_arbitrary_histories(samples, window):
    deque_est, vec_est = _pair(window)
    last = 0.0
    for t, size in sorted(samples):
        deque_est.add(t, size)
        vec_est.add(t, size)
        last = t
    for at in (last, last + window / 2, last + 2 * window):
        assert vec_est.rate_bps(at) == deque_est.rate_bps(at)


# ------------------------------------------------------------- fold edges
def test_fold_boundary_expiry_is_exact():
    """Expiry cutting through the folded region, exactly at a folded sample
    time, and past the end of the folded region all agree with the deque
    reference."""
    fold = VectorRateEstimator._FOLD
    deque_est, vec_est = _pair(1.0)
    for i in range(3 * fold):                         # three folds' worth
        t = i * 0.01
        deque_est.add(t, 100 + i)
        vec_est.add(t, 100 + i)
        vec_est.rate_bps(t)                           # fold opportunities
    assert vec_est.folds >= 2
    for at in (3 * fold * 0.01, 1.0 + 0.01 * fold,    # cut mid-folded
               1.0 + 0.01 * fold + 0.005,             # cut between samples
               100.0):                                # everything expired
        assert vec_est.rate_bps(at) == deque_est.rate_bps(at)


def test_fully_expired_window_matches():
    deque_est, vec_est = _pair(0.1)
    for i in range(2 * VectorRateEstimator._FOLD):
        deque_est.add(i * 0.001, 500)
        vec_est.add(i * 0.001, 500)
    vec_est.rate_bps(0.3)                             # forces the fold path
    assert vec_est.rate_bps(10.0) == deque_est.rate_bps(10.0)
    assert vec_est.rate_bps(10.0) == 0.0


def test_unread_estimator_never_folds():
    """Folding happens inside rate_bps, so an estimator that is only ever
    appended to (the enqueue-side estimator in dequeue-basis runs) keeps the
    plain-list memory behaviour."""
    vec = VectorRateEstimator(window=0.05)
    for i in range(20 * VectorRateEstimator._FOLD):
        vec.add(i * 0.001, 1500)
    assert vec.folds == 0


def test_reset_clears_folded_state():
    deque_est, vec_est = _pair(0.5)
    for i in range(2 * VectorRateEstimator._FOLD):
        vec_est.add(i * 0.01, 777)
    vec_est.rate_bps(1.0)
    vec_est.reset()
    deque_est.reset()
    assert vec_est.rate_bps(2.0) == deque_est.rate_bps(2.0) == 0.0
    for est in (deque_est, vec_est):
        est.add(5.0, 1000)
    assert vec_est.rate_bps(5.1) == deque_est.rate_bps(5.1)
