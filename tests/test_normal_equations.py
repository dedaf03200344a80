"""Property tests of the normal-equations accumulator the least-squares attacks share."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mixprofile import InvalidParameterError, NormalEquations, expected_departures, lsda
from mixprofile import estimators
from mixprofile.observe import BLOCK

from conftest import make_trace, random_trace

PROPERTY = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def traces(draw, kinds=("threshold", "binomial_pool")):
    """A small simulated trace whose Gram matrix is well conditioned."""
    kind = draw(st.sampled_from(kinds))
    alpha = draw(st.sampled_from((0.3, 0.6, 0.9))) if kind == "binomial_pool" else 1.0
    n_users = draw(st.integers(2, 7))
    _, trace = random_trace(
        n_users=n_users,
        t=draw(st.integers(2, 5)),
        rho=draw(st.integers(4 * n_users, 60)),
        seed=draw(st.integers(0, 10_000)),
        kind=kind,
        alpha=alpha,
    )
    assume(np.linalg.cond(NormalEquations.from_trace(trace).gram) < 1e6)
    return trace


def accumulate(trace, cuts):
    """The accumulator fed the trace's design rows split at ``cuts``."""
    a = expected_departures(trace).U_hat
    eq = NormalEquations(trace.n_senders, trace.n_receivers)
    bounds = [0, *sorted(set(cuts)), trace.rho]
    for lo, hi in zip(bounds, bounds[1:]):
        eq.update(a[lo:hi], trace.Y[lo:hi])
    return eq


@PROPERTY
@given(trace=traces(), data=st.data())
def test_any_block_split_gives_the_same_statistics(trace, data):
    cuts = data.draw(st.lists(st.integers(1, trace.rho - 1), max_size=6))
    whole = NormalEquations.from_trace(trace)
    split = accumulate(trace, cuts)
    assert split.rounds == whole.rounds == trace.rho
    if trace.config.kind == "threshold":
        # integer design rows: every partial sum is exact
        np.testing.assert_array_equal(split.gram, whole.gram)
        np.testing.assert_array_equal(split.cross, whole.cross)
        np.testing.assert_array_equal(split.solve(), whole.solve())
        assert split.y_sq == whole.y_sq
    else:
        np.testing.assert_allclose(split.solve(), whole.solve(), rtol=0, atol=1e-10)
        p = whole.solve()
        assert split.residual(p) == pytest.approx(whole.residual(p), rel=1e-10, abs=1e-10)


@PROPERTY
@given(trace=traces(kinds=("threshold",)), data=st.data())
def test_lsda_is_invariant_under_round_permutation(trace, data):
    perm = data.draw(st.permutations(range(trace.rho)))
    shuffled = make_trace(trace.U[perm], trace.Y[perm])
    np.testing.assert_array_equal(lsda(shuffled).P_hat, lsda(trace).P_hat)


@PROPERTY
@given(trace=traces(kinds=("threshold",)), data=st.data())
def test_lsda_is_equivariant_under_user_permutation(trace, data):
    senders = np.array(data.draw(st.permutations(range(trace.n_senders))))
    receivers = np.array(data.draw(st.permutations(range(trace.n_receivers))))
    relabelled = make_trace(trace.U[:, senders], trace.Y[:, receivers])
    expected = lsda(trace).P_hat[np.ix_(senders, receivers)]
    np.testing.assert_allclose(lsda(relabelled).P_hat, expected, rtol=1e-10,
                               atol=1e-10 * np.abs(expected).max())


@PROPERTY
@given(trace=traces(), block=st.integers(1, 16))
def test_any_block_size_solves_as_the_whole_trace(trace, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "RLS_BLOCK", block)
        streamed = NormalEquations.from_trace(trace)
    assert streamed.rounds == trace.rho
    np.testing.assert_allclose(streamed.solve(), whole_trace_statistics(trace).solve(), rtol=0,
                               atol=1e-10)


def test_residual_matches_full_height_form():
    _, trace = random_trace(n_users=8, t=4, rho=200, seed=3, kind="binomial_pool", alpha=0.5)
    eq = NormalEquations.from_trace(trace)
    p = eq.solve()
    a = expected_departures(trace).U_hat
    direct = float(np.sum((trace.Y - a @ p) ** 2))
    assert eq.residual(p) == pytest.approx(direct, rel=1e-9)
    assert lsda(trace).residual == eq.residual(p)


def test_residual_is_clamped_at_zero():
    # near an exact fit the Gram form can round below zero
    eq = NormalEquations(1, 1)
    eq.update([[1.0]], [[1.0]])
    eq.y_sq -= 1e-12
    assert eq.residual(eq.solve()) == 0.0


def test_single_row_is_a_block_of_height_one():
    _, trace = random_trace(n_users=5, t=3, rho=40, seed=8)
    eq = NormalEquations(trace.n_senders, trace.n_receivers)
    for r in range(trace.rho):
        eq.update(trace.U[r], trace.Y[r])
    np.testing.assert_array_equal(eq.gram, NormalEquations.from_trace(trace).gram)


@pytest.mark.parametrize("a_rows, y_rows", [
    (np.ones((5, 3)), np.ones((4, 4))),  # the parts differ in rows
    (np.ones((4, 2)), np.ones((4, 4))),  # design rows of the wrong width
    (np.ones((4, 3)), np.ones((4, 5))),  # Y rows of the wrong width
])
def test_a_block_that_does_not_fit_changes_nothing(a_rows, y_rows):
    eq = NormalEquations(3, 4)
    eq.update(np.ones((2, 3)), np.full((2, 4), 2.0))
    before = (eq.gram.copy(), eq.cross.copy(), eq.y_sq, eq.rounds)
    with pytest.raises(InvalidParameterError, match="does not fit"):
        eq.update(a_rows, y_rows)
    np.testing.assert_array_equal(eq.gram, before[0])
    np.testing.assert_array_equal(eq.cross, before[1])
    assert (eq.y_sq, eq.rounds) == before[2:]


def whole_trace_statistics(trace):
    """The statistics of the trace added as one block of ``U_hat`` and ``Y``."""
    eq = NormalEquations(trace.n_senders, trace.n_receivers)
    eq.update(expected_departures(trace).U_hat, trace.Y)
    return eq


#: rounds per streamed block: any from 1 to past the default of 1,024, and the sizes
#: around the recursion's sub-blocks
STREAM_BLOCKS = st.integers(1, 1100) | st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 1024])


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(block=STREAM_BLOCKS, kind=st.sampled_from(["threshold", "binomial_pool"]), data=st.data())
def test_streamed_statistics_match_one_whole_block(block, kind, data):
    # at least two blocks, so a pool trace carries a row across each boundary
    rho = data.draw(st.integers(block + 1, min(max(3 * block, 200), 2500)))
    pool = kind == "binomial_pool"
    _, trace = random_trace(n_users=5, t=4, rho=rho, seed=data.draw(st.integers(0, 10_000)),
                            kind=kind, alpha=0.3 if pool else 1.0, m=7 if pool else 0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "RLS_BLOCK", block)
        streamed = NormalEquations.from_trace(trace)
    whole = whole_trace_statistics(trace)
    assert streamed.rounds == whole.rounds == rho
    assert streamed.y_sq == whole.y_sq
    if pool:
        # every term is non-negative, so each entry is within rounding of its sum
        np.testing.assert_allclose(streamed.gram, whole.gram, rtol=1e-12, atol=0)
        np.testing.assert_allclose(streamed.cross, whole.cross, rtol=1e-12, atol=0)
    else:
        np.testing.assert_array_equal(streamed.gram, whole.gram)
        np.testing.assert_array_equal(streamed.cross, whole.cross)


def test_streamed_build_holds_no_float_copy_of_the_trace():
    _, trace = random_trace(n_users=100, t=10, rho=20_000, seed=5, kind="binomial_pool",
                            alpha=0.5, m=10)
    float_copy = trace.U.size * 8  # 16 MB
    tracemalloc.start()
    try:
        NormalEquations.from_trace(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < float_copy / 4
