"""Property tests of the normal-equations accumulator the least-squares attacks share."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mixprofile import NormalEquations, lsda, rls
from mixprofile import estimators

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
    a = estimators.expected_departures(trace).U_hat
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
@given(trace=traces(), block=st.integers(1, 16))
def test_rls_equals_lsda(trace, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "RLS_BLOCK", block)
        streamed = rls(trace)
    batch = lsda(trace)
    assert streamed.iterations == trace.rho
    np.testing.assert_allclose(streamed.P_hat, batch.P_hat, rtol=0, atol=1e-10)


def test_residual_matches_full_height_form():
    _, trace = random_trace(n_users=8, t=4, rho=200, seed=3, kind="binomial_pool", alpha=0.5)
    eq = NormalEquations.from_trace(trace)
    p = eq.solve()
    a = estimators.expected_departures(trace).U_hat
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
