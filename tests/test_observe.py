import numpy as np
import pytest

from mixprofile import InvalidParameterError, expected_departures
from mixprofile.observe import BLOCK, departure_blocks

from conftest import make_trace


def convolution_matrix(alpha, rho):
    """Lower-triangular ``B`` with ``B[r, k] = alpha*(1-alpha)**(r-k)``: the O(rho**2) oracle.

    ``B @ x`` turns a per-round arrival vector into per-round expected
    departures; ``expected_departures`` must agree with it.
    """
    lag = np.arange(rho)[:, None] - np.arange(rho)[None, :]
    return np.where(lag >= 0, alpha * (1.0 - alpha) ** np.maximum(lag, 0), 0.0)


class TestConvolutionMatrix:
    def test_identity_at_alpha_one(self):
        np.testing.assert_array_equal(convolution_matrix(1.0, 3), np.eye(3))

    def test_alpha_half_entries(self):
        expected = np.array([[0.5, 0, 0], [0.25, 0.5, 0], [0.125, 0.25, 0.5]])
        np.testing.assert_allclose(convolution_matrix(0.5, 3), expected, rtol=1e-15)

    def test_row_sums_are_geometric_partial_sums(self):
        b = convolution_matrix(0.5, 3)
        np.testing.assert_allclose(b.sum(axis=1), [0.5, 0.75, 0.875], rtol=1e-15)
        # general identity: 1 - (1 - alpha)**r
        b = convolution_matrix(0.3, 20)
        np.testing.assert_allclose(
            b.sum(axis=1), 1 - 0.7 ** np.arange(1, 21), rtol=1e-12
        )

    def test_toeplitz_columns_are_shifted_copies(self):
        b = convolution_matrix(0.37, 12)
        for k in range(1, 12):
            np.testing.assert_array_equal(b[k:, k], b[: 12 - k, 0])


def pool_trace_from_counts(U, alpha, m=0, pool_prior=None):
    # Y content is irrelevant for expected departures; conservation only
    U = np.asarray(U)
    Y = np.zeros_like(U)
    return make_trace(U, Y, kind="binomial_pool", alpha=alpha, m=m, pool_prior=pool_prior)


class TestExpectedDepartures:
    def test_hand_unrolled_recursion(self):
        # sender 0 submits 2, 0, 4 messages across the three rounds
        trace = pool_trace_from_counts([[2, 2], [0, 4], [4, 0]], alpha=0.5)
        u_hat = expected_departures(trace).U_hat
        np.testing.assert_allclose(u_hat[:, 0], [1.0, 0.5, 2.25], rtol=1e-14)

    def test_threshold_limit_is_exact(self):
        trace = pool_trace_from_counts([[2, 1], [1, 2], [3, 0]], alpha=1.0)
        np.testing.assert_array_equal(expected_departures(trace).U_hat, trace.U)

    def test_initial_pool_contribution(self):
        trace = pool_trace_from_counts(
            [[0, 2], [0, 2]], alpha=0.5, m=10, pool_prior=np.array([0.2, 0.8])
        )
        u_hat = expected_departures(trace).U_hat
        np.testing.assert_allclose(u_hat[:, 0], [1.0, 0.5], rtol=1e-14)

    def test_recursion_agrees_with_matrix_form(self):
        rng = np.random.default_rng(7)
        for alpha in (0.2, 0.55, 0.9):
            t = 6
            counts = rng.multinomial(t, np.full(4, 0.25), size=30)
            prior = rng.dirichlet(np.ones(4))
            trace = pool_trace_from_counts(counts, alpha=alpha, m=8, pool_prior=prior)
            u_hat = expected_departures(trace).U_hat
            b = convolution_matrix(alpha, 30)
            n0 = np.zeros((30, 4))
            n0[0] = 8 * prior
            np.testing.assert_allclose(u_hat, b @ (trace.U + n0), atol=1e-10)

    def test_entries_non_negative(self):
        rng = np.random.default_rng(3)
        counts = rng.multinomial(5, np.full(3, 1 / 3), size=50)
        trace = pool_trace_from_counts(counts, alpha=0.4)
        assert np.all(expected_departures(trace).U_hat >= 0)

    def test_expected_mass_never_exceeds_arrivals(self):
        # with an empty initial pool some mass always remains pooled
        rng = np.random.default_rng(4)
        counts = rng.multinomial(6, np.full(4, 0.25), size=80)
        trace = pool_trace_from_counts(counts, alpha=0.35)
        u_hat = expected_departures(trace).U_hat
        assert np.all(u_hat.sum(axis=0) <= trace.U.sum(axis=0) + 1e-12)

    def test_missing_prior_is_an_error(self):
        trace = pool_trace_from_counts([[1, 1]], alpha=0.5, m=3, pool_prior=None)
        with pytest.raises(InvalidParameterError):
            expected_departures(trace)

    def test_prior_of_the_wrong_length_is_an_error(self):
        trace = pool_trace_from_counts([[1, 1]], alpha=0.5, m=3, pool_prior=np.full(3, 1 / 3))
        with pytest.raises(InvalidParameterError, match="length"):
            expected_departures(trace)


class TestBlockedRecursion:
    """``expected_departures`` runs in blocks of ``BLOCK`` rounds; lengths around
    the block edges must agree with the matrix-form oracle."""

    @pytest.mark.parametrize("rho", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    @pytest.mark.parametrize("alpha", [0.05, 0.5, 1.0])
    def test_agrees_with_matrix_form_across_block_edges(self, rho, alpha):
        rng = np.random.default_rng(rho)
        counts = rng.multinomial(6, np.full(5, 0.2), size=rho)
        prior = rng.dirichlet(np.ones(5))
        trace = pool_trace_from_counts(counts, alpha=alpha, m=9, pool_prior=prior)
        n0 = np.zeros((rho, 5))
        n0[0] = 9 * prior
        expected = convolution_matrix(alpha, rho) @ (trace.U + n0)
        np.testing.assert_allclose(expected_departures(trace).U_hat, expected, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("rho", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_alpha_one_is_bit_identical(self, rho):
        rng = np.random.default_rng(rho)
        counts = rng.multinomial(6, np.full(5, 0.2), size=rho)
        trace = pool_trace_from_counts(counts, alpha=1.0)
        np.testing.assert_array_equal(expected_departures(trace).U_hat, trace.U)


class TestDepartureBlocks:
    """``departure_blocks`` streams ``U_hat``; glued back together its blocks are the
    whole-trace ``U_hat``, bit for bit when their size is a multiple of ``BLOCK``."""

    @pytest.mark.parametrize("rows", [1, 5, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 100])
    @pytest.mark.parametrize("kind, alpha, m", [("threshold", 1.0, 0),
                                                ("binomial_pool", 0.3, 9),
                                                ("binomial_pool", 0.8, 0)])
    def test_blocks_glue_into_the_whole(self, rows, kind, alpha, m):
        rng = np.random.default_rng(rows)
        counts = rng.multinomial(6, np.full(5, 0.2), size=3 * BLOCK + 5)
        prior = rng.dirichlet(np.ones(5)) if m else None
        if kind == "threshold":
            trace = make_trace(counts, counts)
        else:
            trace = pool_trace_from_counts(counts, alpha=alpha, m=m, pool_prior=prior)
        blocks = list(departure_blocks(trace, rows))
        assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
        glued, whole = np.concatenate(blocks), expected_departures(trace).U_hat
        if rows % BLOCK == 0 or alpha == 1.0:
            np.testing.assert_array_equal(glued, whole)
        else:
            np.testing.assert_allclose(glued, whole, rtol=1e-13, atol=0)

    def test_missing_prior_raises_before_the_first_block(self):
        trace = pool_trace_from_counts([[1, 1]], alpha=0.5, m=3, pool_prior=None)
        with pytest.raises(InvalidParameterError):
            next(departure_blocks(trace, 1))
