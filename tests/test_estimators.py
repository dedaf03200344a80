import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mixprofile import (
    InvalidParameterError,
    InvalidScenarioError,
    MixConfig,
    MixProfileError,
    NormalEquations,
    ParseError,
    ProfileEstimate,
    SingularSystemError,
    SolverDivergedError,
    SolverOptions,
    Trace,
    clsda,
    gen_population,
    load_estimate,
    lsda,
    rls,
    save_estimate,
    sda,
    simulate_trace,
    zero_clip,
)
from mixprofile import estimators
from mixprofile.estimators import PROJECT_PREFIX, _project_rows

from conftest import make_trace, random_trace, sda_scenario_trace


def project_simplex_oracle(v, tol=1e-12):
    """Independent oracle: bisection on the shift, w = max(v - theta, 0)."""
    v = np.asarray(v, dtype=float)
    lo, hi = v.min() - 1.0, v.max()
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if np.maximum(v - mid, 0).sum() > 1:
            lo = mid
        else:
            hi = mid
    return np.maximum(v - (lo + hi) / 2, 0)


def project_simplex(v):
    """Euclidean projection of one vector onto the probability simplex."""
    return _project_rows(np.asarray(v, dtype=float)[None, :])[0]


def project_rows_reference(mat):
    """The sort-and-negate formula of the row projection, which ``_project_rows``
    must match bit for bit: the support is the leading run of sorted entries
    above their running threshold."""
    n = mat.shape[1]
    u = -np.sort(-mat, axis=1)
    css = np.cumsum(u, axis=1)
    k = np.arange(1, n + 1)
    above = u - (css - 1.0) / k > 0
    n_pos = np.where(above.all(axis=1), n, above.argmin(axis=1))
    theta = (css[np.arange(mat.shape[0]), n_pos - 1] - 1.0) / n_pos
    return np.maximum(mat - theta[:, None], 0.0)


def project_rows_full_width(mat):
    """The row projection scanning each whole sorted row, which the prefix scan of
    ``_project_rows`` must match bit for bit.

    The support is the leading run of sorted entries above their running
    threshold.  Counting every entry above it instead is not the same: on tied
    rows such as ``[c + 1/j] * j + [c] * (n - j)`` rounding in the running sum
    puts entries past the first failure back above it.
    """
    u = np.sort(mat, axis=1)[:, ::-1]
    shift = np.cumsum(u, axis=1)
    shift -= 1.0
    shift /= np.arange(1, mat.shape[1] + 1)
    above = u > shift
    n_pos = np.where(above.all(axis=1), mat.shape[1], above.argmin(axis=1))
    out = mat - shift[np.arange(mat.shape[0]), n_pos - 1][:, None]
    return np.maximum(out, 0.0, out=out)


def plain_projected_gradient(trace, tol, max_iter=100_000):
    """Reference solver: unaccelerated projected gradient from the uniform start.

    ``P <- proj(P - (G @ P - C) / lambda_max(G))`` until the relative change of
    the iterate is at most ``tol``; returns the iterate and the iteration count.
    """
    eq = NormalEquations.from_trace(trace)
    mu = 1.0 / eq.lambda_max()
    p = np.full(eq.cross.shape, 1.0 / eq.cross.shape[1])
    for iterations in range(1, max_iter + 1):
        p_new = _project_rows(p - mu * (eq.gram @ p - eq.cross))
        step = np.linalg.norm(p_new - p) / np.linalg.norm(p)
        p = p_new
        if step <= tol:
            return p, iterations
    raise AssertionError(f"reference did not reach tol={tol} in {max_iter} iterations")


def small_pool_trace():
    _, trace = random_trace(n_users=12, t=5, rho=400, seed=5, kind="binomial_pool", alpha=0.5, m=5)
    return trace


def zipf_pool_trace():
    """A pool trace whose Zipf sending frequencies make the Gram ill-conditioned."""
    pop = gen_population(12, 4, "zipf", "zipf", seed=5)
    cfg = MixConfig(kind="binomial_pool", t=5, alpha=0.5, m=5, pool_prior=pop.frequencies)
    return simulate_trace(pop, cfg, rho=400, seed=6)


def face_runs(monkeypatch):
    """The supports on which clsda has run conjugate gradient, in order."""
    faces = []
    tangent = estimators._face_tangent

    def spy(x, face):
        if not any(face is seen for seen in faces):
            faces.append(face)
        return tangent(x, face)

    monkeypatch.setattr(estimators, "_face_tangent", spy)
    return faces


def assert_non_increasing(history):
    diffs = np.diff(history)
    assert np.all(diffs <= 1e-9 * (1 + np.abs(history[:-1])))


class TestLsda:
    def test_permutation_trace_solves_exactly(self):
        est = lsda(make_trace(U=[[1, 0], [0, 1]], Y=[[0, 1], [1, 0]]))
        np.testing.assert_allclose(est.P_hat, [[0, 1], [1, 0]], atol=1e-12)

    def test_hand_solved_normal_equations(self):
        # (U^T U)^{-1} = [[1,-1],[-1,5]]/4 and the solve gives the identity
        est = lsda(make_trace(U=[[2, 0], [1, 1]], Y=[[2, 0], [1, 1]]))
        np.testing.assert_allclose(est.P_hat, np.eye(2), atol=1e-12)
        assert est.residual == pytest.approx(0.0, abs=1e-12)

    def test_noise_free_routing_recovers_profiles_exactly(self):
        # deterministic profiles make Y = U P an exact linear system
        rng = np.random.default_rng(5)
        n, rho, t = 6, 40, 4
        perm = rng.permutation(n)
        p = np.zeros((n, n))
        p[np.arange(n), perm] = 1.0
        U = rng.multinomial(t, np.full(n, 1 / n), size=rho)
        trace = make_trace(U, U @ p)
        np.testing.assert_allclose(lsda(trace).P_hat, p, atol=1e-10)

    def test_normal_equation_optimality(self):
        _, trace = random_trace(n_users=15, t=6, rho=300, seed=3)
        est = lsda(trace)
        a = trace.U.astype(float)
        gradient = a.T @ (trace.Y - a @ est.P_hat)
        assert np.max(np.abs(gradient)) <= 1e-8

    def test_rank_deficient_gram_raises(self):
        # two senders always transmitting together: duplicated columns
        trace = make_trace(U=[[1, 1], [1, 1]], Y=[[1, 1], [2, 0]])
        with pytest.raises(SingularSystemError, match="rank"):
            lsda(trace)

    def test_ridge_fallback_returns_estimate(self):
        trace = make_trace(U=[[1, 1], [1, 1]], Y=[[1, 1], [2, 0]])
        est = lsda(trace, ridge=True)
        assert np.all(np.isfinite(est.P_hat))

    def test_kronecker_equivalence_small_cases(self):
        # the decoupled solves must match the explicit stacked pseudoinverse
        rng = np.random.default_rng(11)
        for n, rho in [(2, 4), (3, 6), (4, 8)]:
            U = rng.multinomial(3, np.full(n, 1 / n), size=rho)
            Y = rng.multinomial(3, np.full(n, 1 / n), size=rho)
            h = np.kron(np.eye(n), U.astype(float))
            stacked = np.linalg.pinv(h) @ Y.T.reshape(-1).astype(float)
            p_explicit = stacked.reshape(n, n).T  # rows back to senders
            trace = make_trace(U, Y)
            np.testing.assert_allclose(lsda(trace).P_hat, p_explicit, atol=1e-10)

    def test_pool_path_equals_threshold_at_alpha_one(self):
        pop, thr = random_trace(n_users=12, t=5, rho=150, seed=9)
        pool = Trace(
            U=thr.U,
            Y=thr.Y,
            config=MixConfig(kind="binomial_pool", t=5, alpha=1.0, m=0),
            seed=thr.seed,
        )
        diff = np.abs(lsda(pool).P_hat - lsda(thr).P_hat)
        assert diff.max() <= 1e-10

    def test_unbiased_over_repetitions(self):
        # the per-entry estimator mean must match the true profiles
        reps = 200
        pop, _ = random_trace(n_users=8, t=4, rho=250, seed=0)
        cfg = MixConfig(kind="threshold", t=4)
        estimates = []
        for k in range(reps):
            trace = simulate_trace(pop, cfg, rho=250, seed=1000 + k)
            estimates.append(lsda(trace).P_hat)
        stack = np.asarray(estimates)
        bias = stack.mean(axis=0) - pop.profiles
        limit = 4 * stack.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(bias) <= limit)


class TestClsda:
    def test_feasible_unconstrained_optimum_is_reached(self):
        trace = make_trace(U=[[1, 0], [0, 1]], Y=[[0, 1], [1, 0]])
        est = clsda(trace)
        np.testing.assert_allclose(est.P_hat, [[0, 1], [1, 0]], atol=1e-6)
        assert est.converged

    def test_zero_iterations_returns_projected_lsda(self):
        _, trace = random_trace(n_users=5, t=3, rho=50, seed=2)
        est = clsda(trace, SolverOptions(max_iter=0))
        np.testing.assert_array_equal(est.P_hat, _project_rows(lsda(trace).P_hat))
        assert est.iterations == 0
        assert not est.converged

    def test_rank_deficient_gram_starts_uniform(self):
        # the duplicated-column trace on which lsda raises
        trace = make_trace(U=[[1, 1], [1, 1]], Y=[[1, 1], [2, 0]])
        start = clsda(trace, SolverOptions(max_iter=0))
        np.testing.assert_array_equal(start.P_hat, np.full((2, 2), 0.5))
        est = clsda(trace)
        assert est.converged
        assert np.all(est.P_hat >= 0.0)
        np.testing.assert_allclose(est.P_hat.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert_non_increasing(est.objective_history)

    def test_rows_live_on_the_simplex(self):
        _, trace = random_trace(n_users=10, t=5, rho=200, seed=4)
        est = clsda(trace)
        assert np.all(est.P_hat >= -1e-12)
        np.testing.assert_allclose(est.P_hat.sum(axis=1), 1.0, atol=1e-9)

    def test_objective_monotonically_non_increasing(self):
        _, trace = random_trace(n_users=10, t=5, rho=200, seed=6)
        assert_non_increasing(clsda(trace).objective_history)

    def test_objective_non_increasing_on_pool_trace(self):
        assert_non_increasing(clsda(small_pool_trace()).objective_history)

    def test_line_search_cuts_steps_and_the_objective_never_rises(self, monkeypatch):
        # after the start's projection, every iteration calls _project_rows (a
        # projected step to Q) or _face_tangent (a conjugate-gradient step) once; a
        # projected step taken in full accepts the objective of Q, a cut one less
        steps = []
        project, tangent = estimators._project_rows, estimators._face_tangent

        def project_spy(mat):
            steps.append(project(mat))
            return steps[-1]

        def tangent_spy(x, face):
            steps.append(None)
            return tangent(x, face)

        monkeypatch.setattr(estimators, "_project_rows", project_spy)
        monkeypatch.setattr(estimators, "_face_tangent", tangent_spy)
        trace = small_pool_trace()
        est = clsda(trace)
        history, eq = est.objective_history, NormalEquations.from_trace(trace)
        assert est.converged
        assert len(steps) == len(history)
        rises = [eq.residual(q) - history[i] for i, q in enumerate(steps) if q is not None]
        cut = [rise for rise in rises if rise > 1e-9 * (1.0 + history[0])]
        assert 0 < len(cut) < len(rises)
        assert_non_increasing(history)

    def test_reaches_plain_projected_gradient_fixed_point(self):
        trace = small_pool_trace()
        reference, _ = plain_projected_gradient(trace, tol=1e-13)
        assert np.abs(clsda(trace).P_hat - reference).max() <= 1e-7

    def test_takes_at_most_half_the_plain_iterations(self):
        trace = small_pool_trace()
        est = clsda(trace)
        _, plain_iterations = plain_projected_gradient(trace, tol=SolverOptions().tol)
        assert est.converged
        assert est.iterations <= plain_iterations / 2

    def test_face_phases_reach_the_plain_fixed_point(self, monkeypatch):
        trace = zipf_pool_trace()
        faces = face_runs(monkeypatch)
        est = clsda(trace)
        assert est.converged
        assert len(faces) > 1
        reference, _ = plain_projected_gradient(trace, tol=1e-13)
        assert np.abs(est.P_hat - reference).max() <= 1e-7
        assert_non_increasing(est.objective_history)

    def test_every_stop_lies_on_the_simplex(self, monkeypatch):
        # a run cut at iteration k of a face phase stops on a conjugate-gradient step
        trace = small_pool_trace()
        faces = face_runs(monkeypatch)
        converged_at = clsda(trace).iterations
        assert faces
        for max_iter in range(1, converged_at + 1):
            est = clsda(trace, SolverOptions(max_iter=max_iter))
            assert est.iterations == max_iter
            assert len(est.objective_history) == max_iter + 1
            assert np.all(est.P_hat >= 0.0)
            np.testing.assert_allclose(est.P_hat.sum(axis=1), 1.0, rtol=0, atol=1e-9)

    def test_only_a_projected_step_converges(self, monkeypatch):
        projections = []
        project = estimators._project_rows

        def spy(mat):
            projections.append(project(mat))
            return projections[-1]

        monkeypatch.setattr(estimators, "_project_rows", spy)
        est = clsda(zipf_pool_trace())
        assert est.converged
        assert est.P_hat is projections[-1]

    def test_conjugate_gradient_step_uphill_raises(self, monkeypatch):
        # with the tangent flipped, the first conjugate-gradient step climbs; it is
        # the iteration of the first cut run that reaches a face
        trace = small_pool_trace()
        faces = face_runs(monkeypatch)
        for first in range(1, 100):
            clsda(trace, SolverOptions(max_iter=first))
            if faces:
                break
        tangent = estimators._face_tangent
        monkeypatch.setattr(estimators, "_face_tangent", lambda x, face: -tangent(x, face))
        with pytest.raises(SolverDivergedError, match=f"objective increased at iteration {first}:"):
            clsda(trace)

    def test_not_worse_than_unconstrained(self):
        for seed in range(3):
            pop, trace = random_trace(n_users=12, t=5, rho=400, seed=20 + seed)
            err_u = np.sum((lsda(trace).P_hat - pop.profiles) ** 2)
            err_c = np.sum((clsda(trace).P_hat - pop.profiles) ** 2)
            assert err_c <= err_u

    def test_non_convergence_flag(self):
        _, trace = random_trace(n_users=10, t=5, rho=200, seed=4)
        est = clsda(trace, SolverOptions(max_iter=3))
        assert est.iterations == 3
        assert not est.converged

    def test_objective_increase_raises_library_error(self, monkeypatch):
        # a step ten times too long makes the first projected step overshoot
        true_lambda_max = NormalEquations.lambda_max
        monkeypatch.setattr(NormalEquations, "lambda_max", lambda eq: true_lambda_max(eq) / 10)
        _, trace = random_trace(n_users=10, t=5, rho=200, seed=4)
        with pytest.raises(SolverDivergedError, match="objective increased") as info:
            clsda(trace)
        assert isinstance(info.value, MixProfileError)
        assert isinstance(info.value, RuntimeError)

    def test_lambda_max_matches_dense_eigenvalues(self):
        _, trace = random_trace(n_users=10, t=5, rho=200, seed=4)
        eq = NormalEquations.from_trace(trace)
        assert eq.lambda_max() == pytest.approx(np.linalg.eigvalsh(eq.gram)[-1], rel=1e-12)

    def test_options_validated(self):
        with pytest.raises(InvalidParameterError):
            SolverOptions(max_iter=-1)
        with pytest.raises(InvalidParameterError):
            SolverOptions(tol=0.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), -1e-9])
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(InvalidParameterError, match="finite and positive"):
            SolverOptions(tol=tol)

    @pytest.mark.parametrize("max_iter", [2.5, True, None, "10"])
    def test_max_iter_must_be_an_integer(self, max_iter):
        # each of these used to pass or end in a raw TypeError
        with pytest.raises(InvalidParameterError, match="max_iter must be an integer"):
            SolverOptions(max_iter=max_iter)

    @pytest.mark.parametrize("tol", ["1e-9", None, True])
    def test_tol_must_be_a_real_number(self, tol):
        with pytest.raises(InvalidParameterError, match="finite and positive"):
            SolverOptions(tol=tol)

    def test_numpy_integer_and_integer_tol_accepted(self):
        _, trace = random_trace(n_users=10, t=5, rho=200, seed=4)
        est = clsda(trace, SolverOptions(max_iter=np.int64(3), tol=1))
        assert est.iterations <= 3


class TestProjectSimplex:
    def test_feasible_point_unchanged(self):
        v = np.array([0.5, 0.3, 0.2])
        np.testing.assert_allclose(project_simplex(v), v, atol=1e-15)

    def test_symmetric_overshoot(self):
        np.testing.assert_allclose(project_simplex([0.6, 0.6]), [0.5, 0.5], atol=1e-15)

    def test_clamps_to_vertex(self):
        np.testing.assert_allclose(project_simplex([1.2, -0.2, 0.0]), [1, 0, 0], atol=1e-12)

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            v = rng.normal(scale=2.0, size=rng.integers(2, 12))
            got = project_simplex(v)
            want = project_simplex_oracle(v)
            np.testing.assert_allclose(got, want, atol=1e-9)
            assert got.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(got >= 0)


def tied_threshold_rows(c, j, n):
    """``[c + 1/j] * j + [c] * (n - j)``, a row whose threshold ties at ``c``, and its reverse."""
    row = [c + 1.0 / j] * j + [c] * (n - j)
    return np.array([row, row[::-1]])


#: rows of up to 9 entries in [-1e3, 1e3]
MATRICES = hnp.arrays(
    float,
    hnp.array_shapes(min_dims=2, max_dims=2, max_side=9),
    elements=st.floats(-1e3, 1e3, allow_subnormal=False),
)
PROJECTION = settings(max_examples=200, deadline=None)


def rounding_tol(v):
    """Rounding bound of a projected row's entries: a few ulps of ``|v|`` per entry."""
    return 16 * v.shape[1] * np.finfo(float).eps * (1.0 + np.abs(v).max())


class TestProjectionProperties:
    @PROJECTION
    @given(v=MATRICES)
    def test_rows_are_projected_one_by_one(self, v):
        p = _project_rows(v)
        for row, got in zip(v, p):
            np.testing.assert_array_equal(project_simplex(row), got)

    @PROJECTION
    @given(v=MATRICES)
    @example(v=tied_threshold_rows(2 / 7, 6, 264))
    @example(v=tied_threshold_rows(2 / 7, 3, 9))
    @example(v=tied_threshold_rows(0.3, 4, 7))
    def test_matches_the_sort_and_negate_formula_bit_for_bit(self, v):
        assert _project_rows(v).tobytes() == project_rows_reference(v).tobytes()

    @PROJECTION
    @given(v=MATRICES)
    def test_output_is_feasible(self, v):
        p = _project_rows(v)
        assert np.all(p >= 0.0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=rounding_tol(v))

    @PROJECTION
    @given(v=MATRICES)
    def test_projection_is_idempotent(self, v):
        p = _project_rows(v)
        np.testing.assert_allclose(_project_rows(p), p, rtol=0, atol=rounding_tol(v))

    @PROJECTION
    @given(v=MATRICES)
    def test_kkt_holds_at_every_vertex(self, v):
        # p is the projection iff <v - p, q - p> <= 0 for every q on the simplex;
        # the inner product is linear in q, so the vertices e_j are enough.  Its
        # rounding is |v - p| (up to |v|) times the rounding of p.
        p = _project_rows(v)
        r = v - p
        gap = r - np.sum(r * p, axis=1, keepdims=True)  # <v - p, e_j - p> for every j
        assert np.all(gap <= rounding_tol(v) * (1.0 + np.abs(v).max()))


#: values of tied entries: any in [-2, 2], signed zeros and two that do not round evenly
TIE_VALUES = st.floats(-2.0, 2.0, allow_subnormal=False) | st.sampled_from([0.0, -0.0, 0.1, 1 / 3])


@st.composite
def wide_rows(draw, n):
    """A row of ``n`` entries: ties, all equal (support ``n``), near ``1/n`` (a support
    past the prefix) or ``j`` entries at ``c + 1/j`` over ``c`` (a threshold tied at ``c``)."""
    kind = draw(st.sampled_from(["ties", "equal", "near-uniform", "tied-threshold"]))
    if kind == "ties":
        pool = draw(st.lists(TIE_VALUES, min_size=1, max_size=4))
        return draw(hnp.arrays(float, n, elements=st.sampled_from(pool)))
    c = draw(TIE_VALUES)
    if kind == "equal":
        return np.full(n, c)
    if kind == "near-uniform":
        return draw(hnp.arrays(float, n, elements=st.floats(0.0, 2.0))) / n
    j = draw(st.integers(1, n))
    return np.array(draw(st.permutations([c + 1.0 / j] * j + [c] * (n - j))))


@st.composite
def wide_matrices(draw):
    """Up to four rows of one column, of at most the prefix or of more columns than it."""
    n = draw(st.just(1) | st.integers(2, PROJECT_PREFIX)
             | st.integers(PROJECT_PREFIX + 1, 4 * PROJECT_PREFIX + 1))
    return np.array([draw(wide_rows(n)) for _ in range(draw(st.integers(1, 4)))])


class TestPrefixProjection:
    @PROJECTION
    @given(v=wide_matrices())
    def test_matches_the_full_width_scan_bit_for_bit(self, v):
        assert _project_rows(v).tobytes() == project_rows_full_width(v).tobytes()

    @pytest.mark.parametrize("n", [1, PROJECT_PREFIX - 1, PROJECT_PREFIX, PROJECT_PREFIX + 1,
                                   2 * PROJECT_PREFIX, 2 * PROJECT_PREFIX + 1, 300])
    def test_support_past_the_prefix(self, n):
        # equal entries keep every column; the scan widens until it reaches them all
        v = np.full((2, n), 0.5)
        v[1, 0] = 0.5 + 1.0  # the second row projects onto its first vertex
        p = _project_rows(v)
        assert p.tobytes() == project_rows_full_width(v).tobytes()
        assert np.count_nonzero(p[0]) == n
        np.testing.assert_array_equal(p[1], np.eye(n)[0])


class TestRls:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_batch_solution(self, seed):
        _, trace = random_trace(n_users=12, t=5, rho=300, seed=seed)
        diff = np.abs(rls(trace).P_hat - lsda(trace).P_hat)
        assert diff.max() <= 1e-8

    def test_matches_batch_on_pool_trace(self):
        _, trace = random_trace(
            n_users=10, t=6, rho=400, seed=31, kind="binomial_pool", alpha=0.5
        )
        diff = np.abs(rls(trace).P_hat - lsda(trace).P_hat)
        assert diff.max() <= 1e-8

    def test_single_round_is_singular(self):
        trace = make_trace(U=[[1, 0]], Y=[[0, 1]])
        with pytest.raises(SingularSystemError):
            rls(trace)

    def test_segmented_equals_one_shot(self):
        _, trace = random_trace(n_users=9, t=4, rho=120, seed=14)
        one_shot = rls(trace)
        eq = NormalEquations(trace.n_senders, trace.n_receivers)
        eq.update(trace.U[:60], trace.Y[:60])
        eq.update(trace.U[60:], trace.Y[60:])
        assert eq.rounds == 120
        np.testing.assert_array_equal(eq.solve(), one_shot.P_hat)


class TestSda:
    def test_closed_form_value(self):
        # rho=5, t=2, N=10, receiver 0 gets one message per round
        U = np.ones((5, 10), dtype=int) * 0
        U[:, 0] = 1
        U[:, 1] = 1  # the single background message each round
        Y = np.zeros((5, 10), dtype=int)
        Y[:, 0] = 1
        Y[:, 3] = 1
        trace = make_trace(U, Y)
        est = sda(trace)
        assert (est.method, est.iterations, est.P_hat.shape) == ("sda", 5, (1, 10))
        assert est.P_hat[0, 0] == pytest.approx(1 - 0.1, abs=1e-15)
        assert est.P_hat[0, 5] == pytest.approx(-0.1, abs=1e-15)

    def test_t_one_counts_only_target_messages(self):
        U = np.zeros((5, 10), dtype=int)
        U[:, 0] = 1
        Y = np.zeros((5, 10), dtype=int)
        Y[:3, 2] = 1
        Y[3:, 4] = 1
        trace = make_trace(U, Y)
        est = sda(trace)
        assert est.P_hat[0, 2] == pytest.approx(0.6, abs=1e-15)

    def test_rejects_round_without_single_target_message(self):
        U = np.ones((3, 2), dtype=int)
        U[1] = [2, 0]
        Y = np.ones((3, 2), dtype=int)
        trace = make_trace(U, Y)
        with pytest.raises(InvalidScenarioError, match="round 1"):
            sda(trace)

    def test_old_call_with_t_and_n_users_fails_loudly(self):
        U = np.zeros((3, 2), dtype=int)
        U[:, 0] = 1
        with pytest.raises(TypeError):
            sda(make_trace(U, U), 1, 2)

    def test_converges_to_target_profile(self):
        trace, profile = sda_scenario_trace(n_users=20, n_contacts=4, t=5, rho=20_000, seed=2)
        est = sda(trace)
        assert np.sum((est.P_hat[0] - profile) ** 2) < 0.01


def departure_calls(monkeypatch):
    """The traces given to the estimators' ``departure_blocks``, in call order."""
    seen = []
    build = estimators.departure_blocks

    def record(trace, rows):
        seen.append(trace)
        return build(trace, rows)

    monkeypatch.setattr(estimators, "departure_blocks", record)
    return seen


class TestSharedNormalEquations:
    def test_lsda_clsda_and_zclip_build_one_set(self, monkeypatch):
        seen = departure_calls(monkeypatch)
        trace = small_pool_trace()
        lsda(trace)
        clsda(trace)
        zero_clip(lsda(trace, ridge=True))
        assert len(seen) == 1 and seen[0] is trace

    def test_shared_statistics_give_the_fresh_estimates(self):
        first, again = small_pool_trace(), small_pool_trace()
        clsda(first)
        np.testing.assert_array_equal(lsda(first).P_hat, lsda(again).P_hat)
        fresh, shared = clsda(again), clsda(first)
        np.testing.assert_array_equal(shared.P_hat, fresh.P_hat)
        np.testing.assert_array_equal(shared.objective_history, fresh.objective_history)

    def test_rls_streams_its_own(self, monkeypatch):
        seen = departure_calls(monkeypatch)
        trace = small_pool_trace()
        lsda(trace)
        rls(trace)
        rls(trace)
        assert len(seen) == 3

    def test_entry_dies_with_its_trace(self):
        trace = small_pool_trace()
        lsda(trace)
        trace_ref = weakref.ref(trace)
        eq_ref = weakref.ref(estimators._equations(trace))
        del trace
        gc.collect()
        assert trace_ref() is None and eq_ref() is None

    def test_equal_traces_do_not_share(self, monkeypatch):
        seen = departure_calls(monkeypatch)
        first = small_pool_trace()
        second = Trace(U=first.U.copy(), Y=first.Y.copy(), config=first.config)
        lsda(first)
        lsda(second)
        assert len(seen) == 2 and seen[0] is first and seen[1] is second


class TestZeroClip:
    def test_clip_and_renormalize(self):
        est = ProfileEstimate(
            P_hat=np.array([[0.9, -0.1, 0.2], [0.5, 0.5, 0.0], [-0.3, -0.7, 0.0]]),
            method="lsda",
        )
        clipped = zero_clip(est)
        assert clipped.method == "zclip"
        np.testing.assert_allclose(clipped.P_hat[0], [9 / 11, 0, 2 / 11], rtol=1e-14)
        np.testing.assert_allclose(clipped.P_hat[1], [0.5, 0.5, 0.0], rtol=1e-14)
        np.testing.assert_allclose(clipped.P_hat[2], [1 / 3, 1 / 3, 1 / 3], rtol=1e-14)

    def test_idempotent_on_feasible_rows(self):
        est = ProfileEstimate(P_hat=np.array([[0.25, 0.75]]), method="lsda")
        np.testing.assert_array_equal(zero_clip(est).P_hat, est.P_hat)

    def test_all_negative_row_falls_back_to_uniform(self):
        est = ProfileEstimate(P_hat=np.array([[-0.3, -0.7]]), method="lsda")
        np.testing.assert_allclose(zero_clip(est).P_hat, [[0.5, 0.5]], rtol=1e-15)


class TestEstimateFile:
    def test_round_trip(self, tmp_path):
        _, trace = random_trace(n_users=6, t=3, rho=60, seed=7)
        est = lsda(trace)
        path = tmp_path / "estimate.txt"
        save_estimate(est, path)
        loaded = load_estimate(path)
        np.testing.assert_array_equal(loaded.P_hat, est.P_hat)
        assert loaded.method == est.method
        assert loaded.residual == est.residual
        assert loaded.converged == est.converged

    @pytest.mark.parametrize("body, line", [
        ("0.5 0.5\n0.5 oops\n", 3),  # non-numeric entry
        ("0.5 0.5\n1.0\n", 3),  # ragged row
    ])
    def test_malformed_matrix_row(self, tmp_path, body, line):
        path = tmp_path / "estimate.txt"
        path.write_text(
            "# estimate method=lsda iterations=1 residual=0 converged=True "
            "n_senders=2 n_receivers=2\n" + body
        )
        with pytest.raises(ParseError, match=f"line {line}:") as info:
            load_estimate(path)
        assert info.value.line_no == line

    @pytest.mark.parametrize("sizes, body", [
        ("n_senders=2 n_receivers=-1", ""),  # escaped as numpy's reshape error
        ("n_senders=1 n_receivers=0", "\n"),  # loaded as a (1, 0) estimate
        ("n_senders=0 n_receivers=2", ""),
    ])
    def test_header_sizes_below_one_rejected(self, tmp_path, sizes, body):
        path = tmp_path / "estimate.txt"
        header = f"# estimate method=lsda iterations=1 residual=0 converged=True {sizes}\n"
        path.write_text(header + body)
        with pytest.raises(ParseError, match="line 1:") as info:
            load_estimate(path)
        assert info.value.line_no == 1

    @pytest.mark.parametrize("body, line", [
        ("0.5 0.5\n0.5 0.5\n0.5 0.5\n", 4),  # a row beyond n_senders names its line
        ("0.5 0.5\n", None),  # too few rows: no line is to blame
    ])
    def test_row_count_differs_from_header(self, tmp_path, body, line):
        path = tmp_path / "estimate.txt"
        path.write_text("# estimate method=lsda iterations=1 residual=0 converged=True "
                        "n_senders=2 n_receivers=2\n" + body)
        with pytest.raises(ParseError) as info:
            load_estimate(path)
        assert info.value.line_no == line

    @pytest.mark.parametrize("values", [
        "iterations=1 residual=0 converged=maybe",  # read as False
        "iterations=1 residual=0 converged=true",
        "iterations=-5 residual=0 converged=True",
        "iterations=1 residual=-3 converged=True",
        "iterations=1 residual=-inf converged=True",
    ])
    def test_header_values_out_of_range_rejected(self, tmp_path, values):
        path = tmp_path / "estimate.txt"
        path.write_text(f"# estimate method=lsda {values} n_senders=1 n_receivers=2\n0.5 0.5\n")
        with pytest.raises(ParseError, match="line 1: bad header") as info:
            load_estimate(path)
        assert info.value.line_no == 1

    @pytest.mark.parametrize("values, expected", [
        ("iterations=0 residual=0 converged=False", (0, 0.0, False)),
        ("iterations=3 residual=nan converged=True", (3, None, True)),
    ])
    def test_header_values_at_their_bounds_accepted(self, tmp_path, values, expected):
        path = tmp_path / "estimate.txt"
        path.write_text(f"# estimate method=lsda {values} n_senders=1 n_receivers=2\n0.5 0.5\n")
        est = load_estimate(path)
        iterations, residual, converged = expected
        assert est.iterations == iterations and est.converged is converged
        assert np.isnan(est.residual) if residual is None else est.residual == residual

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_non_finite_entry_rejected(self, tmp_path, entry):
        path = tmp_path / "estimate.txt"
        path.write_text(
            "# estimate method=lsda iterations=1 residual=0 converged=True "
            f"n_senders=2 n_receivers=2\n0.5 0.5\n0.5 {entry}\n"
        )
        with pytest.raises(ParseError, match="line 3:.*non-finite"):
            load_estimate(path)

    def test_nan_residual_is_legal(self, tmp_path):
        _, trace = random_trace(n_users=4, t=3, rho=60, seed=2)
        est = zero_clip(lsda(trace))
        path = tmp_path / "estimate.txt"
        save_estimate(est, path)
        loaded = load_estimate(path)
        assert np.isnan(loaded.residual)
        np.testing.assert_array_equal(loaded.P_hat, est.P_hat)

