"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The Monte Carlo criteria are seeded and deterministic; the whole
module takes a few minutes.
"""

import numpy as np
import pytest

from mixprofile import (
    MixConfig,
    Trace,
    clsda,
    delay_stats,
    gen_population,
    input_autocorr_inverse,
    lsda,
    mse_transition,
    rls,
    sda,
    simulate_trace,
    uniformity_stats,
    predict_mse_pool,
    predict_mse_threshold,
)

from conftest import random_trace, sda_scenario_trace


def report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def mean_empirical_mse_p(pop_args, mix_kwargs, rho, reps, seed_base, method=lsda):
    """Average per-transition MSE of an attack over seeded repetitions."""
    values = []
    for k in range(reps):
        pop = gen_population(**pop_args, seed=seed_base + 2 * k)
        cfg = MixConfig(**mix_kwargs)
        trace = simulate_trace(pop, cfg, rho, seed=seed_base + 2 * k + 1,
                               record_ground_truth=False)
        values.append(mse_transition(pop, method(trace)))
    return float(np.mean(values))


def theory_mse_p(pop_args, rho, t, alpha=None):
    pop = gen_population(**pop_args, seed=0)
    u = uniformity_stats(pop)
    args = (pop.frequencies, u, t, rho)
    if alpha is None:
        return predict_mse_threshold(*args).mse_transition
    return predict_mse_pool(*args, alpha).mse_transition


THRESHOLD_SETUP = dict(n_users=50, n_friends=10, profile_dist="zipf", freq_dist="uniform")


@pytest.fixture(scope="module")
def threshold_mse_by_rho():
    """Shared Monte Carlo runs for criteria 1 and 2."""
    mix = dict(kind="threshold", t=10)
    return {
        rho: mean_empirical_mse_p(THRESHOLD_SETUP, mix, rho, reps=100, seed_base=1000 + rho)
        for rho in (5000, 10_000)
    }


def test_c01_threshold_theory_matches_simulation(threshold_mse_by_rho):
    empirical = threshold_mse_by_rho[5000]
    predicted = theory_mse_p(THRESHOLD_SETUP, rho=5000, t=10)
    ratio = empirical / predicted
    report(
        "C1 threshold theory vs simulation",
        0.75 <= ratio <= 1.25,
        f"empirical={empirical:.4e} predicted={predicted:.4e} ratio={ratio:.3f} "
        "(tolerance 25%)",
    )


def test_c02_error_decays_as_one_over_rho(threshold_mse_by_rho):
    ratio = threshold_mse_by_rho[5000] / threshold_mse_by_rho[10_000]
    report(
        "C2 empirical 1/rho decay",
        1.7 <= ratio <= 2.3,
        f"mse(rho)/mse(2 rho)={ratio:.3f} (required within [1.7, 2.3])",
    )


def test_c03_pool_round_penalty():
    setup = dict(n_users=100, n_friends=100, profile_dist="uniform", freq_dist="uniform")
    rho, t, alpha, reps = 10_000, 10, 0.5, 50
    pool = mean_empirical_mse_p(
        setup, dict(kind="binomial_pool", t=t, alpha=alpha), rho, reps, seed_base=30_000
    )
    threshold = mean_empirical_mse_p(
        setup, dict(kind="threshold", t=t), rho, reps, seed_base=30_000
    )
    ratio = pool / threshold
    penalty = (2 - alpha) / alpha
    report(
        "C3 pool round penalty",
        abs(ratio - penalty) <= 0.3 * penalty,
        f"mse(pool)/mse(threshold)={ratio:.3f} vs (2-a)/a={penalty:.1f} (tolerance 30%)",
    )


def test_c04_pool_theory_matches_simulation():
    setup = dict(n_users=50, n_friends=10, profile_dist="zipf", freq_dist="uniform")
    rho, t, alpha, reps = 10_000, 10, 0.7, 50
    empirical = mean_empirical_mse_p(
        setup, dict(kind="binomial_pool", t=t, alpha=alpha), rho, reps, seed_base=40_000
    )
    predicted = theory_mse_p(setup, rho=rho, t=t, alpha=alpha)
    ratio = empirical / predicted
    report(
        "C4 pool theory vs simulation",
        0.7 <= ratio <= 1.3,
        f"empirical={empirical:.4e} predicted={predicted:.4e} ratio={ratio:.3f} "
        "(tolerance 30%)",
    )


def test_c05_pool_degenerates_to_threshold():
    pop, thr = random_trace(n_users=40, t=10, rho=400, seed=55)
    pool = Trace(
        U=thr.U, Y=thr.Y,
        config=MixConfig(kind="binomial_pool", t=10, alpha=1.0, m=0),
        seed=thr.seed,
    )
    diff = float(np.max(np.abs(lsda(pool).P_hat - lsda(thr).P_hat)))
    report(
        "C5 pool path coincides with threshold at alpha=1",
        diff <= 1e-10,
        f"max |pool - threshold| = {diff:.3e} (limit 1e-10)",
    )


def test_c06_constrained_never_worse():
    worst = -np.inf
    ok = True
    for k in range(20):
        pop = gen_population(100, 25, "zipf", "uniform", seed=60_000 + 2 * k)
        trace = simulate_trace(
            pop, MixConfig(kind="threshold", t=10), 10_000,
            seed=60_000 + 2 * k + 1, record_ground_truth=False,
        )
        unconstrained = mse_transition(pop, lsda(trace))
        constrained = mse_transition(pop, clsda(trace))
        worst = max(worst, constrained - unconstrained)
        ok = ok and constrained <= unconstrained
    report(
        "C6 constrained estimate never worse on baseline",
        ok,
        f"worst mse(clsda)-mse(lsda) over 20 repetitions = {worst:.3e}",
    )


def test_c07_recursive_equals_batch():
    worst = 0.0
    rng = np.random.default_rng(70)
    for k in range(10):
        kind = "binomial_pool" if k % 2 else "threshold"
        alpha = 0.5 if k % 2 else 1.0
        n = int(rng.integers(8, 30))
        _, trace = random_trace(
            n_users=n, t=int(rng.integers(3, 9)), rho=int(rng.integers(5 * n, 8 * n)),
            seed=700 + k, kind=kind, alpha=alpha,
        )
        worst = max(worst, float(np.max(np.abs(rls(trace).P_hat - lsda(trace).P_hat))))
    report(
        "C7 recursive/batch equivalence",
        worst <= 1e-8,
        f"max |rls - lsda| over 10 traces = {worst:.3e} (limit 1e-8)",
    )


def test_c08_sda_closed_form_and_consistency():
    # closed form on a constructed trace
    rho, t, n = 6, 3, 8
    U = np.zeros((rho, n), dtype=np.int64)
    U[:, 0] = 1
    U[:, 2] = 2
    Y = np.zeros((rho, n), dtype=np.int64)
    Y[:, 1] = 2
    Y[:4, 5] = 1
    Y[4:, 6] = 1
    trace = Trace(U=U, Y=Y, config=MixConfig(kind="threshold", t=t))
    got = sda(trace).P_hat[0]
    want = Y.mean(axis=0) - (t - 1) / n
    exact = np.array_equal(got, want)

    # error halves when the number of rounds doubles
    mse = {}
    for rho_s in (2000, 4000):
        errs = []
        for k in range(100):
            tr, profile = sda_scenario_trace(
                n_users=25, n_contacts=5, t=5, rho=rho_s, seed=80_000 + k
            )
            est = sda(tr).P_hat[0]
            errs.append(np.sum((est - profile) ** 2))
        mse[rho_s] = float(np.mean(errs))
    halving = mse[4000] / mse[2000]
    ok = exact and abs(halving - 0.5) <= 0.15 * 0.5
    report(
        "C8 sda closed form and 1/rho consistency",
        ok,
        f"closed-form exact={exact}, mse(2 rho)/mse(rho)={halving:.3f} "
        "(required 0.5 within 15%)",
    )


def test_c09_pool_delay():
    results = []
    for alpha, rho in ((0.3, 12_000), (0.5, 11_000)):
        pop = gen_population(20, 5, "zipf", "uniform", seed=90)
        cfg = MixConfig(kind="binomial_pool", t=10, alpha=alpha)
        trace = simulate_trace(pop, cfg, rho, seed=91)
        stats = delay_stats(trace)
        delivered = sum(stats["delay_histogram"].values())
        expected = (1 - alpha) / alpha
        rel = abs(stats["mean_delay_rounds"] - expected) / expected
        results.append((alpha, delivered, stats["mean_delay_rounds"], expected, rel))
    ok = all(d >= 100_000 and rel <= 0.05 for _, d, _, _, rel in results)
    detail = "; ".join(
        f"alpha={a}: mean={m:.4f} vs {e:.4f} over {d} messages ({100 * r:.2f}%)"
        for a, d, m, e, r in results
    )
    report("C9 mean pool delay", ok, detail + " (tolerance 5%)")


def test_c10_optimality_and_unbiasedness():
    # first-order optimality on every trace of a small batch
    worst_grad = 0.0
    for k in range(5):
        _, trace = random_trace(n_users=15, t=6, rho=250, seed=1000 + k)
        est = lsda(trace)
        a = trace.U.astype(float)
        worst_grad = max(worst_grad, float(np.max(np.abs(a.T @ (trace.Y - a @ est.P_hat)))))

    # bias over 200 repetitions stays within 4 standard errors everywhere
    reps = 200
    pop = gen_population(10, 3, "zipf", "uniform", seed=101)
    estimates = []
    for k in range(reps):
        trace = simulate_trace(
            pop, MixConfig(kind="threshold", t=5), 400, seed=102 + k,
            record_ground_truth=False,
        )
        estimates.append(lsda(trace).P_hat)
    stack = np.asarray(estimates)
    bias = np.abs(stack.mean(axis=0) - pop.profiles)
    limit = 4 * stack.std(axis=0, ddof=1) / np.sqrt(reps)
    ok = worst_grad <= 1e-8 and bool(np.all(bias <= limit))
    # receivers nobody contacts have zero estimator variance and zero bias
    ratio = float((bias / np.where(limit > 0, limit, np.inf)).max())
    report(
        "C10 normal-equation optimality and unbiasedness",
        ok,
        f"max |A^T (y - A q)| = {worst_grad:.3e} (limit 1e-8); "
        f"max bias/limit = {ratio:.3f}",
    )


def test_c11_autocorrelation_identity():
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 201))
        f = rng.uniform(0.5, 1.5, size=n)
        f /= f.sum()
        r_x, r_x_inv = input_autocorr_inverse(f, t=int(rng.integers(1, 30)))
        worst = max(worst, float(np.max(np.abs(r_x @ r_x_inv - np.eye(n)))))
    report(
        "C11 autocorrelation inverse identity",
        worst <= 1e-10,
        f"max |R_x R_x^-1 - I| over 20 draws = {worst:.3e} (limit 1e-10)",
    )


def test_c12_kronecker_equivalence():
    rng = np.random.default_rng(120)
    worst = 0.0
    for n, rho in [(2, 5), (3, 6), (4, 8)]:
        t = 3
        U = rng.multinomial(t, np.full(n, 1 / n), size=rho)
        Y = rng.multinomial(t, np.full(n, 1 / n), size=rho)
        stacked = np.linalg.pinv(np.kron(np.eye(n), U.astype(float))) @ Y.T.reshape(-1)
        explicit = stacked.reshape(n, n).T
        trace = Trace(U=U, Y=Y, config=MixConfig(kind="threshold", t=t))
        worst = max(worst, float(np.max(np.abs(lsda(trace).P_hat - explicit))))
    report(
        "C12 Kronecker-system equivalence",
        worst <= 1e-10,
        f"max |decoupled - stacked pinv| = {worst:.3e} (limit 1e-10)",
    )
