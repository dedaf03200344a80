"""A trace's counts are stored in the narrowest integer dtype that holds them.

Every number computed from a narrow trace must equal, bit for bit, the one
computed from the same counts held as int64; the reference here is the same
code with :func:`mixsim.count_dtype` pinned to int64.
"""

import tracemalloc

import numpy as np
import pytest

from mixprofile import (MixConfig, Trace, clsda, gen_population, load_trace, lsda, rls, save_trace,
                        sda, simulate_trace)
from mixprofile import NormalEquations, mixsim

#: (largest count, the input's dtype, the dtype a trace stores it in)
BOUNDARIES = [
    (127, np.int64, np.int8),
    (128, np.int64, np.int16),
    (32_767, np.int64, np.int16),
    (32_768, np.int64, np.int32),
    (2**31 - 1, np.int64, np.int32),
    (2**31, np.int64, np.int64),
    (128, np.float64, np.int16),  # whole-number floats
    (2**31, np.float64, np.int64),
]


def boundary_counts(c: int, dtype) -> tuple:
    """``(U, Y, config)`` of a 2-sender pool trace with ``t = c``, whose largest ``U`` count is
    ``c`` and whose ``Y`` is ``U // 2`` reversed, so the two may need different dtypes."""
    U = np.array([[c, 0], [0, c], [c - 1, 1], [1, c - 1], [c // 2, c - c // 2], [c - 2, 2]])
    config = MixConfig(kind="binomial_pool", t=c, alpha=0.5)
    return U.astype(dtype), (U // 2)[::-1].astype(dtype), config


def outcome(est) -> tuple:
    """An estimate's arrays, as bytes, and numbers."""
    history = est.objective_history
    return (est.P_hat.tobytes(), est.iterations, est.residual, est.converged,
            None if history is None else history.tobytes())


def everything(trace, path) -> dict:
    """Every number the package derives from ``trace``, and the bytes of its file."""
    eq = NormalEquations.from_trace(trace)
    save_trace(trace, path)
    return {
        "statistics": (eq.gram.tobytes(), eq.cross.tobytes(), eq.y_sq, eq.rounds),
        **{f.__name__: outcome(f(trace)) for f in (lsda, clsda, rls)},
        "final_pool_size": trace.rho * trace.config.t + trace.config.m - int(trace.Y.sum()),
        "file": path.read_bytes(),
    }


def int64_trace(**fields) -> Trace:
    """A trace whose counts are stored as int64, as before they were narrowed."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mixsim, "count_dtype", lambda largest: np.dtype(np.int64))
        return Trace(**fields)


@pytest.mark.parametrize("c, given, stored", BOUNDARIES)
def test_counts_stored_narrow_and_every_result_unchanged(tmp_path, c, given, stored):
    U, Y, config = boundary_counts(c, given)
    trace = Trace(U=U, Y=Y, config=config)
    assert trace.U.dtype == stored and trace.U.max() == c
    assert trace.Y.dtype == mixsim.count_dtype(c // 2)
    wide = int64_trace(U=U, Y=Y, config=config)
    assert wide.U.dtype == wide.Y.dtype == np.int64
    assert everything(trace, tmp_path / "narrow.txt") == everything(wide, tmp_path / "wide.txt")
    loaded = load_trace(tmp_path / "narrow.txt")
    for name in ("U", "Y"):
        assert getattr(loaded, name).dtype == getattr(trace, name).dtype
        np.testing.assert_array_equal(getattr(loaded, name), getattr(trace, name))


@pytest.mark.parametrize("c, given, stored", BOUNDARIES)
def test_sda_unchanged(c, given, stored):
    # the statistical attack reads threshold traces only
    U = np.array([[1, c - 1]] * 3, dtype=given)
    Y = np.array([[c, 0], [c - 1, 1], [1, c - 1]], dtype=given)
    config = MixConfig(kind="threshold", t=c)
    narrow, wide = Trace(U=U, Y=Y, config=config), int64_trace(U=U, Y=Y, config=config)
    assert narrow.Y.dtype == stored
    assert sda(narrow).P_hat.tobytes() == sda(wide).P_hat.tobytes()


def test_count_dtype_is_the_narrowest_that_holds_the_count():
    assert [mixsim.count_dtype(c) for c in (0, 127, 128, 2**15, 2**31, 2**63 - 1)] == [
        np.int8, np.int8, np.int16, np.int32, np.int64, np.int64]


def test_trace_file_with_counts_beyond_int16_loads_intact(tmp_path):
    # an initial pool of 40,000 lets a round deliver up to 40,000 + t messages; the reader
    # widens its matrix from int8 in two steps, in blocks after the first
    rho = mixsim.TEXT_BLOCK + 4
    Y = np.ones(rho, dtype=np.int64)
    Y[mixsim.TEXT_BLOCK - 1], Y[-1] = 200, 39_000
    lines = [f"{r} in 0:1 out 0:{y}\n" for r, y in enumerate(Y)]
    path = tmp_path / "trace.txt"
    path.write_text(f"# mixtrace n_senders=1 n_receivers=1 t=1 kind=binomial_pool alpha=0.5 "
                    f"m=40000 rho={rho} seed=0\n# pool_prior 1.0\n" + "".join(lines))
    trace = load_trace(path)
    assert trace.U.dtype == np.int8 and trace.Y.dtype == np.int32
    assert trace.Y[:, 0].tolist() == Y.tolist()
    config = trace.config
    assert trace.rho * config.t + config.m - int(trace.Y.sum()) == 40_000 + rho - int(Y.sum())


POOL_100 = dict(kind="binomial_pool", t=10, alpha=0.5, m=10)


def traced_peak(f) -> int:
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulation_holds_no_int64_count_matrix():
    pop = gen_population(100, 25, seed=5)
    config = MixConfig(**POOL_100, pool_prior=pop.frequencies)
    int64_matrix = 20_000 * 100 * 8  # 16 MB
    assert traced_peak(lambda: simulate_trace(pop, config, 20_000, seed=5)) < int64_matrix


def test_loading_holds_no_int64_count_matrix(tmp_path):
    pop = gen_population(100, 25, seed=5)
    config = MixConfig(**POOL_100, pool_prior=pop.frequencies)
    path = tmp_path / "trace.txt"
    save_trace(simulate_trace(pop, config, 20_000, seed=5, record_ground_truth=False), path)
    int64_matrix = 20_000 * 100 * 8  # 16 MB
    assert traced_peak(lambda: load_trace(path)) < int64_matrix
