"""Inputs that the shared parameter rules refuse, one row per input.

Each of these was once accepted, came back as a NaN prediction, or escaped as a
raw numpy or Python error.  Now each raises a :class:`MixProfileError` subclass
whose message names the rule.
"""

import numpy as np
import pytest

from mixprofile import (
    EventLog,
    MixConfig,
    MixProfileError,
    Trace,
    UserPopulation,
    build_rounds,
    gen_population,
    input_autocorr_inverse,
    load_estimate,
    load_trace,
    predict_mse_pool,
    predict_mse_threshold,
)
from mixprofile import simulate_trace as simulate

NAN = float("nan")
POP = UserPopulation([[0.5, 0.5], [1.0, 0.0]], [0.5, 0.5])
EVENTS = EventLog(np.arange(4), np.array([0, 1, 0, 1]), np.array([1, 0, 1, 0]), ("a", "b"),
                  ("x", "y"))
TRACE_HEADER = "# mixtrace n_senders=1 n_receivers=1 t=2 kind=threshold alpha=1.0 m=0 rho=1 seed=0"
ESTIMATE_HEADER = "# estimate method=lsda iterations=1 residual=0 converged=True n_senders=1"
ESTIMATE_BODY = " n_receivers=1\n1.0\n"


def theory(f=(0.5, 0.5), u=(0.5, 0.5), t=10, rho=1000):
    """The arguments of a valid prediction, some of them changed."""
    return f, u, t, rho


def from_file(loader, text):
    """A row's call of ``loader`` on a file that holds ``text``."""
    def call(tmp_path):
        path = tmp_path / "file.txt"
        path.write_text(text)
        return loader(path)
    return call


ROWS = {
    "MixConfig t=2.5": (lambda _: MixConfig(t=2.5), "t must be an integer >= 1, got 2.5"),
    "MixConfig t=True": (lambda _: MixConfig(t=True), "t must be an integer >= 1, got True"),
    "MixConfig t=nan": (lambda _: MixConfig(t=NAN), "t must be an integer >= 1, got nan"),
    "MixConfig m=2.5": (lambda _: MixConfig("binomial_pool", 3, 0.5, 2.5, [0.5, 0.5]),
                        "m must be an integer >= 0, got 2.5"),
    "simulate_trace rho=2.5": (lambda _: simulate(POP, MixConfig(t=2), 2.5),
                               "rho must be an integer >= 1, got 2.5"),
    "simulate_trace seed=1.5": (lambda _: simulate(POP, MixConfig(t=2), 5, seed=1.5),
                                "seed must be an integer >= 0, got 1.5"),
    "gen_population n_users=2.5": (lambda _: gen_population(2.5, 1),
                                   "n_users must be an integer >= 1, got 2.5"),
    "gen_population n_friends=1.5": (lambda _: gen_population(3, 1.5),
                                     "n_friends must be an integer >= 1, got 1.5"),
    "gen_population seed=1.5": (lambda _: gen_population(3, 1, seed=1.5),
                                "seed must be an integer >= 0, got 1.5"),
    "build_rounds t=2.5": (lambda _: build_rounds(EVENTS, t=2.5),
                           "t must be an integer >= 1, got 2.5"),
    "predict_mse_threshold t=nan": (lambda _: predict_mse_threshold(*theory(t=NAN)),
                                    "t must be an integer >= 1, got nan"),
    "predict_mse_threshold rho=nan": (lambda _: predict_mse_threshold(*theory(rho=NAN)),
                                      "rho must be an integer >= 1, got nan"),
    "predict_mse_threshold f=nan": (lambda _: predict_mse_threshold(*theory(f=[NAN, 0.5])),
                                    "f must be probabilities summing to 1"),
    "predict_mse_threshold u=nan": (lambda _: predict_mse_threshold(*theory(u=[NAN, 0.5])),
                                    r"u must be numbers in \[0, 1\)"),
    "predict_mse_pool t=nan": (lambda _: predict_mse_pool(*theory(t=NAN), 0.5),
                               "t must be an integer >= 1, got nan"),
    "predict_mse_pool rho=nan": (lambda _: predict_mse_pool(*theory(rho=NAN), 0.5),
                                 "rho must be an integer >= 1, got nan"),
    "predict_mse_pool f=nan": (lambda _: predict_mse_pool(*theory(f=[0.5, NAN]), 0.5),
                               "f must be probabilities summing to 1"),
    "predict_mse_pool u=nan": (lambda _: predict_mse_pool(*theory(u=[0.5, NAN]), 0.5),
                               r"u must be numbers in \[0, 1\)"),
    "input_autocorr_inverse t=2.5": (lambda _: input_autocorr_inverse([0.5, 0.5], 2.5),
                                     "t must be an integer >= 1, got 2.5"),
    "input_autocorr_inverse f=nan": (lambda _: input_autocorr_inverse([NAN, 0.5, 0.5], 2),
                                     "f must be probabilities summing to 1"),
    # a u_bar where t now sits, as the predictors took it before 0.14.0
    "predict_mse_threshold old u_bar": (lambda _: predict_mse_threshold(*theory()[:2], 0.5, 10,
                                                                        1000),
                                        "t must be an integer >= 1, got 0.5"),
    "predict_mse_pool old u_bar": (lambda _: predict_mse_pool(*theory()[:2], 0.0, 10, 1000, 0.5),
                                   "t must be an integer >= 1, got 0.0"),
    "UserPopulation vector profiles": (lambda _: UserPopulation([1.0], [1.0]),
                                       "profiles must be a matrix with at least one row and one"),
    "UserPopulation no receivers": (lambda _: UserPopulation(np.zeros((1, 0)), [1.0]),
                                    "profiles must be a matrix with at least one row and one"),
    "UserPopulation ragged profiles": (lambda _: UserPopulation([[0.5, 0.5], [1.0]], [0.5, 0.5]),
                                       "profiles must be a matrix with at least one row and one"),
    "UserPopulation string profiles": (lambda _: UserPopulation([["a", "b"]], [1.0]),
                                       "profiles must be .*, every entry a number"),
    "UserPopulation ragged frequencies": (
        lambda _: UserPopulation([[1.0], [1.0]], [[0.5], [0.5, 0.0]]),
        "frequencies must be a vector of numbers"),
    "UserPopulation string frequencies": (lambda _: UserPopulation([[1.0]], ["x"]),
                                          "frequencies must be a vector of numbers"),
    "Trace string counts": (lambda _: Trace(np.array([["2"]]), np.array([[2]]), MixConfig(t=2)),
                            "U counts must be integers or floats, not dtype <U1"),
    "Trace bool counts": (lambda _: Trace(np.array([[True]]), np.array([[1]]), MixConfig(t=1)),
                          "U counts must be integers or floats, not dtype bool"),
    "Trace object counts": (lambda _: Trace(np.array([[1]]), np.array([[1]], dtype=object),
                                          MixConfig(t=1)),
                            "Y counts must be integers or floats, not dtype object"),
    "Trace count 1e30": (lambda _: Trace(np.array([[1e30]]), np.array([[1]]), MixConfig(t=1)),
                         r"U counts must be whole numbers below 2\*\*63"),
    "trace header key twice": (
        from_file(load_trace, TRACE_HEADER + " t=3\n0 in 0:2 out 0:2\n"),
        "line 1: bad header: t is given twice"),
    "trace header token without =": (
        from_file(load_trace, TRACE_HEADER + " junk\n0 in 0:2 out 0:2\n"),
        "line 1: bad header: 'junk' is not key=value"),
    "estimate header key twice": (
        from_file(load_estimate, ESTIMATE_HEADER + " n_receivers=1 n_senders=2\n1.0\n"),
        "line 1: bad header: n_senders is given twice"),
    "estimate header token without =": (
        from_file(load_estimate, ESTIMATE_HEADER + " n_receivers=1 junk\n1.0\n"),
        "line 1: bad header: 'junk' is not key=value"),
    "estimate header empty method": (
        from_file(load_estimate, ESTIMATE_HEADER.replace("lsda", "") + ESTIMATE_BODY),
        "line 1: bad header: method must be one of .*, got ''"),
    "estimate header unknown method": (
        from_file(load_estimate, ESTIMATE_HEADER.replace("lsda", "magic") + ESTIMATE_BODY),
        "line 1: bad header: method must be one of .*, got 'magic'"),
}


@pytest.mark.parametrize("call, match", ROWS.values(), ids=ROWS.keys())
def test_refused(call, match, tmp_path):
    with pytest.raises(MixProfileError, match=match):
        call(tmp_path)
