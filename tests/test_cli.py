import argparse
import json

import numpy as np
import pytest

from mixprofile import load_estimate, load_population, load_trace
from mixprofile.cli import build_parser, main
from mixprofile.estimators import INIT_PROJECTED, INIT_UNIFORM, METHODS, SolverOptions


def run(*argv):
    return main([str(a) for a in argv])


class TestPipeline:
    def test_gen_simulate_attack_predict(self, tmp_path):
        pop_path = tmp_path / "pop.json"
        trace_path = tmp_path / "trace.txt"
        est_path = tmp_path / "est.txt"
        pred_path = tmp_path / "pred.json"

        assert run("gen", "--n-users", 12, "--n-friends", 4, "--seed", 3,
                   "--out", pop_path) == 0
        pop = load_population(pop_path)
        assert pop.n_senders == 12

        assert run("simulate", "--population", pop_path, "--kind", "threshold",
                   "--t", 5, "--rho", 120, "--seed", 9, "--out", trace_path) == 0
        trace = load_trace(trace_path)
        assert trace.rho == 120

        assert run("attack", "--trace", trace_path, "--method", "lsda",
                   "--out", est_path) == 0
        est = load_estimate(est_path)
        assert est.P_hat.shape == (12, 12)

        assert run("predict", "--population", pop_path, "--kind", "threshold",
                   "--t", 5, "--rho", 120, "--out", pred_path) == 0
        doc = json.loads(pred_path.read_text())
        assert doc["mse_transition"] > 0
        assert len(doc["mse_profile"]) == 12

    def test_pool_simulation_and_clsda(self, tmp_path):
        pop_path = tmp_path / "pop.json"
        trace_path = tmp_path / "trace.txt"
        est_path = tmp_path / "est.txt"
        run("gen", "--n-users", 8, "--n-friends", 3, "--seed", 1, "--out", pop_path)
        assert run("simulate", "--population", pop_path, "--kind", "binomial_pool",
                   "--t", 4, "--alpha", 0.5, "--m", 6, "--rho", 150, "--seed", 2,
                   "--out", trace_path) == 0
        trace = load_trace(trace_path)
        assert trace.config.m == 6
        assert trace.config.pool_prior is not None
        assert run("attack", "--trace", trace_path, "--method", "clsda",
                   "--max-iter", 500, "--out", est_path) == 0
        est = load_estimate(est_path)
        np.testing.assert_allclose(est.P_hat.sum(axis=1), 1.0, atol=1e-6)

    def test_attack_error_reported(self, tmp_path, capsys):
        pop_path = tmp_path / "pop.json"
        trace_path = tmp_path / "trace.txt"
        run("gen", "--n-users", 10, "--n-friends", 3, "--seed", 1, "--out", pop_path)
        run("simulate", "--population", pop_path, "--t", 5, "--rho", 4,
            "--seed", 2, "--out", trace_path)
        code = run("attack", "--trace", trace_path, "--method", "lsda",
                   "--out", tmp_path / "est.txt")
        assert code == 1
        assert "rank deficient" in capsys.readouterr().err

    def test_ingest(self, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text("\n".join(f"{i},s{i % 4},r{i % 3}" for i in range(25)) + "\n")
        trace_path = tmp_path / "trace.txt"
        pop_path = tmp_path / "pop.json"
        assert run("ingest", "--events", events, "--t", 4, "--min-sender-messages", 0,
                   "--population-out", pop_path, "--out", trace_path) == 0
        trace = load_trace(trace_path)
        assert trace.rho == 6
        pop = load_population(pop_path)
        assert pop.n_senders == 4

    def test_experiment_csv(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "n_users": 8,
            "n_friends": 3,
            "rho": 150,
            "t": 4,
            "sweep_param": "rho",
            "sweep_values": [100, 200],
            "methods": ["lsda"],
            "repetitions": 2,
            "master_seed": 5,
        }))
        out = tmp_path / "report.csv"
        assert run("experiment", "--spec", spec_path, "--format", "csv",
                   "--out", out) == 0
        lines = out.read_text().splitlines()
        header = next(ln for ln in lines if not ln.startswith("#"))
        assert header.startswith("sweep_param,sweep_value,method,mse_p_mean")
        assert len([ln for ln in lines if not ln.startswith("#")]) == 3


class TestBadInput:
    def check_error(self, capsys, *argv, match):
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert match in err
        assert "Traceback" not in err

    def test_trace_header_beyond_the_file(self, tmp_path, capsys):
        path = tmp_path / "trace.txt"
        path.write_text("# mixtrace n_senders=2 n_receivers=2 t=2 kind=threshold alpha=1.0 m=0 "
                        "rho=1000000000000 seed=0\n0 in 0:2 out 1:2\n")
        self.check_error(capsys, "attack", "--trace", path, "--out", tmp_path / "est.txt",
                         match="line 1: rho=1000000000000 rounds cannot fit")

    def test_population_header_beyond_its_frequencies(self, tmp_path, capsys):
        path = tmp_path / "pop.json"
        path.write_text(json.dumps({"n_senders": 10**9, "n_receivers": 2,
                                    "frequencies": [0.5, 0.5], "profiles": []}))
        self.check_error(capsys, "simulate", "--population", path, "--rho", 10,
                         "--out", tmp_path / "trace.txt",
                         match="2 frequencies for n_senders=1000000000")

    def test_spec_with_unknown_key(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{\n "n_users": 8,\n "repititions": 2\n}\n')
        self.check_error(capsys, "experiment", "--spec", spec_path, "--out", tmp_path / "r.json",
                         match="line 3: unknown spec field 'repititions'")

    def test_malformed_spec_json(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"n_users": 8,, "t": 4}\n')
        self.check_error(capsys, "experiment", "--spec", spec_path, "--out", tmp_path / "r.json",
                         match="line 1: malformed spec JSON")

    @pytest.mark.parametrize("field, value", [
        ("rho", 100.5),
        ("n_users", 8.5),
        ("rho", "100"),
        ("alpha", "0.5"),
        ("repetitions", 1.5),
        ("master_seed", -1),
        ("sweep_values", "ab"),
        ("t", 2.5),
        ("t", True),
        ("include_theory", 1),
    ])
    def test_spec_with_a_bad_value(self, tmp_path, capsys, field, value):
        doc = {"n_users": 8, "n_friends": 3, "rho": 150, "t": 4, "sweep_param": "rho",
               "sweep_values": [100, 200], field: value}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                                for k, v in doc.items()) + "\n}\n")
        line = 2 + list(doc).index(field)
        self.check_error(capsys, "experiment", "--spec", spec_path, "--out", tmp_path / "r.json",
                         match=f"line {line}: {field} must be")

    @pytest.mark.parametrize("values", [[100, 200.5], [100, "200"], [100, True]])
    def test_spec_with_a_bad_sweep_value(self, tmp_path, capsys, values):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"n_users": 8, "sweep_param": "rho", "sweep_values": values,
                                         "rho": 100}, indent=1))
        self.check_error(capsys, "experiment", "--spec", spec_path, "--out", tmp_path / "r.json",
                         match="line 4: rho must be")


def test_attack_options_match_the_library():
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {a.dest: a for a in subparsers.choices["attack"]._actions}
    assert tuple(options["method"].choices) == METHODS
    assert tuple(options["init"].choices) == (INIT_UNIFORM, INIT_PROJECTED)
    solver = SolverOptions()
    for name in ("step_scale", "max_iter", "tol", "init"):
        assert options[name].default == getattr(solver, name)
