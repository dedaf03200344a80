import json

import numpy as np

from mixprofile import load_estimate, load_population, load_trace
from mixprofile.cli import main


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
