import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mixprofile
from mixprofile import (MixConfig, UserPopulation, load_estimate, load_population, load_trace,
                        save_trace, simulate_trace)
from mixprofile.cli import build_parser, main
from mixprofile import estimators
from mixprofile.estimators import METHODS
from mixprofile.mixsim import MIX_KINDS


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

    def test_threshold_prediction_reports_alpha_one_figures(self, tmp_path):
        pop_path, pred_path = tmp_path / "pop.json", tmp_path / "pred.json"
        run("gen", "--n-users", 6, "--n-friends", 2, "--seed", 1, "--out", pop_path)
        assert run("predict", "--population", pop_path, "--kind", "threshold",
                   "--t", 3, "--rho", 50, "--out", pred_path) == 0
        doc = json.loads(pred_path.read_text())
        figures = [doc[key] for key in ("alpha_q", "alpha_r", "round_penalty", "mean_delay")]
        assert figures == [1.0, 1.0, 1.0, 0.0]

    @pytest.mark.parametrize("kind", MIX_KINDS)
    def test_prediction_names_its_mix_kind(self, tmp_path, kind):
        pop_path, pred_path = tmp_path / "pop.json", tmp_path / "pred.json"
        run("gen", "--n-users", 6, "--n-friends", 2, "--seed", 1, "--out", pop_path)
        assert run("predict", "--population", pop_path, "--kind", kind, "--t", 3, "--rho", 50,
                   "--out", pred_path) == 0
        assert json.loads(pred_path.read_text())["mix_kind"] == kind

    def test_sda_estimates_every_sender(self, tmp_path):
        pop_path, trace_path, est_path = (tmp_path / name for name in ("pop.json", "t.txt", "e.txt"))
        run("gen", "--n-users", 9, "--n-friends", 3, "--seed", 4, "--out", pop_path)
        run("simulate", "--population", pop_path, "--t", 4, "--rho", 80, "--seed", 5,
            "--out", trace_path)
        assert run("attack", "--trace", trace_path, "--method", "sda", "--out", est_path) == 0
        est = load_estimate(est_path)
        assert (est.method, est.iterations, est.P_hat.shape) == ("sda", 80, (9, 9))

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
        assert run("attack", "--trace", trace_path, "--method", "clsda", "--out", est_path) == 0
        est = load_estimate(est_path)
        np.testing.assert_allclose(est.P_hat.sum(axis=1), 1.0, atol=1e-6)

    def test_unconverged_attack_warns_on_stderr(self, tmp_path, capsys, monkeypatch):
        pop_path, trace_path, est_path = (tmp_path / name for name in ("pop.json", "t.txt", "e.txt"))
        run("gen", "--n-users", 8, "--n-friends", 3, "--seed", 1, "--out", pop_path)
        run("simulate", "--population", pop_path, "--t", 4, "--rho", 150, "--seed", 2,
            "--out", trace_path)
        capsys.readouterr()
        with monkeypatch.context() as m:
            m.setattr(estimators, "MAX_ITER", 1)
            assert run("attack", "--trace", trace_path, "--method", "clsda",
                       "--out", est_path) == 0
        out, err = capsys.readouterr()
        assert "converged=False" in out
        assert err == "warning: clsda did not converge in 1 iterations\n"
        assert load_estimate(est_path).converged is False
        assert run("attack", "--trace", trace_path, "--method", "clsda", "--out", est_path) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("kind", MIX_KINDS)
    def test_attack_names_the_senders_that_sent_nothing(self, tmp_path, capsys, kind, method):
        # sender 3 has frequency 0: a threshold trace cannot identify its row, and a pool trace
        # fits it only to the initial pool's prior term; a written estimate must say so
        pop = UserPopulation(np.full((4, 4), 0.25), np.array([1.0, 1.0, 1.0, 0.0]) / 3)
        config, seed = MixConfig(t=3), 1
        if kind == "binomial_pool":
            config = MixConfig(kind=kind, t=3, alpha=0.5, m=4, pool_prior=np.full(4, 0.25))
            seed = 2
        trace_path, est_path = tmp_path / "trace.txt", tmp_path / "est.txt"
        save_trace(simulate_trace(pop, config, 400, seed=seed), trace_path)
        assert not load_trace(trace_path).U[:, 3].any()
        refusal = {
            ("threshold", "lsda"): "senders [3] are not identified by this trace",
            ("threshold", "rls"): "senders [3] are not identified by this trace",
            ("threshold", "zclip"): "senders [3] are not identified by this trace",
            ("binomial_pool", "sda"): "sda needs a threshold trace, got binomial_pool",
        }.get((kind, method))
        code = run("attack", "--trace", trace_path, "--method", method, "--out", est_path)
        out, err = capsys.readouterr()
        if refusal:
            assert code == 1 and err.startswith("error: ") and refusal in err
            assert not est_path.exists()
        else:
            assert code == 0 and out.endswith(f"wrote {est_path}\n")
            assert err == ("warning: senders [3] sent no message in this trace; their rows are "
                           "not estimated from their messages\n")
            assert load_estimate(est_path).P_hat.shape == (4, 4)

    def test_attack_error_reported(self, tmp_path, capsys):
        pop_path = tmp_path / "pop.json"
        trace_path = tmp_path / "trace.txt"
        run("gen", "--n-users", 10, "--n-friends", 3, "--seed", 1, "--out", pop_path)
        run("simulate", "--population", pop_path, "--t", 5, "--rho", 4,
            "--seed", 2, "--out", trace_path)
        code = run("attack", "--trace", trace_path, "--method", "lsda",
                   "--out", tmp_path / "est.txt")
        assert code == 1
        assert capsys.readouterr().err == (
            "error: gram matrix is rank deficient: rank 4 of 10; "
            f"senders {list(range(10))} are not identified by this trace\n"
        )
        assert not (tmp_path / "est.txt").exists()

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

    def test_trace_header_sizes_too_large(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "trace.txt"
        path.write_text("# mixtrace n_senders=1000000000000 n_receivers=2 t=2 kind=threshold "
                        "alpha=1.0 m=0 rho=1 seed=0\n0 in 0:2 out 1:2\n")

        def no_memory(shape, *args, **kwargs):
            raise MemoryError(f"cannot allocate {shape}")

        # stands in for the allocator, so that the test itself allocates nothing
        monkeypatch.setattr(np, "zeros", no_memory)
        self.check_error(capsys, "attack", "--trace", path, "--out", tmp_path / "est.txt",
                         match="line 1: header sizes too large")

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

    def test_spec_with_sweep_values_but_no_sweep_param(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{\n "n_users": 8,\n "sweep_values": [100, 200]\n}\n')
        self.check_error(capsys, "experiment", "--spec", spec_path, "--out", tmp_path / "r.json",
                         match="line 3: sweep_values needs a sweep_param")

    @pytest.mark.parametrize("argv", [
        ("simulate", "--population", "{missing}", "--rho", 10),
        ("attack", "--trace", "{missing}"),
        ("predict", "--population", "{missing}", "--rho", 10),
        ("ingest", "--events", "{missing}", "--population-out", "{tmp}/pop.json"),
        ("experiment", "--spec", "{missing}"),
    ], ids=lambda argv: argv[0])
    def test_missing_input_file(self, tmp_path, capsys, argv):
        fill = {"missing": tmp_path / "missing.txt", "tmp": tmp_path}
        argv = [str(a).format(**fill) for a in argv]
        self.check_error(capsys, *argv, "--out", tmp_path / "out.txt",
                         match=f"No such file or directory: '{tmp_path / 'missing.txt'}'")
        assert not (tmp_path / "out.txt").exists()

    def test_gen_with_a_negative_seed(self, tmp_path, capsys):
        self.check_error(capsys, "gen", "--n-users", 4, "--n-friends", 2, "--seed", -1,
                         "--out", tmp_path / "pop.json",
                         match="seed must be an integer >= 0, got -1")

    def test_simulate_with_a_negative_seed(self, tmp_path, capsys):
        pop_path = tmp_path / "pop.json"
        assert run("gen", "--n-users", 4, "--n-friends", 2, "--out", pop_path) == 0
        self.check_error(capsys, "simulate", "--population", pop_path, "--rho", 10,
                         "--seed", -2, "--out", tmp_path / "trace.txt",
                         match="seed must be an integer >= 0, got -2")

    @pytest.mark.parametrize("argv", [
        ("attack", "--trace", "t.txt", "--seed", 1),
        ("attack", "--trace", "t.txt", "--init", "uniform"),
        ("attack", "--trace", "t.txt", "--step-scale", 1.0),
        ("attack", "--trace", "t.txt", "--format", "json"),
        ("gen", "--n-users", 4, "--n-friends", 2, "--format", "csv"),
        ("simulate", "--population", "p.json", "--rho", 10, "--format", "csv"),
        ("predict", "--population", "p.json", "--rho", 10, "--seed", 1),
        ("ingest", "--events", "e.csv", "--population-out", "p.json", "--seed", 1),
        ("ingest", "--events", "e.csv", "--population-out", "p.json", "--format", "csv"),
        pytest.param(("attack", "--trace", "t.txt", "--method", "lsda", "--ridge"),
                     id="attack--ridge"),
        pytest.param(("attack", "--trace", "t.txt", "--method", "clsda", "--max-iter", 1),
                     id="attack--max-iter"),
        pytest.param(("attack", "--trace", "t.txt", "--method", "clsda", "--tol", 1e-9),
                     id="attack--tol"),
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_flag_the_subcommand_does_not_read(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            run(*argv, "--out", "out.txt")
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("lsda", "--tol", 5),
        ("lsda", "--max-iter", 1),
        ("rls", "--tol", 1e-9),
        ("zclip", "--max-iter", 10),
        ("sda", "--tol", 1e-3),
    ], ids=lambda argv: f"{argv[0]}{argv[1]}")
    def test_flag_the_method_does_not_read(self, tmp_path, capsys, argv):
        # no method reads --tol or --max-iter, so argparse refuses them before any file is opened
        method, flag, value = argv
        with pytest.raises(SystemExit) as info:
            run("attack", "--trace", tmp_path / "missing.txt", "--method", method,
                flag, value, "--out", tmp_path / "est.txt")
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        assert "Traceback" not in err
        assert not (tmp_path / "est.txt").exists()

    @pytest.mark.parametrize("argv", [
        ("simulate", "--alpha", 0.3),
        ("simulate", "--m", 5),
        ("predict", "--alpha", 0.3),
    ], ids=lambda argv: f"{argv[0]}{argv[1]}")
    def test_flag_the_threshold_kind_does_not_read(self, tmp_path, capsys, argv):
        # a threshold mix has alpha=1 and m=0; MixConfig refuses any other value before the
        # population file (here a missing one) is opened
        command, flag, value = argv
        key = flag.lstrip("-")
        self.check_error(capsys, command, "--population", tmp_path / "missing.json", "--rho", 10,
                         "--kind", "threshold", flag, value, "--out", tmp_path / "out.txt",
                         match=f"mix_kind threshold reads neither alpha nor m; got {key}={value}")
        assert not (tmp_path / "out.txt").exists()

    def test_threshold_kind_accepts_its_own_alpha_and_m(self, tmp_path):
        pop_path, trace_path = tmp_path / "pop.json", tmp_path / "trace.txt"
        run("gen", "--n-users", 6, "--n-friends", 2, "--seed", 1, "--out", pop_path)
        assert run("simulate", "--population", pop_path, "--kind", "threshold", "--alpha", 1,
                   "--m", 0, "--t", 3, "--rho", 20, "--out", trace_path) == 0
        assert load_trace(trace_path).config == MixConfig(t=3)

    def test_predict_refuses_the_old_pool_spelling(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            run("predict", "--population", tmp_path / "missing.json", "--rho", 10,
                "--kind", "pool", "--alpha", 0.5, "--out", tmp_path / "out.json")
        assert info.value.code == 2
        assert "invalid choice: 'pool'" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("argv, text", [
        pytest.param(("attack", "--trace", "{bad}"),
                     b"# mixtrace n_senders=2 n_receivers=2 t=2 kind=threshold alpha=1.0 m=0 "
                     b"rho=1 seed=0\n0 in 0:2 out 1:\xff2\n", id="attack"),
        pytest.param(("simulate", "--population", "{bad}", "--rho", 10),
                     b'{"n_senders": 1,\n "\xff": 1}\n', id="simulate"),
        pytest.param(("predict", "--population", "{bad}", "--rho", 10),
                     b'{"n_senders": 1,\n "\xff": 1}\n', id="predict"),
        pytest.param(("ingest", "--events", "{bad}", "--population-out", "{tmp}/pop.json"),
                     b"0,a,b\n1,\xfe\xff,c\n", id="ingest"),
        pytest.param(("experiment", "--spec", "{bad}"), b'{"n_users": 8,\n "rho": "\xff"}\n',
                     id="experiment"),
    ])
    def test_input_that_is_not_utf8(self, tmp_path, capsys, argv, text):
        (tmp_path / "bad").write_bytes(text)
        argv = [str(a).format(bad=tmp_path / "bad", tmp=tmp_path) for a in argv]
        self.check_error(capsys, *argv, "--out", tmp_path / "out.txt",
                         match="line 2: 'utf-8' codec can't decode byte")
        assert not (tmp_path / "out.txt").exists()

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


def test_import_path_loads_no_scipy():
    # the runtime needs numpy only; importing scipy would add about a second to every command
    src = str(Path(mixprofile.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = ("import sys, mixprofile, mixprofile.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            check=True)
    assert result.stdout.strip() == "[]"
