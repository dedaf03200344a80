import csv
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import mixprofile.experiment
from mixprofile import (
    ExperimentSpec,
    InvalidParameterError,
    NormalEquations,
    ParseError,
    SingularSystemError,
    Trace,
    load_spec,
    run_experiment,
    save_report_csv,
    save_report_json,
    save_spec,
)


def tiny_spec(**overrides):
    base = dict(
        n_users=10,
        n_friends=3,
        rho=200,
        t=5,
        methods=("lsda",),
        repetitions=2,
        master_seed=7,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def read_rows(path):
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


class TestSpec:
    def test_sweep_alias(self):
        spec = tiny_spec(sweep_param="N", sweep_values=(5, 10))
        assert spec.sweep_param == "n_users"

    def test_rejects_unknown_sweep(self):
        with pytest.raises(InvalidParameterError):
            tiny_spec(sweep_param="threshold", sweep_values=(1,))

    def test_rejects_sweep_values_without_sweep_param(self):
        with pytest.raises(InvalidParameterError, match="sweep_values needs a sweep_param"):
            tiny_spec(sweep_values=(100, 200))

    def test_spec_file_sweep_values_without_sweep_param(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{\n "n_users": 10,\n "sweep_values": [100, 200]\n}\n')
        with pytest.raises(ParseError, match="line 3: sweep_values needs a sweep_param"):
            load_spec(path)

    def test_rejects_unknown_method(self):
        with pytest.raises(InvalidParameterError):
            tiny_spec(methods=("pmda",))

    def test_spec_file_round_trip(self, tmp_path):
        spec = tiny_spec(sweep_param="rho", sweep_values=(100, 200))
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        assert load_spec(path) == spec


    def test_spec_file_unknown_key(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{\n "n_users": 10,\n "n_usres": 12\n}\n')
        with pytest.raises(ParseError, match="line 3: unknown spec field 'n_usres'"):
            load_spec(path)

    def test_spec_file_repeated_key(self, tmp_path):
        # json keeps the last value, so this file used to load with rho=50
        path = tmp_path / "spec.json"
        path.write_text('{\n "n_users": 10,\n "n_friends": 5,\n "rho": 500,\n "rho": 50\n}\n')
        with pytest.raises(ParseError, match="line 4: rho is given twice"):
            load_spec(path)

    def test_spec_file_malformed_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{\n "n_users": 10,\n}\n')
        with pytest.raises(ParseError, match="line 3:"):
            load_spec(path)

    def test_rejects_a_repeated_method(self):
        with pytest.raises(InvalidParameterError, match="methods must be a list of distinct"):
            tiny_spec(methods=("lsda", "clsda", "lsda"))

    @pytest.mark.parametrize("overrides, users, friends", [
        (dict(n_users=2), 2, 3),
        (dict(n_friends=11), 10, 11),
        (dict(sweep_param="n_users", sweep_values=(10, 2)), 2, 3),
        (dict(sweep_param="N", sweep_values=(10, 2)), 2, 3),
        (dict(sweep_param="n_friends", sweep_values=(3, 12)), 10, 12),
    ])
    def test_rejects_a_cell_with_more_friends_than_users(self, overrides, users, friends):
        with pytest.raises(InvalidParameterError,
                           match=rf"n_friends must lie in \[1, n_users\]; got {friends} for {users} users"):
            tiny_spec(**overrides)

    def test_a_sweep_may_leave_the_base_sizes_unused(self):
        spec = tiny_spec(n_users=2, n_friends=3, sweep_param="n_users", sweep_values=(3, 5))
        assert spec.sweep_values == (3, 5)

    @pytest.mark.parametrize("doc, line, match", [
        ({"n_users": 20, "n_friends": 5, "sweep_param": "n_users", "sweep_values": [20, 3]}, 5,
         "n_friends must lie in \\[1, n_users\\]; got 5 for 3 users"),
        ({"t": 4, "n_users": 8}, 3, "n_friends must lie .*; got 25 for 8 users"),
        ({"t": 4, "n_friends": 130}, 3, "n_friends must lie .*; got 130 for 100 users"),
        ({"mix_kind": "threshold", "alpha": 0.5, "m": 4}, 3,
         "mix_kind threshold reads neither alpha nor m; got alpha=0.5"),
        ({"mix_kind": "threshold", "t": 4, "m": 4}, 4, "mix_kind threshold reads .*; got m=4"),
        ({"sweep_param": "alpha", "sweep_values": [0.2, 0.9]}, 2,
         "mix_kind threshold reads .*; got sweep_param='alpha'"),
        ({"methods": ["lsda", "lsda"]}, 2, "methods must be a list of distinct methods"),
    ])
    def test_spec_file_rule_names_the_line(self, tmp_path, doc, line, match):
        path = tmp_path / "spec.json"
        path.write_text("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                            for k, v in doc.items()) + "\n}\n")
        with pytest.raises(ParseError, match=f"line {line}: {match}"):
            load_spec(path)

    def test_pool_spec_may_sweep_alpha(self):
        spec = tiny_spec(mix_kind="binomial_pool", m=3, sweep_param="alpha", sweep_values=(0.2, 0.9))
        assert spec.sweep_values == (0.2, 0.9)


class TestRunExperiment:
    def test_minimal_sweep_has_one_row(self):
        report = run_experiment(tiny_spec(repetitions=1))
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.method == "lsda"
        assert row.status == "ok"
        assert row.mse_p_mean > 0

    def test_row_count_is_values_times_methods(self):
        spec = tiny_spec(sweep_param="rho", sweep_values=(100, 200), methods=("lsda", "zclip"))
        report = run_experiment(spec)
        assert len(report.rows) == 4

    def test_determinism(self):
        spec = tiny_spec(sweep_param="t", sweep_values=(3, 6))
        a = run_experiment(spec)
        b = run_experiment(spec)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.mse_p_mean == rb.mse_p_mean
            assert ra.mse_p_std == rb.mse_p_std
            assert ra.mse_i_mean == rb.mse_i_mean

    def test_theory_halves_when_rho_doubles(self):
        spec = tiny_spec(sweep_param="rho", sweep_values=(1000, 2000), repetitions=1)
        report = run_experiment(spec)
        t1, t2 = (row.mse_p_theory_exact for row in report.rows)
        assert t1 == pytest.approx(2 * t2, rel=1e-12)

    def test_estimator_failure_recorded_not_raised(self):
        # rho < n_users leaves the normal equations singular
        spec = tiny_spec(rho=5, repetitions=1, methods=("lsda", "sda"))
        report = run_experiment(spec)
        by_method = {row.method: row for row in report.rows}
        assert by_method["lsda"].status == "singular-system"
        assert np.isnan(by_method["lsda"].mse_p_mean)
        # multinomial senders essentially never give the sda scenario
        assert by_method["sda"].status == "invalid-scenario"

    def test_diverging_solver_recorded_not_raised(self, monkeypatch):
        # a step ten times too long trips clsda's objective-increase guard
        true_lambda_max = NormalEquations.lambda_max
        monkeypatch.setattr(NormalEquations, "lambda_max", lambda eq: true_lambda_max(eq) / 10)
        report = run_experiment(tiny_spec(methods=("lsda", "clsda")))
        by_method = {row.method: row for row in report.rows}
        assert by_method["lsda"].status == "ok"
        assert by_method["clsda"].status == "solver-diverged"
        assert np.isnan(by_method["clsda"].mse_p_mean)

    def test_pool_experiment_runs(self):
        spec = tiny_spec(mix_kind="binomial_pool", alpha=0.6, m=4, repetitions=1)
        report = run_experiment(spec)
        assert report.rows[0].status == "ok"

    def test_string_valued_sweep(self):
        spec = tiny_spec(sweep_param="freq_dist", sweep_values=("uniform", "zipf"),
                         repetitions=1)
        report = run_experiment(spec)
        assert [row.sweep_value for row in report.rows] == ["uniform", "zipf"]
        assert all(row.status == "ok" for row in report.rows)

    def test_memory_does_not_grow_with_repetitions(self):
        def peak(repetitions):
            spec = ExperimentSpec(n_users=30, rho=4000, methods=("lsda", "clsda"),
                                  repetitions=repetitions)
            tracemalloc.start()
            try:
                run_experiment(spec)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # warm up what a first run allocates once
        assert peak(6) <= 1.5 * peak(1)

    def test_a_failing_method_leaves_the_other_rows_alone(self):
        spec = tiny_spec(repetitions=3, sweep_param="rho", sweep_values=(200, 400))
        alone = run_experiment(spec).rows
        paired = run_experiment(replace(spec, methods=("lsda", "sda"))).rows
        assert [row.method for row in paired] == ["lsda", "sda"] * 2
        for a, b in zip(alone, paired[::2]):
            assert (a.mse_p_mean, a.mse_p_std, a.mse_p_theory_exact, a.mse_p_theory_rough) == \
                (b.mse_p_mean, b.mse_p_std, b.mse_p_theory_exact, b.mse_p_theory_rough)
            assert a.mse_i_mean == b.mse_i_mean and a.status == b.status == "ok"
        assert all(row.status == "invalid-scenario" for row in paired[1::2])

    @pytest.mark.parametrize("methods", [("lsda", "clsda", "zclip", "rls"),
                                         ("rls", "zclip", "clsda", "lsda")])
    def test_methods_sharing_a_trace_match_each_run_alone(self, methods):
        spec = tiny_spec(mix_kind="binomial_pool", alpha=0.6, m=4, n_users=12, rho=600,
                         methods=methods)
        together = {row.method: row for row in run_experiment(spec).rows}
        for method in methods:
            (alone,) = run_experiment(replace(spec, methods=(method,))).rows
            row = together[method]
            assert row.status == alone.status == "ok"
            assert np.float64(row.mse_p_mean).tobytes() == np.float64(alone.mse_p_mean).tobytes()
            assert np.asarray(row.mse_i_mean).tobytes() == np.asarray(alone.mse_i_mean).tobytes()

    def test_a_failed_method_is_not_run_again(self, monkeypatch):
        calls = []

        def singular(trace):
            calls.append(trace)
            raise SingularSystemError("singular")

        monkeypatch.setattr(mixprofile.experiment, "lsda", singular)
        rows = run_experiment(tiny_spec(repetitions=3, methods=("lsda", "clsda"))).rows
        assert len(calls) == 1
        assert [row.status for row in rows] == ["singular-system", "ok"]


def test_each_estimator_sees_each_trace_once(monkeypatch):
    """The experiment's module globals are called once per (cell, repetition), trace first."""
    calls = {name: [] for name in ("simulate_trace", "lsda", "clsda")}

    def recorder(name):
        wrapped = getattr(mixprofile.experiment, name)

        def record(*args, **kwargs):
            result = wrapped(*args, **kwargs)
            calls[name].append(result if name == "simulate_trace" else args[0])
            return result

        return record

    for name in calls:
        monkeypatch.setattr(mixprofile.experiment, name, recorder(name))
    spec = tiny_spec(repetitions=3, sweep_param="rho", sweep_values=(200, 300),
                     methods=("lsda", "clsda"))
    assert all(row.status == "ok" for row in run_experiment(spec).rows)
    traces = calls["simulate_trace"]
    assert len(traces) == 6 and all(isinstance(trace, Trace) for trace in traces)
    for seen in (calls["lsda"], calls["clsda"]):
        assert len(seen) == 6 and all(a is b for a, b in zip(seen, traces))


class TestReportFiles:
    def test_csv_schema_and_determinism(self, tmp_path):
        spec = tiny_spec(sweep_param="rho", sweep_values=(100, 200))
        p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        save_report_csv(run_experiment(spec), p1)
        save_report_csv(run_experiment(spec), p2)
        rows1, rows2 = read_rows(p1), read_rows(p2)
        assert list(rows1[0]) == [
            "sweep_param",
            "sweep_value",
            "method",
            "mse_p_mean",
            "mse_p_std",
            "mse_p_theory_exact",
            "mse_p_theory_rough",
            "wall_ms",
            "status",
        ]
        for r1, r2 in zip(rows1, rows2):
            r1.pop("wall_ms")
            r2.pop("wall_ms")
            assert r1 == r2

    def test_json_report(self, tmp_path):
        path = tmp_path / "report.json"
        save_report_json(run_experiment(tiny_spec(repetitions=1)), path)
        doc = json.loads(path.read_text())
        assert doc["rows"][0]["method"] == "lsda"
        assert "spec" in doc["metadata"]
        assert len(doc["rows"][0]["mse_i_mean"]) == 10
