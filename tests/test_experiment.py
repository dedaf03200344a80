import csv
import json

import numpy as np
import pytest

from mixprofile import (
    ExperimentSpec,
    InvalidParameterError,
    NormalEquations,
    ParseError,
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

    def test_spec_file_malformed_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{\n "n_users": 10,\n}\n')
        with pytest.raises(ParseError, match="line 3:"):
            load_spec(path)


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
