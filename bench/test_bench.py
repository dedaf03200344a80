"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest bench

They check that every declared metric is printed with its unit, that the
inputs follow the seed, and that corrupted outputs count as failures.
"""

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import run  # this directory is on sys.path when pytest collects the file

sys.path.insert(0, str(run.SRC))
import mixprofile.experiment  # noqa: E402
import workloads  # noqa: E402
from mixprofile import ExperimentSpec, load_estimate, save_estimate  # noqa: E402

SMOKE = {
    "sweep-threshold": lambda: workloads.SweepWorkload(
        "sweep-threshold",
        ExperimentSpec(n_users=20, n_friends=5, t=5, sweep_param="rho",
                       sweep_values=(1000, 2000), methods=("lsda", "zclip"), repetitions=2),
        ratio_tol=0.25,
    ),
    "sweep-pool": lambda: workloads.SweepWorkload(
        "sweep-pool",
        ExperimentSpec(n_users=20, n_friends=5, mix_kind="binomial_pool", t=5, alpha=0.5,
                       m=5, rho=2000, methods=("lsda", "clsda")),
        ratio_tol=0.30,
    ),
    "ingest-rls": lambda: workloads.IngestWorkload(
        n_events=5000, n_senders=12, n_receivers=15, n_contacts=4, t=5, min_sender_messages=20
    ),
}


@pytest.fixture
def smoke(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "make_workload", lambda name: SMOKE[name]())
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    return tmp_path


def started(name, tmp_path, seed=3):
    workload = SMOKE[name]()
    workload.setup(seed, str(tmp_path))
    return workload


def checked_op(workload, k=0):
    """Op ``k`` with the workload's hooks, as the benchmark runs it."""
    from tracing import Tracer

    _, out, problems = run.run_op(workload, k, Tracer())
    return out, problems


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", sorted(SMOKE))
def test_every_declared_metric_is_printed_with_its_unit(smoke, capsys, name, trace):
    code = run.main(["--workload", name, "--seed", "5", "--seconds", "0.2", "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    line = json.loads(lines[-1])

    assert code == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
    declared = run.declared_metrics(bool(trace))
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in line["metrics"].items()
    }
    for m in declared:
        value = line["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float)) and np.isfinite(value)
        assert any(text.startswith(f"  {m['name']} = ") and text.endswith(m["unit"]) for text in lines)
    assert any(text.startswith("  error_rate = 0 failed/attempted") for text in lines)


def test_clsda_row_off_the_simplex_fails(tmp_path, monkeypatch):
    workload = started("sweep-pool", tmp_path)
    assert checked_op(workload)[1] == []

    solve = mixprofile.experiment.clsda

    def shifted(trace, *args, **kwargs):
        est = solve(trace, *args, **kwargs)
        p_hat = est.P_hat.copy()
        p_hat[0] += 0.01
        return replace(est, P_hat=p_hat)

    monkeypatch.setattr(mixprofile.experiment, "clsda", shifted)
    assert any("off the simplex" in p for p in checked_op(workload)[1])


def test_lsda_off_the_normal_equations_fails(tmp_path, monkeypatch):
    workload = started("sweep-threshold", tmp_path)
    solve = mixprofile.experiment.lsda

    def nudged(trace, *args, **kwargs):
        est = solve(trace, *args, **kwargs)
        return replace(est, P_hat=est.P_hat + 1e-4)

    monkeypatch.setattr(mixprofile.experiment, "lsda", nudged)
    assert any("normal equations" in p for p in checked_op(workload)[1])


def test_hook_time_is_not_op_time(tmp_path):
    from tracing import HOOK_SPAN, Tracer

    workload = started("sweep-threshold", tmp_path)
    check = workload._check_lsda

    def slow_check(args, estimate):
        time.sleep(0.2)
        check(args, estimate)

    workload._check_lsda = slow_check
    tracer = Tracer()
    latency, _, problems = run.run_op(workload, 0, tracer, record=True)
    assert problems == []
    # two rho values, two repetitions, and lsda runs for both the lsda and zclip rows
    assert tracer.hook_seconds >= 0.2 * 8
    assert latency < tracer.hook_seconds
    hooks = [span for span in tracer.spans if span.name == HOOK_SPAN]
    parents = {tracer.spans[span.parent].name for span in hooks}
    assert len(hooks) == 8 and parents == {"experiment.run_experiment"}


def test_failed_row_and_missed_theory_fail(tmp_path):
    workload = started("sweep-threshold", tmp_path)
    out, _ = checked_op(workload)
    out.report.rows[0].mse_p_mean *= 2.0
    out.report.rows[1].status = "singular-system"
    problems = workload.check(out)
    assert any("mse/theory" in p for p in problems)
    assert any("status singular-system" in p for p in problems)


@pytest.mark.parametrize("target, expected", [
    ("rls", ["rls and lsda differ"]),
    ("lsda", ["rls and lsda differ", "normal equations"]),
])
def test_corrupted_estimate_file_fails(tmp_path, target, expected):
    workload = started("ingest-rls", tmp_path)
    out, problems = checked_op(workload)
    assert problems == []

    path = getattr(workload, target)
    est = load_estimate(path)
    save_estimate(replace(est, P_hat=est.P_hat + 1e-4), path)
    problems = workload.check(out)
    for text in expected:
        assert any(text in p for p in problems), problems


def test_changed_replay_of_op_0_fails(smoke):
    workload = SMOKE["sweep-pool"]()
    original = workload.op
    calls = []

    def op(k):
        out = original(k)
        calls.append(k)
        if len(calls) > 1 and k == 0:  # the replay at the end of the run
            out.report.rows[0].mse_p_mean = np.nextafter(out.report.rows[0].mse_p_mean, 1.0)
        return out

    workload.op = op
    result = run.run_workload(workload, seed=1, seconds=0.0, traced=False)
    assert calls == [0, 1, 0]  # warm-up, one timed op, replay
    assert result["failed"] == 1 and result["attempted"] == 3
    assert result["problems"] == ["op 0 replay differs from op 0"]
    assert not run.summary(result)["correct"]


def test_inputs_follow_the_seed(tmp_path):
    def events(seed):
        path = tmp_path / f"events-{seed}.csv"
        workloads.write_events(path, seed, 2000, 12, 15, 4)
        return path.read_text()

    assert events(1) == events(1)
    assert events(1) != events(2)
    stamps = [line.split(",")[0] for line in events(1).splitlines()[1:]]
    assert len(set(stamps)) < len(stamps)  # ties
    assert workloads.op_seed(1, 0) == workloads.op_seed(1, 0) != workloads.op_seed(1, 1)
    assert workloads.op_seed(1, 0) != workloads.op_seed(2, 0)


def test_tail_is_the_90th_percentile():
    assert run.tail([float(i) for i in range(11)]) == (9.0, "p90 of 11 ops, 1 beyond it")
    assert run.tail([3.0, 1.0]) == (2.8, "p90 of 2 ops, 1 beyond it")
    assert run.tail([3.0]) == (3.0, "p90 of 1 op")


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in run.ROOT.joinpath("bench").glob("*.py"):
        shutil.copy(path, bench)
    shutil.copy(run.BENCHMARK_FILE, tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-pool", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
