"""The benchmark's workloads: seeded inputs, one op each, and output checks.

Every workload is a closed loop of one client: op ``k`` starts when op
``k - 1`` has ended and takes its seed from the workload seed and ``k``.  An op
calls only mixprofile's public API.  The checks read what the program put out
(report rows, estimates, written files) and return a list of problems, empty
when every output is correct.  A workload's ``hooks`` check results the
program does not keep, such as each solver estimate of a sweep; the tracing
module runs them inside the op.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, replace

import numpy as np

import mixprofile
import mixprofile.cli
import mixprofile.experiment
from mixprofile import ExperimentSpec, MixProfileError

#: ``|A.T (Y - A P)|_max <= NORMAL_EQ_TOL * |A.T Y|_max`` for an lsda estimate
NORMAL_EQ_TOL = 1e-6
#: rows per block of the normal-equation check
NORMAL_EQ_BLOCK = 2048
#: C7: recursive and batch least squares agree to this absolute difference
RLS_LSDA_TOL = 1e-8
#: tolerance on probability sums of estimates and written populations
SUM_TOL = 1e-9

REPORT_NUMBERS = ("mse_p_mean", "mse_p_std", "mse_p_theory_exact", "mse_p_theory_rough")


def op_seed(seed: int, k: int) -> int:
    """The seed of op ``k`` under workload seed ``seed``."""
    return int(np.random.SeedSequence((seed, k)).generate_state(1)[0])


def normal_equations_problem(design: np.ndarray, y: np.ndarray, p_hat: np.ndarray) -> str | None:
    """Whether ``p_hat`` solves the least-squares normal equations of ``design`` and ``y``.

    The products are summed over blocks of rows, so the check holds no float
    copy of ``y`` and no ``design @ p_hat`` of full height.
    """
    cross = np.zeros((design.shape[1], y.shape[1]))
    gradient = np.zeros_like(cross)
    for start in range(0, len(design), NORMAL_EQ_BLOCK):
        a = np.asarray(design[start:start + NORMAL_EQ_BLOCK], dtype=float)
        rows = np.asarray(y[start:start + NORMAL_EQ_BLOCK], dtype=float)
        cross += a.T @ rows
        gradient += a.T @ (rows - a @ p_hat)
    worst = float(np.max(np.abs(gradient)))
    limit = NORMAL_EQ_TOL * float(np.max(np.abs(cross)))
    if not worst <= limit:
        return f"lsda misses the normal equations: |A'(Y-AP)|max={worst:.3e} > {limit:.3e}"
    return None


@dataclass
class SweepOutput:
    report: mixprofile.ExperimentReport
    solve_problems: list  # what the hooks found in the lsda and clsda estimates


class SweepWorkload:
    """One op is ``run_experiment`` on ``spec`` with the op's master seed.

    ``ratio_tol`` bounds ``mse_p_mean / mse_p_theory_exact`` of every lsda row:
    C1 allows 25% for a threshold mix, C4 30% for a pool mix.
    """

    def __init__(self, name: str, spec: ExperimentSpec, ratio_tol: float):
        if spec.sweep_param not in (None, "rho"):
            raise ValueError("a sweep workload sweeps rho or nothing")
        self.name = name
        self.spec = spec
        self.ratio_tol = ratio_tol
        self.seed = 0
        self._solve_problems: list[str] = []

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed

    @property
    def hooks(self) -> dict:
        """Checks of each estimate run_experiment gets, made while its trace is alive."""
        return {
            ("mixprofile.experiment", "lsda"): self._check_lsda,
            ("mixprofile.experiment", "clsda"): self._check_clsda,
        }

    def _check_lsda(self, args, estimate) -> None:
        trace = args[0]
        design = mixprofile.expected_departures(trace).U_hat
        problem = normal_equations_problem(design, trace.Y, estimate.P_hat)
        if problem:
            self._solve_problems.append(problem)

    def _check_clsda(self, args, estimate) -> None:
        p = estimate.P_hat
        if not (np.all(p >= 0.0) and np.all(np.abs(p.sum(axis=1) - 1.0) <= SUM_TOL)):
            self._solve_problems.append("clsda estimate has a row off the simplex")

    def op(self, k: int) -> SweepOutput:
        self._solve_problems = []
        spec = replace(self.spec, master_seed=op_seed(self.seed, k))
        report = mixprofile.experiment.run_experiment(spec)
        return SweepOutput(report, self._solve_problems)

    def messages(self, out: SweepOutput) -> int:
        rhos = self.spec.sweep_values if self.spec.sweep_param == "rho" else (self.spec.rho,)
        return sum(rhos) * self.spec.t * self.spec.repetitions

    def check(self, out: SweepOutput) -> list[str]:
        spec = self.spec
        values = spec.sweep_values if spec.sweep_param else ("",)
        problems = []
        cells: dict = {}
        for row in out.report.rows:
            if row.status != "ok":
                problems.append(f"{row.method}@{row.sweep_value}: status {row.status}")
            cells.setdefault(row.sweep_value, {})[row.method] = row
        for value in values:
            cell = cells.get(value, {})
            if set(cell) != set(spec.methods):
                problems.append(f"rows for {value!r}: {sorted(cell)}, expected {sorted(spec.methods)}")
                continue
            lsda_row = cell["lsda"]
            ratio = lsda_row.mse_p_mean / lsda_row.mse_p_theory_exact
            if not abs(ratio - 1.0) <= self.ratio_tol:
                problems.append(f"lsda@{value}: mse/theory={ratio:.3f} outside 1 +- {self.ratio_tol}")
            if "clsda" in cell and not cell["clsda"].mse_p_mean <= lsda_row.mse_p_mean:
                problems.append(f"clsda@{value}: mse above lsda's (C6)")
        problems += out.solve_problems
        return problems

    def fingerprint(self, out: SweepOutput) -> list:
        """The report's numeric columns, as bits; wall_ms is left out."""
        return [
            (row.sweep_value, row.method, row.status,
             np.array([getattr(row, col) for col in REPORT_NUMBERS] + (row.mse_i_mean or [])).tobytes())
            for row in out.report.rows
        ]


def write_events(path, seed: int, n_events: int, n_senders: int, n_receivers: int,
                 n_contacts: int) -> None:
    """A seeded ``timestamp,sender,receiver`` log.

    Sender frequencies follow Zipf's law, each sender writes to ``n_contacts``
    receivers with Zipf weights, and timestamps advance by 0, 1 or 2, so many
    events share a timestamp.
    """
    rng = np.random.default_rng(seed)
    freq = 1.0 / np.arange(1, n_senders + 1)
    senders = rng.choice(n_senders, size=n_events, p=freq / freq.sum())
    contacts = np.array([rng.choice(n_receivers, n_contacts, replace=False) for _ in range(n_senders)])
    weight = 1.0 / np.arange(1, n_contacts + 1)
    ranks = rng.choice(n_contacts, size=n_events, p=weight / weight.sum())
    receivers = contacts[senders, ranks]
    timestamps = 1_600_000_000 + np.cumsum(rng.integers(0, 3, size=n_events))
    with open(path, "w") as fh:
        fh.write("# timestamp,sender,receiver\n")
        fh.writelines(f"{ts},s{s:03d},r{r:03d}\n" for ts, s, r in zip(timestamps, senders, receivers))


@dataclass
class IngestOutput:
    codes: dict  # cli command -> exit code


class IngestWorkload:
    """One op runs ``ingest``, ``attack --method lsda`` and ``attack --method rls``
    through ``cli.main`` on the event log written at set-up.

    The workload seed fixes the log, and every op reads the same one: ops
    differ only in when they run.
    """

    name = "ingest-rls"
    OUTPUTS = ("trace.txt", "population.json", "lsda.txt", "rls.txt")
    hooks: dict = {}  # every output is a file, checked after the op

    def __init__(self, n_events=100_000, n_senders=120, n_receivers=150, n_contacts=20,
                 t=10, min_sender_messages=20):
        self.sizes = (n_events, n_senders, n_receivers, n_contacts)
        self.t = t
        self.min_sender_messages = min_sender_messages
        self.events = self.trace = self.population = self.lsda = self.rls = ""

    def setup(self, seed: int, workdir: str) -> None:
        self.events = os.path.join(workdir, "events.csv")
        write_events(self.events, seed, *self.sizes)
        self.trace, self.population, self.lsda, self.rls = (
            os.path.join(workdir, name) for name in self.OUTPUTS
        )

    def _commands(self):
        yield "ingest", ["ingest", "--events", self.events, "--t", str(self.t),
                         "--min-sender-messages", str(self.min_sender_messages),
                         "--out", self.trace, "--population-out", self.population]
        for method, out in (("lsda", self.lsda), ("rls", self.rls)):
            yield method, ["attack", "--trace", self.trace, "--method", method, "--out", out]

    def op(self, k: int) -> IngestOutput:
        codes = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for name, argv in self._commands():
                codes[name] = mixprofile.cli.main(argv)
        return IngestOutput(codes)

    def messages(self, out: IngestOutput) -> int:
        with open(self.trace) as fh:
            header = dict(tok.partition("=")[::2] for tok in fh.readline().split()[2:])
        return int(header["rho"]) * int(header["t"])

    def check(self, out: IngestOutput) -> list[str]:
        failed = [f"cli {name} exited {code}" for name, code in out.codes.items() if code != 0]
        if failed:
            return failed
        try:
            trace = mixprofile.load_trace(self.trace)
            pop = mixprofile.load_population(self.population)
            lsda_est = mixprofile.load_estimate(self.lsda)
            rls_est = mixprofile.load_estimate(self.rls)
        except MixProfileError as exc:
            return [f"output file rejected: {exc}"]
        problems = []
        if trace.config.t != self.t or np.any(trace.U.sum(axis=1) != self.t):
            problems.append(f"trace U rows do not sum to t={self.t}")
        if (pop.n_senders, pop.n_receivers) != (trace.n_senders, trace.n_receivers):
            problems.append("population and trace disagree on the user counts")
        if np.any(np.abs(pop.profiles.sum(axis=1) - 1.0) > SUM_TOL):
            problems.append("population rows do not sum to 1")
        shape = (trace.n_senders, trace.n_receivers)
        if lsda_est.P_hat.shape != shape or rls_est.P_hat.shape != shape:
            return problems + [f"estimate shapes differ from {shape}"]
        gap = float(np.max(np.abs(rls_est.P_hat - lsda_est.P_hat)))
        if not gap <= RLS_LSDA_TOL:
            problems.append(f"rls and lsda differ by {gap:.3e} > {RLS_LSDA_TOL} (C7)")
        problem = normal_equations_problem(trace.U, trace.Y, lsda_est.P_hat)
        if problem:
            problems.append(problem)
        return problems

    def fingerprint(self, out: IngestOutput) -> list:
        """Exit codes and the bytes of every written file."""
        files = []
        for path in (self.trace, self.population, self.lsda, self.rls):
            with open(path, "rb") as fh:
                files.append(fh.read())
        return [sorted(out.codes.items()), files]


def make_workload(name: str):
    """A fresh instance of the named workload at its benchmark size."""
    if name == "sweep-threshold":
        spec = ExperimentSpec(
            n_users=100, n_friends=25, profile_dist="zipf", freq_dist="uniform",
            mix_kind="threshold", t=10, sweep_param="rho", sweep_values=(5000, 10_000),
            methods=("lsda", "zclip"), repetitions=2, include_theory=True,
        )
        return SweepWorkload(name, spec, ratio_tol=0.25)
    if name == "sweep-pool":
        spec = ExperimentSpec(
            n_users=300, n_friends=25, mix_kind="binomial_pool", t=10, alpha=0.5, m=10,
            rho=10_000, methods=("lsda", "clsda"), repetitions=1,
        )
        return SweepWorkload(name, spec, ratio_tol=0.30)
    if name == "ingest-rls":
        return IngestWorkload()
    raise KeyError(name)
