"""Experiment harness: parameter sweeps with repetitions and reports.

A sweep varies one parameter over a list of values; for every (value,
repetition) cell the harness generates a fresh population, simulates a
trace, runs the requested attacks and records the empirical per-transition
error next to the closed-form predictions.  Seeds for each cell derive
deterministically from the master seed and the cell coordinates, so results
do not depend on execution order.
"""

from __future__ import annotations

import csv
import json
import numbers
import re
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import __version__
from .errors import (
    InvalidParameterError,
    InvalidScenarioError,
    MixProfileError,
    ParseError,
    SingularSystemError,
    SolverDivergedError,
    _decode_utf8,
    _open_utf8,
)
from .estimators import METHODS, clsda, lsda, rls, sda, zero_clip
from .metrics import aggregate_repetitions, profile_mse_vector
from .mixsim import BINOMIAL_POOL, THRESHOLD, MIX_KINDS, MixConfig, simulate_trace
from .population import FREQ_DISTS, PROFILE_DISTS, gen_population, uniformity_stats
from .theory import EXACT, ROUGH, predict_mse_pool, predict_mse_threshold

SWEEPABLE = ("rho", "n_users", "n_friends", "t", "alpha", "freq_dist")
_SWEEP_ALIASES = {"N": "n_users"}

REPORT_COLUMNS = (
    "sweep_param",
    "sweep_value",
    "method",
    "mse_p_mean",
    "mse_p_std",
    "mse_p_theory_exact",
    "mse_p_theory_rough",
    "wall_ms",
    "status",
)


def _integer(least: int) -> tuple:
    """The rule of an integer field of at least ``least``."""
    return (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= least,
            f"an integer >= {least}")


#: spec field -> (test of a value, what the value must be); booleans are not numbers here
_FIELD_RULES = {
    **dict.fromkeys(("n_users", "n_friends", "t", "rho", "repetitions"), _integer(1)),
    **dict.fromkeys(("m", "master_seed"), _integer(0)),
    "alpha": (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool) and 0 < v <= 1,
              "a number in (0, 1]"),
    "profile_dist": (lambda v: v in PROFILE_DISTS, f"one of {PROFILE_DISTS}"),
    "freq_dist": (lambda v: v in FREQ_DISTS, f"one of {FREQ_DISTS}"),
    "mix_kind": (lambda v: v in MIX_KINDS, f"one of {MIX_KINDS}"),
    "sweep_param": (lambda v: v in (None, *SWEEPABLE, *_SWEEP_ALIASES),
                    f"null or one of {SWEEPABLE}"),
    "sweep_values": (lambda v: isinstance(v, (list, tuple)), "a list"),
    "methods": (lambda v: isinstance(v, (list, tuple)) and all(m in METHODS for m in v),
                f"a list of {METHODS}"),
    "include_theory": (lambda v: isinstance(v, bool), "true or false"),
}


class _FieldError(InvalidParameterError):
    """A refused spec value; ``key`` names its field, so :func:`load_spec` can give the line."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


def _check_field(name: str, value, key: str | None = None) -> None:
    test, what = _FIELD_RULES[name]
    if not test(value):
        raise _FieldError(key or name, f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    """Base parameters, one optional sweep, methods and repetition count.

    A value of the wrong type or out of range, including a sweep value
    unfit for the swept field, raises :class:`InvalidParameterError`.
    """

    n_users: int = 100
    n_friends: int = 25
    profile_dist: str = "zipf"
    freq_dist: str = "uniform"
    mix_kind: str = THRESHOLD
    t: int = 10
    alpha: float = 1.0
    m: int = 0
    rho: int = 10_000
    sweep_param: str | None = None
    sweep_values: tuple = ()
    methods: tuple = ("lsda",)
    repetitions: int = 1
    master_seed: int = 0
    include_theory: bool = True

    def __post_init__(self):
        for f in fields(self):
            _check_field(f.name, getattr(self, f.name))
        object.__setattr__(self, "sweep_values", tuple(self.sweep_values))
        object.__setattr__(self, "methods", tuple(self.methods))
        if self.sweep_param is not None:
            canon = _SWEEP_ALIASES.get(self.sweep_param, self.sweep_param)
            object.__setattr__(self, "sweep_param", canon)
            if not self.sweep_values:
                raise _FieldError("sweep_values", "sweep_values must be non-empty")
            for value in self.sweep_values:
                _check_field(canon, value, key="sweep_values")
        elif self.sweep_values:
            raise _FieldError("sweep_values", "sweep_values needs a sweep_param")


@dataclass
class ReportRow:
    sweep_param: str
    sweep_value: object
    method: str
    mse_p_mean: float = float("nan")
    mse_p_std: float = float("nan")
    mse_p_theory_exact: float = float("nan")
    mse_p_theory_rough: float = float("nan")
    wall_ms: float = float("nan")
    status: str = "ok"
    mse_i_mean: list | None = None


@dataclass
class ExperimentReport:
    rows: list
    metadata: dict = field(default_factory=dict)


def load_spec(path) -> ExperimentSpec:
    """Read an experiment spec file (JSON mirroring the spec fields)."""
    with _open_utf8(path) as fh:
        text = _decode_utf8(fh.read())
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed spec JSON: {exc.msg}", line_no=exc.lineno) from exc
    if not isinstance(doc, dict):
        raise ParseError("a spec must be a JSON object", line_no=1)
    unknown = sorted(set(doc) - {f.name for f in fields(ExperimentSpec)})
    try:
        if unknown:
            raise _FieldError(unknown[0], f"unknown spec field {unknown[0]!r}")
        return ExperimentSpec(**doc)
    except _FieldError as exc:
        member = re.compile(rf'"{re.escape(exc.key)}"\s*:')  # opens the field, unlike a value
        numbered = enumerate(text.splitlines(), 1)
        line_no = next((n for n, line in numbered if member.search(line)), None)
        raise ParseError(str(exc), line_no=line_no) from exc


def save_spec(spec: ExperimentSpec, path) -> None:
    with open(path, "w") as fh:
        json.dump(asdict(spec), fh, indent=1)
        fh.write("\n")


def child_seed(master_seed: int, *path: int) -> int:
    """Derive an independent seed from the master seed and cell coordinates."""
    seq = np.random.SeedSequence((master_seed, *path))
    return int(seq.generate_state(1, np.uint64)[0])


def _cell_params(spec: ExperimentSpec, value) -> ExperimentSpec:
    if spec.sweep_param is None:
        return spec
    return replace(spec, **{spec.sweep_param: value})


_ERROR_LABELS = (
    (SingularSystemError, "singular-system"),
    (InvalidScenarioError, "invalid-scenario"),
    (InvalidParameterError, "invalid-parameter"),
    (SolverDivergedError, "solver-diverged"),
)


def _error_label(exc: Exception) -> str:
    for cls, label in _ERROR_LABELS:
        if isinstance(exc, cls):
            return label
    return type(exc).__name__


def _run_method(method, trace, pop):
    """Run one attack; returns its per-profile MSE vector."""
    if method == "lsda":
        return profile_mse_vector(pop, lsda(trace))
    if method == "clsda":
        return profile_mse_vector(pop, clsda(trace))
    if method == "rls":
        return profile_mse_vector(pop, rls(trace))
    if method == "zclip":
        return profile_mse_vector(pop, zero_clip(lsda(trace)))
    if method == "sda":
        # the statistical attack only estimates the first sender's profile;
        # its one-entry vector averages over that profile's transitions only
        estimate = sda(trace, trace.config.t, pop.n_receivers)
        diff = pop.profiles[0] - estimate
        return np.array([float(diff @ diff)])
    raise InvalidParameterError(f"unknown method {method!r}")


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Execute every (sweep value, repetition, method) cell of the spec.

    Estimator failures (for example a singular system at too few rounds) are
    recorded in the row's ``status`` without aborting the sweep.  Identical
    specs produce identical numeric results; only the wall-time column varies
    between runs.
    """
    values = spec.sweep_values if spec.sweep_param is not None else (None,)
    sweep_name = spec.sweep_param or "none"
    rows = []
    for vi, value in enumerate(values):
        params = _cell_params(spec, value)
        kind = params.mix_kind
        pops = []
        traces = []
        for k in range(spec.repetitions):
            pop = gen_population(
                params.n_users,
                params.n_friends,
                params.profile_dist,
                params.freq_dist,
                seed=child_seed(spec.master_seed, vi, k, 0),
            )
            prior = pop.frequencies if (kind == BINOMIAL_POOL and params.m > 0) else None
            config = MixConfig(
                kind=kind, t=params.t, alpha=params.alpha, m=params.m, pool_prior=prior
            )
            trace = simulate_trace(
                pop,
                config,
                params.rho,
                seed=child_seed(spec.master_seed, vi, k, 1),
                record_ground_truth=False,
            )
            pops.append(pop)
            traces.append(trace)

        theory_exact = theory_rough = float("nan")
        if spec.include_theory:
            stats = uniformity_stats(pops[0])
            args = (pops[0].frequencies, stats.u, stats.u_bar, params.t, params.rho)
            if kind == BINOMIAL_POOL:
                theory_exact = predict_mse_pool(*args, params.alpha, EXACT).mse_transition
                theory_rough = predict_mse_pool(*args, params.alpha, ROUGH).mse_transition
            else:
                theory_exact = predict_mse_threshold(*args, EXACT).mse_transition
                theory_rough = predict_mse_threshold(*args, ROUGH).mse_transition

        for method in spec.methods:
            row = ReportRow(
                sweep_param=sweep_name,
                sweep_value=value if value is not None else "",
                method=method,
                mse_p_theory_exact=theory_exact,
                mse_p_theory_rough=theory_rough,
            )
            vectors = []
            elapsed = []
            try:
                for pop, trace in zip(pops, traces):
                    start = time.perf_counter()
                    vectors.append(_run_method(method, trace, pop))
                    elapsed.append(time.perf_counter() - start)
            except MixProfileError as exc:
                row.status = _error_label(exc)
            else:
                agg = aggregate_repetitions(vectors, pop.n_receivers)
                row.mse_p_mean = agg.mse_transition
                row.mse_p_std = float(agg.per_repetition.std(ddof=1)) if spec.repetitions > 1 else 0.0
                row.wall_ms = float(np.mean(elapsed) * 1e3)
                if method != "sda":
                    row.mse_i_mean = [float(v) for v in agg.mse_profile]
            rows.append(row)

    metadata = {
        "spec": asdict(spec),
        "master_seed": spec.master_seed,
        "version": __version__,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    return ExperimentReport(rows=rows, metadata=metadata)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def save_report_csv(report: ExperimentReport, path) -> None:
    """Write the report as a long-format CSV, metadata in leading comments."""
    with open(path, "w", newline="") as fh:
        for key in ("master_seed", "version", "generated_at"):
            fh.write(f"# {key}={report.metadata.get(key)}\n")
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for row in report.rows:
            writer.writerow([_fmt(getattr(row, col)) for col in REPORT_COLUMNS])


def save_report_json(report: ExperimentReport, path) -> None:
    doc = {
        "metadata": report.metadata,
        "rows": [
            {k: v for k, v in asdict(row).items() if not (k == "mse_i_mean" and v is None)}
            for row in report.rows
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, allow_nan=True)
        fh.write("\n")
