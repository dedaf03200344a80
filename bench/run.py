"""The mixprofile benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload sweep-pool --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
makes the traced run that gives the per-layer metrics.  ``--workload all``
runs every workload both ways, each in a fresh process.  The run loops ops of
the workload for ``--seconds``, checks every op's outputs, then repeats op 0
and compares it bit for bit.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the full result, with the environment and, for a traced run, every span, goes
to ``.bench_out/`` in the checkout.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Pinned before numpy loads: two BLAS threads on a two-core box give
# occasional 100x outliers in the Gram products.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
NAMES = ("sweep-threshold", "sweep-pool", "ingest-rls")

#: fresh processes that time ``import mixprofile, mixprofile.cli``; setup_s is their median
SETUP_SAMPLES = 3

_SETUP_CODE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "import mixprofile, mixprofile.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "if not mixprofile.__file__.startswith(sys.argv[1]):\n"
    "    sys.exit(f'imported {mixprofile.__file__}, not the checkout')\n"
    "print(elapsed)\n"
)


def measure_setup() -> list[float]:
    """Import time of mixprofile and its CLI, once per fresh process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def tail(latencies: list[float]) -> tuple[float, str]:
    """The 90th percentile of the op latencies, and a label with the sample count.

    "The highest percentile with ten samples beyond it" reaches the median
    only from 20 ops on, and a run sees about 10 to 25 ops; a fixed p90 keeps
    one statistic across runs whatever their op count.
    """
    if len(latencies) == 1:
        return latencies[0], "p90 of 1 op"
    value = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
    beyond = sum(latency > value for latency in latencies)
    return value, f"p90 of {len(latencies)} ops, {beyond} beyond it"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pins": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_op(workload, k: int, tracer, record: bool = False):
    """Run op ``k`` and check its outputs; returns (latency in s, output, problems).

    The tracer runs the workload's hooks, and records spans if ``record`` is
    set.  The latency leaves out the time the hooks take.
    """
    with tracer.installed(k, record, workload.hooks):
        hooked = tracer.hook_seconds
        start = time.perf_counter()
        try:
            out = workload.op(k)
        except Exception as exc:  # a failing op is counted, not fatal
            return time.perf_counter() - start, None, [f"{type(exc).__name__}: {exc}"]
        latency = time.perf_counter() - start - (tracer.hook_seconds - hooked)
    try:
        return latency, out, workload.check(out)
    except Exception as exc:  # so is an output the checks cannot read
        return latency, None, [f"check raised {type(exc).__name__}: {exc}"]


def run_workload(workload, seed: int, seconds: float, traced: bool) -> dict:
    """Closed loop of ops for ``seconds``, then the op-0 replay; returns the result."""
    from tracing import Tracer, layer_metrics, self_time_shares

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    try:
        workload.setup(seed, workdir)
        setup_times = [] if traced else measure_setup()
        tracer = Tracer()
        latencies = {False: {}, True: {}}
        rates = {}  # messages per second of each untraced op
        problems = []
        attempted = failed = 0

        def attempt(k, traced_op):
            nonlocal attempted, failed
            latency, out, found = run_op(workload, k, tracer, traced_op)
            attempted += 1
            if found:
                failed += 1
                problems.extend(f"op {k}: {p}" for p in found)
            return latency, out, found

        deadline = time.perf_counter() + seconds
        # op 0 warms lazy imports and caches: it is checked but not timed,
        # and the replay at the end must match it
        _, out, _ = attempt(0, False)
        first = None if out is None else workload.fingerprint(out)
        k = 1
        while k == 1 or time.perf_counter() < deadline:
            # a traced run runs every op both ways, to measure the overhead;
            # the order alternates so that neither way always runs warm
            modes = ((False, True) if k % 2 == 0 else (True, False)) if traced else (False,)
            for traced_op in modes:
                latency, out, found = attempt(k, traced_op)
                if not found:
                    latencies[traced_op][k] = latency
                    if not traced_op:
                        rates[k] = workload.messages(out) / latency
            k += 1
        _, out, found = run_op(workload, 0, tracer)
        attempted += 1
        if found or out is None or workload.fingerprint(out) != first:
            failed += 1
            problems += [f"op 0 replay: {p}" for p in found] or ["op 0 replay differs from op 0"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "environment": environment(),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": problems[:50],
        "op_latencies_s": {mode: list(latencies[traced_op].values())
                           for mode, traced_op in (("untraced", False), ("traced", True))},
    }
    if traced:
        result["layer_metrics"] = layer_metrics(tracer, latencies[False], latencies[True])
        result["self_time_shares"] = self_time_shares(tracer, sum(latencies[True].values()))
        result["spans"] = tracer.dump()
        return result
    ok = list(latencies[False].values())
    if ok:
        result["op_p50_s"] = statistics.median(ok)
        result["op_tail_s"], result["op_tail_of"] = tail(ok)
        result["messages_per_s"] = statistics.median(rates.values())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["setup_s"] = statistics.median(setup_times)
    result["setup_samples_s"] = setup_times
    return result


def declared_metrics(traced: bool) -> list[dict]:
    with open(BENCHMARK_FILE) as fh:
        return json.load(fh)["per_layer" if traced else "end_to_end"]


def summary(result: dict) -> dict:
    """The final line: correctness counts plus every declared metric with its unit."""
    traced = result["traced"]
    values = result["layer_metrics"] if traced else result
    declared = declared_metrics(traced)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
        if m["name"] in values
    }
    return {
        "correct": result["failed"] == 0 and len(metrics) == len(declared),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def report_lines(result: dict, line: dict) -> list[str]:
    env = result["environment"]
    lines = [
        f"workload {result['workload']} seed {result['seed']} "
        f"{'traced' if result['traced'] else 'untraced'} {result['seconds']} s",
        "environment " + " ".join(f"{k}={v}" for k, v in env.items()),
    ]
    lines += [f"  {name} = {m['value']:.6g} {m['unit']}" for name, m in line["metrics"].items()]
    lines.append(f"  error_rate = {result['error_rate']:.6g} failed/attempted "
                 f"({result['failed']} of {result['attempted']} ops)")
    if "self_time_shares" in result:
        lines.append("  largest self-time shares of traced ops: " + ", ".join(
            f"{name} {100 * share:.1f}%" for name, share in result["self_time_shares"][:4]))
    if "op_tail_of" in result:
        lines.append(f"  op_tail_s is the {result['op_tail_of']}")
    lines += [f"  FAILED {p}" for p in result["problems"]]
    return lines


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    results = {}
    for name in NAMES:
        for traced in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            print("\n".join(done.stdout.splitlines()[:-1]))
            results[f"{name}/trace{traced}"] = json.loads(done.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mixprofile" / "__init__.py").is_file():
        print(f"error: no mixprofile sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    sys.path.insert(0, str(SRC))
    import workloads

    result = run_workload(
        workloads.make_workload(args.workload), args.seed, args.seconds, bool(args.trace)
    )
    line = summary(result)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump({**result, "summary": line}, fh, indent=1)
    print("\n".join(report_lines(result, line)))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
