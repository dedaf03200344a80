"""Command-line front end: generate, simulate, attack, predict, ingest, sweep."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .errors import MixProfileError
from .estimators import (
    CLSDA,
    LSDA,
    METHODS,
    RLS,
    SDA,
    ZCLIP,
    clsda,
    lsda,
    rls,
    save_estimate,
    sda,
    zero_clip,
)
from .experiment import load_spec, run_experiment, save_report_csv, save_report_json
from .ingest import build_rounds, load_events
from .mixsim import BINOMIAL_POOL, MIX_KINDS, MixConfig, load_trace, save_trace, simulate_trace
from .population import FREQ_DISTS, PROFILE_DISTS, gen_population, load_population, save_population, uniformity_stats
from .theory import REGIMES, EXACT, predict_mse_pool, predict_mse_threshold


def _seed(parser: argparse.ArgumentParser, default=0):
    parser.add_argument("--seed", type=int, default=default, help="master random seed")


def _out(parser: argparse.ArgumentParser, formats: bool = False):
    parser.add_argument("--out", required=True, help="output file path")
    if formats:
        parser.add_argument("--format", choices=("csv", "json"), default="json",
                            help="output encoding")


def _cmd_gen(args) -> int:
    pop = gen_population(args.n_users, args.n_friends, args.profile_dist, args.freq_dist, args.seed)
    save_population(pop, args.out)
    print(f"wrote population of {pop.n_senders} users to {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    config = MixConfig(kind=args.kind, t=args.t, alpha=args.alpha, m=args.m)
    pop = load_population(args.population)
    if config.m > 0:
        config = replace(config, pool_prior=pop.frequencies)
    trace = simulate_trace(pop, config, args.rho, seed=args.seed, record_ground_truth=False)
    save_trace(trace, args.out)
    print(f"wrote {trace.rho}-round {config.kind} trace to {args.out}")
    return 0


def _cmd_attack(args) -> int:
    trace = load_trace(args.trace)
    if args.method == ZCLIP:
        est = zero_clip(lsda(trace))
    else:
        est = {LSDA: lsda, CLSDA: clsda, RLS: rls, SDA: sda}[args.method](trace)
    save_estimate(est, args.out)
    print(
        f"{args.method}: iterations={est.iterations} residual={est.residual:.6g} "
        f"converged={est.converged}; wrote {args.out}"
    )
    if not est.converged:
        print(f"warning: {args.method} did not converge in {est.iterations} iterations",
              file=sys.stderr)
    silent = [i for i, sent in enumerate(trace.U.any(axis=0)) if not sent]
    if silent:
        print(f"warning: senders {silent} sent no message in this trace; their rows are not "
              "estimated from their messages", file=sys.stderr)
    return 0


def _cmd_predict(args) -> int:
    config = MixConfig(kind=args.kind, t=args.t, alpha=args.alpha)
    pop = load_population(args.population)
    base = (pop.frequencies, uniformity_stats(pop), args.t, args.rho)
    if config.kind == BINOMIAL_POOL:
        pred = predict_mse_pool(*base, args.alpha, args.regime)
    else:
        pred = predict_mse_threshold(*base, args.regime)
    profile = [
        "unidentifiable" if bad else float(v)
        for v, bad in zip(pred.mse_profile, pred.unidentifiable)
    ]
    doc = {
        "mix_kind": pred.mix_kind,
        "regime": pred.regime,
        "parameters": {"t": args.t, "rho": args.rho, "alpha": args.alpha, "n_users": pop.n_senders},
        "alpha_q": pred.alpha_q,
        "alpha_r": pred.alpha_r,
        "round_penalty": pred.round_penalty,
        "mean_delay": pred.mean_delay,
        "mse_transition": pred.mse_transition,
        "mse_profile": profile,
    }
    if args.format == "csv":
        lines = ["user,mse_i"]
        lines += [f"{i},{v}" for i, v in enumerate(profile)]
        lines.append(f"all,{pred.mse_transition:.17g}")
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(doc, indent=1) + "\n"
    with open(args.out, "w") as fh:
        fh.write(text)
    print(f"predicted mse per transition: {pred.mse_transition:.6g}; wrote {args.out}")
    return 0


def _cmd_ingest(args) -> int:
    events = load_events(args.events)
    trace, pop = build_rounds(events, t=args.t, min_sender_messages=args.min_sender_messages)
    save_trace(trace, args.out)
    save_population(pop, args.population_out)
    print(
        f"batched {trace.rho * trace.config.t} messages into {trace.rho} rounds "
        f"({pop.n_senders} senders, {pop.n_receivers} receivers)"
    )
    return 0


def _cmd_experiment(args) -> int:
    spec = load_spec(args.spec)
    if args.seed is not None:
        spec = replace(spec, master_seed=args.seed)
    report = run_experiment(spec)
    if args.format == "csv":
        save_report_csv(report, args.out)
    else:
        save_report_json(report, args.out)
    print(f"wrote {len(report.rows)} report rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixprofile",
        description="Mix traffic analysis: simulate mixes, run profiling attacks, "
        "predict their error, and sweep parameters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic population file")
    p.add_argument("--n-users", type=int, required=True)
    p.add_argument("--n-friends", type=int, required=True)
    p.add_argument("--profile-dist", choices=PROFILE_DISTS, default="zipf")
    p.add_argument("--freq-dist", choices=FREQ_DISTS, default="uniform")
    _seed(p)
    _out(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("simulate", help="simulate a trace from a population file")
    p.add_argument("--population", required=True)
    p.add_argument("--kind", choices=MIX_KINDS, default="threshold")
    p.add_argument("--t", type=int, default=10)
    p.add_argument("--alpha", type=float, default=1.0, help="binomial_pool only")
    p.add_argument("--m", type=int, default=0, help="binomial_pool only")
    p.add_argument("--rho", type=int, required=True)
    _seed(p)
    _out(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("attack", help="run a profiling attack on a trace file")
    p.add_argument("--trace", required=True)
    p.add_argument("--method", choices=METHODS, default=LSDA)
    _out(p)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("predict", help="closed-form error prediction for a population")
    p.add_argument("--population", required=True)
    p.add_argument("--kind", choices=MIX_KINDS, default="threshold")
    p.add_argument("--t", type=int, default=10)
    p.add_argument("--alpha", type=float, default=1.0, help="binomial_pool only")
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--regime", choices=REGIMES, default=EXACT)
    _out(p, formats=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("ingest", help="batch a real event log into a threshold trace")
    p.add_argument("--events", required=True)
    p.add_argument("--t", type=int, default=10)
    p.add_argument("--min-sender-messages", type=int, default=20)
    p.add_argument("--population-out", required=True, help="empirical population file")
    _out(p)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("experiment", help="run a parameter sweep from a spec file")
    p.add_argument("--spec", required=True)
    _seed(p, default=None)  # None keeps the master seed from the spec file
    _out(p, formats=True)
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MixProfileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
