"""Command-line front end.

Subcommands:
  run         execute one simulation from a JSON config
  schedule    print a per-round schedule table as CSV
  experiment  run a named experiment suite and print its CSV
  audit       run with full tracing and check the staleness contract
  optimum     solve for the optimum of a configured problem, with its
              gradient-norm certificate

Exit codes: 0 ok, 1 config error, 2 runtime error (deadlock, non-finite
model), 3 audit failure.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import engine, harness, problems, schedules

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_AUDIT = 3

DEFAULT_GRID = (1.0, 0.3, 0.1, 0.03, 0.01, 0.003, 0.001, 0.0003, 0.0001)


def _load_config(path: str, seed=None) -> harness.RunConfig:
    with open(path) as fh:
        cfg = harness.RunConfig.from_json(fh.read())
    if seed is not None:
        cfg.seed = seed
    return cfg


def _write_out(out, text: str) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_run(args) -> int:
    cfg = _load_config(args.config, args.seed)
    if args.grid:
        cfg = _grid_search(cfg)
    prep, result, metrics, _opt = harness.execute(
        cfg, record_trace=args.audit or bool(args.trace))
    if args.audit:
        code = _run_audits(prep, result)
        if code != EXIT_OK:
            return code
    if args.trace and result.trace is not None:
        with open(args.trace, "w") as fh:
            for rec in result.trace.records:
                fh.write(json.dumps({
                    "t": engine.rho(result.trace.table, rec.c, rec.i, rec.h),
                    "c": rec.c, "i": rec.i, "h": rec.h, "eta": rec.eta,
                    "t_glob": rec.t_glob, "t_delay": rec.t_delay,
                    "bcast": rec.bcast_id, "acc_round": rec.acc_round,
                }) + "\n")
    _write_out(args.out, metrics.to_json() + "\n")
    return EXIT_OK


def _grid_search(cfg: harness.RunConfig) -> harness.RunConfig:
    """Sweep eta0 over the default geometric grid; keep the best config.

    Best means lowest final objective (or highest accuracy when the run
    reports one).  Prints the selected eta0 on stderr.
    """
    best_cfg, best_score = None, None
    base_steps = cfg.steps or harness.default_steps(
        harness.build_problem(cfg.problem, harness.build_dataset(cfg.dataset)))
    if base_steps.get("kind") == schedules.STEP_CONSTANT:
        key = "eta"
    else:
        key = "eta0"
    for eta0 in DEFAULT_GRID:
        trial = harness.RunConfig(**{f: getattr(cfg, f)
                                     for f in cfg.__dataclass_fields__})
        trial.steps = dict(base_steps)
        trial.steps[key] = eta0
        try:
            _prep, _res, metrics, _opt = harness.execute(
                trial, with_optimum=False)
        except engine.EngineError:
            continue
        score = metrics.accuracy if metrics.accuracy is not None \
            else -metrics.final_Y_F
        if best_score is None or score > best_score:
            best_cfg, best_score = trial, score
    if best_cfg is None:
        raise engine.EngineError("every grid point failed")
    print(f"grid search selected {key}={best_cfg.steps[key]}",
          file=sys.stderr)
    return best_cfg


def _run_audits(prep: harness.PreparedRun, result) -> int:
    trace = result.trace
    if trace is None:
        print("audit requested but no trace was recorded", file=sys.stderr)
        return EXIT_AUDIT
    df = prep.delay_fn
    if df is not None:
        ok, bad_t = engine.audit_consistency(trace, df)
        if not ok:
            print(f"audit: staleness contract violated at t={bad_t}",
                  file=sys.stderr)
            return EXIT_AUDIT
        ok, bad = engine.audit_gate_invariant(trace, df)
        if not ok:
            print(f"audit: gate invariant violated at record {bad}",
                  file=sys.stderr)
            return EXIT_AUDIT
    else:
        print("audit: no delay function configured; checked trace "
              "completeness only", file=sys.stderr)
    if len(trace.records) != result.grads:
        print("audit: trace is incomplete", file=sys.stderr)
        return EXIT_AUDIT
    return EXIT_OK


def cmd_schedule(args) -> int:
    if args.strongly_convex:
        delay_fn, samples, steps = schedules.make_strongly_convex_schedules(
            mu=args.mu, L=args.L, d=args.d, m=args.m)
    else:
        samples = schedules.SampleSchedule.from_dict(json.loads(args.samples))
        steps = schedules.StepSchedule.from_dict(json.loads(args.steps))
        delay_fn = schedules.DelayFunction.from_dict(json.loads(args.delay)) \
            if args.delay else None
    text = harness.schedule_table(samples, steps, delay_fn, args.d, args.rows)
    _write_out(args.out, text)
    return EXIT_OK


def cmd_experiment(args) -> int:
    text = harness.run_suite(args.suite, seed=args.seed,
                             dataset_path=args.dataset, K=args.K)
    _write_out(args.out, text)
    return EXIT_OK


def cmd_audit(args) -> int:
    cfg = _load_config(args.config, args.seed)
    prep, result, _metrics, _opt = harness.execute(
        cfg, record_trace=True, with_optimum=False)
    code = _run_audits(prep, result)
    if code == EXIT_OK:
        print("audit passed")
    return code


def cmd_optimum(args) -> int:
    cfg = _load_config(args.config)
    ds = harness.build_dataset(cfg.dataset)
    problem = harness.build_problem(cfg.problem, ds)
    info = problems.find_optimum(problem, ds, budget=args.budget)
    _write_out(args.out, json.dumps(info.to_dict(), sort_keys=True) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asyncsgd",
        description="asynchronous distributed SGD simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one simulation")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--audit", action="store_true",
                       help="record a full trace and check the staleness "
                            "contract")
    p_run.add_argument("--grid", action="store_true",
                       help="sweep the initial step size over a geometric "
                            "grid and keep the best")
    p_run.add_argument("--trace", help="write the trace as JSON lines")
    p_run.add_argument("--out", help="metrics JSON path (default stdout)")
    p_run.set_defaults(func=cmd_run)

    p_sch = sub.add_parser("schedule", help="print a schedule table")
    p_sch.add_argument("--strongly-convex", action="store_true")
    p_sch.add_argument("--mu", type=float, default=1.0)
    p_sch.add_argument("--L", type=float, default=1.0)
    p_sch.add_argument("--m", type=int, default=7747)
    p_sch.add_argument("--d", type=int, default=1)
    p_sch.add_argument("--samples", help="sample schedule spec (JSON)")
    p_sch.add_argument("--steps", help="step schedule spec (JSON)")
    p_sch.add_argument("--delay", help="delay function spec (JSON)")
    p_sch.add_argument("--rows", type=int, default=10)
    p_sch.add_argument("--out")
    p_sch.set_defaults(func=cmd_schedule)

    p_exp = sub.add_parser("experiment", help="run a named suite")
    p_exp.add_argument("suite", choices=harness.SUITES)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--dataset", help="LIBSVM file (default synthetic)")
    p_exp.add_argument("--K", type=int, default=4000)
    p_exp.add_argument("--out")
    p_exp.set_defaults(func=cmd_experiment)

    p_aud = sub.add_parser("audit", help="run and audit one config")
    p_aud.add_argument("--config", required=True)
    p_aud.add_argument("--seed", type=int)
    p_aud.set_defaults(func=cmd_audit)

    p_opt = sub.add_parser("optimum", help="solve for the optimum")
    p_opt.add_argument("--config", required=True)
    p_opt.add_argument("--budget", type=int, default=200000,
                       help="cap on Newton iterations for logistic problems "
                            "(0 returns the initial point)")
    p_opt.add_argument("--out")
    p_opt.set_defaults(func=cmd_optimum)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (harness.ConfigError, schedules.ScheduleError, ValueError,
            OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except engine.EngineError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
