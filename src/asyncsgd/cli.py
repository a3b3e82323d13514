"""Command-line front end.

Subcommands:
  run         execute one simulation from a JSON config
  schedule    print the per-round schedule table of a JSON config as CSV
  experiment  run a named experiment suite and print its CSV
  audit       run with full tracing and every audit that applies
  optimum     solve for the optimum of a configured problem, with its
              gradient-norm certificate

Exit codes: 0 ok, 1 config error, 2 runtime error (deadlock, non-finite
model), 3 audit failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import engine, harness, problems, schedules

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_AUDIT = 3

# --trace line keys: t, then the record's columns (bcast_id as "bcast")
TRACE_KEYS = ("t",) + tuple(f.removesuffix("_id") for f in engine.RECORD.names)

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
    if args.trace:
        rec = result.trace.records
        t = engine.rho(result.trace.table, rec.c, rec.i, rec.h)
        with open(args.trace, "w") as fh:
            for t_j, row in zip(t.tolist(), rec.tolist()):
                fh.write(json.dumps(dict(zip(TRACE_KEYS, (t_j,) + row)))
                         + "\n")
    _write_out(args.out, metrics.to_json() + "\n")
    return EXIT_OK


def _grid_search(cfg: harness.RunConfig) -> harness.RunConfig:
    """Sweep the step schedule's eta (constant) or eta0 over the default
    geometric grid; return the config with the best value.

    The config is prepared once and each grid point runs the engine on it
    with only that step size changed.  Best means highest accuracy when
    the problem reports one, else lowest final objective F(w_K).  Prints
    the selected value on stderr.
    """
    prep = harness.prepare(cfg)
    key = {schedules.STEP_CONSTANT: "eta", schedules.INVERSE_T: "eta0",
           schedules.INVERSE_SQRT_T: "eta0"}.get(prep.steps.kind)
    if key is None:
        raise harness.ConfigError(f"--grid sweeps eta or eta0, and the "
                                  f"{prep.steps.kind} step schedule has "
                                  f"neither")
    best, best_score = None, None
    for value in DEFAULT_GRID:
        trial = dataclasses.replace(
            prep, steps=dataclasses.replace(prep.steps, **{key: value}))
        try:
            result = harness.run_prepared(trial)
        except engine.EngineError:
            continue
        score = harness.compute_metrics(trial, result, None).accuracy
        if score is None:
            score = -problems.objective(prep.problem, result.w_final,
                                        prep.dataset)
        if best_score is None or score > best_score:
            best, best_score = value, score
    if best is None:
        raise engine.EngineError("every grid point failed")
    print(f"grid search selected {key}={best}", file=sys.stderr)
    steps = dict(cfg.steps or harness.default_steps(prep.problem))
    steps[key] = best
    return dataclasses.replace(cfg, steps=steps)


def _run_audits(prep: harness.PreparedRun, result) -> int:
    """Every audit that applies to a traced run: the lag rule under the lag
    gate; the staleness contract and gate invariant with a delay function."""
    df, cfg = prep.delay_fn, prep.config
    audits = [] if cfg.gate != engine.GATE_LAG else \
        [(engine.audit_lag, cfg.d, "lag rule violated at record ")]
    if df is not None:
        audits += [(engine.audit_consistency, df,
                    "staleness contract violated at t="),
                   (engine.audit_gate_invariant, df,
                    "gate invariant violated at record ")]
    for audit, arg, what in audits:
        ok, bad = audit(result.trace, arg)
        if not ok:
            print(f"audit: {what}{bad}", file=sys.stderr)
            return EXIT_AUDIT
    return EXIT_OK


def cmd_schedule(args) -> int:
    prep = harness.prepare(_load_config(args.config))
    _write_out(args.out, harness.schedule_table(prep, args.rows))
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
    info = problems.find_optimum(harness.build_problem(cfg.problem, ds), ds)
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

    p_sch = sub.add_parser("schedule", help="print a config's schedule table")
    p_sch.add_argument("--config", required=True)
    p_sch.add_argument("--rows", type=int, default=10)
    p_sch.add_argument("--out")
    p_sch.set_defaults(func=cmd_schedule)

    p_exp = sub.add_parser("experiment", help="run a named suite")
    p_exp.add_argument("suite", choices=harness.SUITES)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--dataset", help="LIBSVM file (default synthetic)")
    p_exp.add_argument("--K", type=int,
                       help="gradient budget of the settings that do not "
                            "set one (default 4000)")
    p_exp.add_argument("--out")
    p_exp.set_defaults(func=cmd_experiment)

    p_aud = sub.add_parser("audit", help="run and audit one config")
    p_aud.add_argument("--config", required=True)
    p_aud.add_argument("--seed", type=int)
    p_aud.set_defaults(func=cmd_audit)

    p_opt = sub.add_parser("optimum", help="solve for the optimum")
    p_opt.add_argument("--config", required=True)
    p_opt.add_argument("--out")
    p_opt.set_defaults(func=cmd_optimum)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # ConfigError, ScheduleError, DataFormatError and JSONDecodeError are
    # ValueErrors; a MemoryError is a config that asks for more than fits
    except (ValueError, OSError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except engine.EngineError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
