"""Experiment harness: JSON run configs, convergence metrics, and suites.

A RunConfig describes one simulation end to end (problem, data, schedules,
gate, budget).  The harness builds the pieces, invokes the engine, and turns
the checkpoint stream into the convergence measures used for comparisons:
Y_w = ||w_t - w*||^2, Y_F = F(w_t) - F*, the windowed average Y_A, test
accuracy and the communication-round count T.
"""
from __future__ import annotations

import csv
import functools
import inspect
import io
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import data as data_mod
from . import engine, problems, schedules


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


# defaults mirror the reference experimental protocol: five nodes, lag
# gate with d=1, inverse-t steps with beta=0.001 for strongly convex
# problems and inverse-sqrt-t with beta=0.01 for plain convex, lambda=1/M
DEFAULT_N = 5
DEFAULT_D = 1
DEFAULT_ETA0 = 0.1
BETA_STRONGLY_CONVEX = 0.001
BETA_PLAIN = 0.01

# JSON types accepted per parameter annotation, and their names; json.loads
# gives bool for true/false, never int, and an integer is also a number
_JSON_TYPES = {"int": (int,), "float": (float, int), "str": (str,),
               "bool": (bool,), "dict": (dict,), "list": (list,),
               "Optional[int]": (int, type(None)),
               "Optional[float]": (float, int, type(None)),
               "Optional[dict]": (dict, type(None)),
               "Optional[list]": (list, type(None))}
_JSON_NAMES = {int: "an integer", float: "a number", str: "a string",
               bool: "a boolean", dict: "an object", list: "an array",
               type(None): "null"}


@dataclass
class RunConfig:
    problem: dict
    dataset: dict
    samples: dict
    steps: Optional[dict] = None
    delay: Optional[dict] = None
    K: int = 1000
    n: int = DEFAULT_N
    p: Optional[list] = None
    partition: str = data_mod.UNBIASED
    seed: int = 0
    gate: str = engine.GATE_LAG
    d: int = DEFAULT_D
    checkpoint_interval: int = 1
    test_dataset: Optional[dict] = None
    allow_incompatible: bool = False

    @staticmethod
    def from_json(text: str) -> "RunConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
        return build_spec("config", {None: RunConfig}, raw, key=None)

    def to_json(self) -> str:
        out = {k: getattr(self, k) for k in self.__dataclass_fields__}
        return json.dumps(out, sort_keys=True, indent=2)


@dataclass
class RunMetrics:
    K: int
    T: int
    t: list          # global iteration index per checkpoint
    Y_w: list        # ||w_t - w*||^2 (when the optimum is known)
    Y_F: list        # F(w_t) - F*
    Y_A: list        # windowed average of Y_F (same length, NaN-padded)
    accuracy: Optional[float]
    final_Y_w: float
    final_Y_F: float
    messages: int
    rounds_completed: dict
    wall_time: float = 0.0
    # the certificate of the optimum that Y_w and Y_F read (None: no
    # optimum): ||grad F(w*)|| and whether it is within OPTIMUM_TOL
    optimum_exact: Optional[bool] = None
    optimum_grad_norm: Optional[float] = None

    def to_json(self) -> str:
        """Every field, with non-finite floats (also in lists) as null."""
        def clean(v):
            if isinstance(v, list):
                return [clean(x) for x in v]
            if isinstance(v, float) and not math.isfinite(v):
                return None
            return v
        out = {k: clean(getattr(self, k)) for k in self.__dataclass_fields__}
        return json.dumps(out, sort_keys=True)


# ---------------------------------------------------------------------------
# Config -> runnable pieces
# ---------------------------------------------------------------------------

@functools.cache
def _parameters(builder, skip: int) -> dict:
    """{name: (annotation, required)} of the parameters after `skip`."""
    params = list(inspect.signature(builder).parameters.values())[skip:]
    return {p.name: (p.annotation, p.default is p.empty) for p in params}


def build_spec(what: str, builders: dict, spec: dict, *context,
               key: Optional[str] = "kind"):
    """Build the object that the JSON object `spec` describes.

    spec[key] selects a builder (builders[None] without key) and every other
    field is a keyword argument of it, checked against its signature: an
    unknown field, a missing required one, a JSON type that does not match
    the annotation, a non-finite number or a ValueError from the builder is
    a ConfigError naming `what` and the field.  `context` fills the
    builder's first parameters.
    """
    if type(spec) is not dict:
        raise ConfigError(f"{what} must be a JSON object")
    kind = spec.get(key)
    try:
        builder = builders[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        if key not in spec:
            raise ConfigError(f"missing required {what} field {key!r}")
        raise ConfigError(f"unknown {what} {key} {kind!r}; choose from "
                          f"{sorted(k for k in builders if k)}")
    params = _parameters(builder, len(context))
    kwargs = {name: v for name, v in spec.items() if name != key}
    for name, value in kwargs.items():
        if name not in params:
            raise ConfigError(f"unknown {what} field {name!r}")
        allowed = _JSON_TYPES[params[name][0]]
        if type(value) not in allowed:
            want = " or ".join(_JSON_NAMES[t] for t in allowed
                               if t is not int or float not in allowed)
            got = _JSON_NAMES.get(type(value), type(value).__name__)
            raise ConfigError(f"{what} field {name!r} must be {want}, "
                              f"got {got}")
        if type(value) is float and not math.isfinite(value):
            raise ConfigError(f"{what} field {name!r} must be finite, "
                              f"got {value}")
    for name, (_annotation, required) in params.items():
        if required and name not in kwargs:
            raise ConfigError(f"missing required {what} field {name!r}")
    try:
        return builder(*context, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _quadratic_mean(ds: data_mod.DataSet) -> problems.Problem:
    return problems.Problem.quadratic_mean(ds.dim)


def _logistic_plain(ds: data_mod.DataSet) -> problems.Problem:
    return problems.Problem.logistic_plain(ds.dim)


def _logistic_ridge(ds: data_mod.DataSet,
                    lam: Optional[float] = None) -> problems.Problem:
    lam = 1.0 / len(ds) if lam is None else lam
    return problems.Problem.logistic_ridge(ds.dim, lam=lam)


def _strongly_convex(problem: problems.Problem, ds: data_mod.DataSet,
                     d: int, m: int = 7747):
    """(delay, samples, steps) matched to the problem's mu and its L on
    the data set."""
    if problem.mu <= 0:
        raise ConfigError("kind 'strongly_convex' needs a strongly convex "
                          "problem")
    return schedules.make_strongly_convex_schedules(
        mu=problem.mu, L=problems.smoothness_constants(problem, ds)[1],
        d=d, m=m)


# The builders of each spec, keyed by the value of the spec's key; a
# schedule kind is the name of its constructor
DATASETS = {"quadratic": data_mod.synthetic_quadratic,
            "logistic": data_mod.synthetic_logistic,
            None: data_mod.load_libsvm}
PROBLEMS = {problems.QUADRATIC_MEAN: _quadratic_mean,
            problems.LOGISTIC_PLAIN: _logistic_plain,
            problems.LOGISTIC_RIDGE: _logistic_ridge}
STRONGLY_CONVEX = "strongly_convex"
SAMPLES = {kind: getattr(schedules.SampleSchedule, kind) for kind in (
    schedules.CONSTANT, schedules.POWER_LAW, schedules.MATCHED_POWER,
    schedules.MATCHED_LOG, schedules.EXPLICIT)}
STEPS = {kind: getattr(schedules.StepSchedule, kind) for kind in (
    schedules.STEP_CONSTANT, schedules.INVERSE_T, schedules.INVERSE_SQRT_T,
    schedules.STRONGLY_CONVEX_ROUND)}
DELAYS = {None: schedules.DelayFunction}


def build_dataset(spec: dict, what: str = "dataset") -> data_mod.DataSet:
    return build_spec(what, DATASETS, spec, key="synthetic")


def build_problem(spec: dict, ds: data_mod.DataSet) -> problems.Problem:
    return build_spec("problem", PROBLEMS, spec, ds)


def default_steps(problem: problems.Problem) -> dict:
    if problem.mu > 0:
        return {"kind": schedules.INVERSE_T, "eta0": DEFAULT_ETA0,
                "beta": BETA_STRONGLY_CONVEX, "mode": schedules.PER_ROUND}
    return {"kind": schedules.INVERSE_SQRT_T, "eta0": DEFAULT_ETA0,
            "beta": BETA_PLAIN, "mode": schedules.PER_ROUND}


@dataclass
class PreparedRun:
    config: RunConfig
    dataset: data_mod.DataSet
    test_dataset: Optional[data_mod.DataSet]
    problem: problems.Problem
    partition: data_mod.Partition
    table: data_mod.AssignmentTable
    samples: schedules.SampleSchedule
    steps: schedules.StepSchedule
    delay_fn: Optional[schedules.DelayFunction]


def prepare(cfg: RunConfig) -> PreparedRun:
    """Validate a config and build every runnable piece."""
    if cfg.K < 1:
        raise ConfigError(f"K must be >= 1, got {cfg.K}")
    if cfg.K > 2 ** 63 - 1:  # no table holds more slots
        raise ConfigError(f"K must be <= 2**63 - 1, got {cfg.K}")
    if cfg.n < 1:
        raise ConfigError(f"n must be >= 1, got {cfg.n}")
    if cfg.d < 0:
        raise ConfigError(f"d must be >= 0, got {cfg.d}")
    if cfg.gate not in (engine.GATE_LAG, engine.GATE_TAU):
        raise ConfigError(f"gate must be 'lag' or 'tau', got {cfg.gate!r}")
    if cfg.checkpoint_interval < 0:  # 0: no checkpoints
        raise ConfigError(f"checkpoint_interval must be >= 0, got "
                          f"{cfg.checkpoint_interval}")

    ds = build_dataset(cfg.dataset)
    test_ds = None if cfg.test_dataset is None \
        else build_dataset(cfg.test_dataset, "test_dataset")
    if test_ds is not None and test_ds.dim != ds.dim:
        raise ConfigError(f"test_dataset has {test_ds.dim} features, "
                          f"dataset has {ds.dim}")
    problem = build_problem(cfg.problem, ds)

    steps = delay_fn = None
    if cfg.samples.get("kind") == STRONGLY_CONVEX:
        delay_fn, samples, steps = build_spec(
            "samples", {STRONGLY_CONVEX: _strongly_convex}, cfg.samples,
            problem, ds, cfg.d)
    else:
        samples = build_spec("samples", SAMPLES, cfg.samples)
    if cfg.steps is not None:
        steps = build_spec("steps", STEPS, cfg.steps)
    elif steps is None:
        steps = build_spec("steps", STEPS, default_steps(problem))
    if cfg.delay is not None:
        delay_fn = build_spec("delay", DELAYS, cfg.delay, key=None)

    # the table ends at the budget's last round T: a node that ships its
    # row T stops, so no round past T is ever reached
    T = schedules.rounds_for_budget(samples, cfg.K)
    # a run draws every slot of rounds 0..T to count the cells; those past
    # K, all in round T, are capped at what a table in memory once held
    if samples.prefix_sum(T + 1) - cfg.K > 2 ** 30:
        raise ConfigError(f"round T={T} holds more than 2**30 slots past "
                          f"K={cfg.K}, which every run would draw")

    if cfg.gate == engine.GATE_TAU and delay_fn is None:
        raise ConfigError("gate 'tau' needs a 'delay' spec")
    if delay_fn is not None and not cfg.allow_incompatible:
        ok, bad = schedules.verify_delay_compatibility(
            samples, delay_fn, cfg.d, i_max=T)
        if not ok:
            raise ConfigError(f"samples/delay: delay compatibility fails at "
                              f"round {bad}; set allow_incompatible to "
                              f"override")

    part = data_mod.partition(ds, cfg.n, mode=cfg.partition, p=cfg.p,
                              seed=cfg.seed)
    table = data_mod.build_assignment(samples, part.p, cfg.n, rounds=T + 1,
                                      seed=cfg.seed)
    return PreparedRun(config=cfg, dataset=ds, test_dataset=test_ds,
                       problem=problem, partition=part, table=table,
                       samples=samples, steps=steps, delay_fn=delay_fn)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def accuracy(w: np.ndarray, ds: data_mod.DataSet) -> float:
    """Fraction of samples classified correctly (sigmoid threshold 0.5)."""
    z = ds.X @ w[:-1] + w[-1]
    pred = (z >= 0).astype(int)
    return float(np.mean(pred == ds.y))


def rounds_used(samples: schedules.SampleSchedule, K: int) -> int:
    """Communication rounds with at least one gradient within budget K."""
    T = schedules.rounds_for_budget(samples, K)
    return int(np.count_nonzero(np.diff(samples.prefix_sums(T + 1))))


def compute_metrics(prep: PreparedRun, result: engine.RunResult,
                    opt: Optional[problems.OptimumInfo]) -> RunMetrics:
    """Turn the checkpoint stream into the convergence measures.

    The checkpoint models and the final model form one stack: F is
    evaluated for all of them in one objective call, and Y_w is one
    row-times-column product per model, the bits of diff @ diff.
    """
    problem, ds = prep.problem, prep.dataset
    ts = [int(t) for _k, t, _w in result.checkpoints] + [result.grads]
    if opt is not None:
        W = np.array([w for _k, _t, w in result.checkpoints]
                     + [result.w_final])
        D = W - opt.w_star
        Yw = (D[:, None, :] @ D[:, :, None]).ravel().tolist()
        YF = (problems.objective(problem, W, ds) - opt.F_star).tolist()
    else:
        Yw = [float("nan")] * len(ts)
        YF = [float("nan")] * len(ts)
    # windowed average: Y_A[j] = mean of Y_F over checkpoints (j, 2j], as
    # ndarray.mean computes it (the pairwise sum divided by j)
    YF_arr = np.array(YF)
    YA = [float(np.add.reduce(YF_arr[j + 1:2 * j + 1])) / j
          if j >= 1 and 2 * j < len(YF) else float("nan")
          for j in range(len(YF))]
    acc = None
    if problem.kind != problems.QUADRATIC_MEAN:
        test = prep.test_dataset if prep.test_dataset is not None else ds
        acc = accuracy(result.w_final, test)
    return RunMetrics(
        K=result.grads, T=rounds_used(prep.samples, prep.config.K),
        t=ts, Y_w=Yw, Y_F=YF, Y_A=YA, accuracy=acc,
        final_Y_w=Yw[-1], final_Y_F=YF[-1], messages=result.messages,
        rounds_completed=result.rounds_completed,
        wall_time=result.wall_time,
        optimum_exact=None if opt is None else opt.exact,
        optimum_grad_norm=None if opt is None else opt.grad_norm)


def run_prepared(prep: PreparedRun,
                 record_trace: bool = False) -> engine.RunResult:
    """engine.run on the prepared pieces and the config's settings."""
    cfg = prep.config
    return engine.run(prep.problem, prep.partition, prep.table,
                      prep.samples, prep.steps, prep.delay_fn, cfg.K,
                      cfg.seed, gate=cfg.gate, d=cfg.d,
                      checkpoint_interval=cfg.checkpoint_interval,
                      record_trace=record_trace)


def execute(cfg: RunConfig, record_trace: bool = False,
            with_optimum: bool = True):
    """prepare + run + metrics in one call.

    Returns (PreparedRun, RunResult, RunMetrics, OptimumInfo or None).
    """
    prep = prepare(cfg)
    result = run_prepared(prep, record_trace)
    opt = problems.find_optimum(prep.problem, prep.dataset) \
        if with_optimum else None
    metrics = compute_metrics(prep, result, opt)
    return prep, result, metrics, opt


# ---------------------------------------------------------------------------
# Experiment suites
# ---------------------------------------------------------------------------

# Each suite is a list of (setting, RunConfig fields); a field replaces
# the one of the base run, ridge logistic at constant s = 100
_LINEAR = {"kind": schedules.POWER_LAW, "a": 50.0, "c": 1.0}
SUITES = {
    "const-vs-diminishing": [
        (f"constant-step/constant-s={s}",
         {"samples": {"kind": schedules.CONSTANT, "s": s},
          "steps": {"kind": schedules.STEP_CONSTANT, "eta": 0.0025}})
        for s in (100, 500, 1000)] + [
        ("diminishing-step/linear-s",
         {"samples": _LINEAR,
          "steps": {"kind": schedules.INVERSE_T, "eta0": DEFAULT_ETA0,
                    "beta": BETA_STRONGLY_CONVEX}})],
    "sampling-methods": [
        ("constant", {"samples": {"kind": schedules.CONSTANT, "s": 100}}),
        ("linear", {"samples": _LINEAR}),
        ("quadratic", {"samples": dict(_LINEAR, c=2.0)}),
        ("sqrt", {"samples": dict(_LINEAR, c=0.5)})],
    "biased-vs-unbiased": [
        (mode, {"n": 2, "partition": mode})
        for mode in (data_mod.UNBIASED, data_mod.BIASED_BY_LABEL)],
    "scaling-nodes": [(f"n={n}", {"n": n}) for n in (1, 2, 5)],
    "budget-sweep": [(f"K={budget}", {"K": budget, "samples": _LINEAR})
                     for budget in (1000, 2000, 4000)],
}


def run_suite(name: str, seed: int = 0,
              dataset_path: Optional[str] = None,
              K: Optional[int] = None) -> str:
    """Run one named experiment grid; returns CSV text (setting, accuracy,
    T, K).  Deterministic for a fixed (suite, seed).  K (default 4000) is
    the budget of the settings that do not set their own."""
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; choose from "
                          f"{tuple(SUITES)}")
    if K is not None and all("K" in f for _s, f in SUITES[name]):
        raise ConfigError(f"suite {name!r} sets K in every setting, so "
                          f"--K does not apply")
    dataset = {"path": dataset_path} if dataset_path else \
        {"synthetic": "logistic", "M": 2000, "dim": 10, "seed": 7}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["setting", "accuracy", "T", "K"])
    base = dict(problem={"kind": problems.LOGISTIC_RIDGE}, dataset=dataset,
                K=4000 if K is None else K, seed=seed,
                samples={"kind": schedules.CONSTANT, "s": 100})
    for setting, fields in SUITES[name]:
        cfg = RunConfig(**base | fields)
        _prep, _res, metrics, _opt = execute(cfg, with_optimum=False)
        acc = metrics.accuracy
        writer.writerow([setting, "" if acc is None else f"{acc:.4f}",
                         metrics.T, metrics.K])
    return buf.getvalue()


def schedule_table(prep: PreparedRun, rows: int) -> str:
    """CSV of (i, s_i, cumulative, eta_bar_i, tau(cumulative), window ok)
    for the first min(rows, T + 1) rounds of a prepared run."""
    d, rows = prep.config.d, min(max(rows, 0), prep.table.rounds)
    sums = prep.samples.prefix_sums(rows)
    tau = ok = [""] * rows
    if prep.delay_fn is not None:
        x, good = schedules.delay_windows(prep.delay_fn, np.array(sums), d)
        tau = [f"{v:.6f}" for v in x.tolist()]
        ok = ok[:d] + [str(v).lower() for v in good.tolist()]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["i", "s_i", "sum_s", "eta_bar", "tau", "window_ok"])
    for i in range(rows):
        eta = schedules.round_step(prep.steps, prep.samples, i)
        writer.writerow([i, sums[i + 1] - sums[i], sums[i + 1],
                         f"{eta:.12g}", tau[i], ok[i]])
    return buf.getvalue()
