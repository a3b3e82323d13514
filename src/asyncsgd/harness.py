"""Experiment harness: JSON run configs, convergence metrics, and suites.

A RunConfig describes one simulation end to end (problem, data, schedules,
gate, budget).  The harness builds the pieces, invokes the engine, and turns
the checkpoint stream into the convergence measures used for comparisons:
Y_w = ||w_t - w*||^2, Y_F = F(w_t) - F*, the windowed average Y_A, test
accuracy and the communication-round count T.
"""
from __future__ import annotations

import csv
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

# JSON value types accepted per RunConfig annotation, and their JSON names
_JSON_TYPES = {"int": (int,), "str": (str,), "bool": (bool,),
               "dict": (dict,), "Optional[dict]": (dict, type(None)),
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
    deterministic_split: bool = False
    optimum_budget: int = 200000

    @staticmethod
    def from_json(text: str) -> "RunConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        fields = RunConfig.__dataclass_fields__
        for key, value in raw.items():
            if key not in fields:
                raise ConfigError(f"unknown config field {key!r}")
            # exact types: json.loads gives bool for true/false, never int
            allowed = _JSON_TYPES[fields[key].type]
            if type(value) not in allowed:
                want = " or ".join(_JSON_NAMES[t] for t in allowed)
                raise ConfigError(f"config field {key!r} must be {want}, "
                                  f"got {_JSON_NAMES[type(value)]}")
        for req in ("problem", "dataset", "samples"):
            if req not in raw:
                raise ConfigError(f"missing required config field {req!r}")
        return RunConfig(**raw)

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

    def to_json(self) -> str:
        def clean(v):
            if isinstance(v, float) and not math.isfinite(v):
                return None
            return v
        out = {
            "K": self.K, "T": self.T, "t": self.t,
            "Y_w": [clean(v) for v in self.Y_w],
            "Y_F": [clean(v) for v in self.Y_F],
            "Y_A": [clean(v) for v in self.Y_A],
            "accuracy": self.accuracy,
            "final_Y_w": clean(self.final_Y_w),
            "final_Y_F": clean(self.final_Y_F),
            "messages": self.messages,
            "rounds_completed": self.rounds_completed,
            "wall_time": self.wall_time,
        }
        return json.dumps(out, sort_keys=True)


# ---------------------------------------------------------------------------
# Config -> runnable pieces
# ---------------------------------------------------------------------------

def build_dataset(spec: dict) -> data_mod.DataSet:
    if "path" in spec:
        return data_mod.load_libsvm(spec["path"])
    kind = spec.get("synthetic")
    M = int(spec.get("M", 1000))
    dim = int(spec.get("dim", 10))
    seed = int(spec.get("seed", 0))
    if kind == "quadratic":
        return data_mod.synthetic_quadratic(M, dim, seed=seed,
                                            scale=spec.get("scale", 1.0))
    if kind == "logistic":
        return data_mod.synthetic_logistic(
            M, dim, seed=seed,
            separation=spec.get("separation", 2.0),
            noise=spec.get("noise", 1.5),
            center_seed=spec.get("center_seed"))
    raise ConfigError(f"dataset spec needs 'path' or a known 'synthetic' "
                      f"kind, got {spec!r}")


def build_problem(spec: dict, ds: data_mod.DataSet) -> problems.Problem:
    kind = spec.get("kind")
    if kind == problems.QUADRATIC_MEAN:
        return problems.Problem.quadratic_mean(ds.dim)
    if kind == problems.LOGISTIC_PLAIN:
        p = problems.Problem.logistic_plain(ds.dim)
        _mu, L = problems.smoothness_constants(p, ds)
        return problems.Problem(kind=kind, dim=ds.dim + 1, mu=0.0, L=L)
    if kind == problems.LOGISTIC_RIDGE:
        lam = spec.get("lam")
        if lam is None:
            lam = 1.0 / len(ds)
        p = problems.Problem.logistic_ridge(ds.dim, lam=lam)
        _mu, L = problems.smoothness_constants(p, ds)
        return problems.Problem(kind=kind, dim=ds.dim + 1, mu=lam, L=L,
                                lam=lam)
    raise ConfigError(f"unknown problem kind {kind!r}")


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
    if cfg.n < 1:
        raise ConfigError(f"n must be >= 1, got {cfg.n}")
    if cfg.d < 0:
        raise ConfigError(f"d must be >= 0, got {cfg.d}")
    if cfg.gate not in (engine.GATE_LAG, engine.GATE_TAU):
        raise ConfigError(f"gate must be 'lag' or 'tau', got {cfg.gate!r}")

    ds = build_dataset(cfg.dataset)
    test_ds = build_dataset(cfg.test_dataset) if cfg.test_dataset else None
    problem = build_problem(cfg.problem, ds)

    try:
        if cfg.samples.get("kind") == "strongly_convex":
            if problem.mu <= 0:
                raise ConfigError("samples kind 'strongly_convex' needs a "
                                  "strongly convex problem")
            m = int(cfg.samples.get("m", 7747))
            delay_fn, samples, steps = schedules.make_strongly_convex_schedules(
                mu=problem.mu, L=problem.L, d=cfg.d, m=m)
            if cfg.steps is not None:
                steps = schedules.StepSchedule.from_dict(cfg.steps)
            if cfg.delay is not None:
                delay_fn = schedules.DelayFunction.from_dict(cfg.delay)
        else:
            samples = schedules.SampleSchedule.from_dict(cfg.samples)
            steps_spec = cfg.steps if cfg.steps is not None \
                else default_steps(problem)
            steps = schedules.StepSchedule.from_dict(steps_spec)
            delay_fn = schedules.DelayFunction.from_dict(cfg.delay) \
                if cfg.delay else None
    except schedules.ScheduleError as exc:
        raise ConfigError(f"samples/steps: {exc}")

    s0 = schedules.sample_size(samples, 0)
    if s0 > 0 and cfg.K < s0:
        raise ConfigError(f"K={cfg.K} is smaller than the first round "
                          f"sample size s_0={s0}")
    try:
        T = schedules.rounds_for_budget(samples, cfg.K)
    except schedules.ScheduleError as exc:
        raise ConfigError(f"samples: schedule cannot cover K={cfg.K}: {exc}")
    rounds = T + cfg.d + 5
    if samples.kind == schedules.EXPLICIT:
        rounds = min(rounds, len(samples.values))
        if samples.prefix_sum(len(samples.values)) < cfg.K:
            raise ConfigError("samples: explicit schedule does not cover K")

    if cfg.gate == engine.GATE_TAU and delay_fn is None:
        raise ConfigError("gate 'tau' needs a 'delay' spec")
    if delay_fn is not None and not cfg.allow_incompatible:
        ok, bad = schedules.verify_delay_compatibility(
            samples, delay_fn, cfg.d, i_max=max(rounds, cfg.d))
        if not ok:
            raise ConfigError(f"samples/delay: delay compatibility fails at "
                              f"round {bad}; set allow_incompatible to "
                              f"override")

    part = data_mod.partition(ds, cfg.n, mode=cfg.partition, p=cfg.p,
                              seed=cfg.seed)
    table = data_mod.build_assignment(
        samples, part.p, cfg.n, rounds=rounds + 1, seed=cfg.seed,
        deterministic_split=cfg.deterministic_split)
    return PreparedRun(config=cfg, dataset=ds, test_dataset=test_ds,
                       problem=problem, partition=part, table=table,
                       samples=samples, steps=steps, delay_fn=delay_fn)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def accuracy(problem: problems.Problem, w: np.ndarray,
             ds: data_mod.DataSet) -> float:
    """Fraction of samples classified correctly (sigmoid threshold 0.5)."""
    z = ds.X @ w[:-1] + w[-1]
    pred = (z >= 0).astype(int)
    return float(np.mean(pred == ds.y))


def rounds_used(samples: schedules.SampleSchedule, K: int) -> int:
    """Communication rounds with at least one gradient within budget K."""
    T = schedules.rounds_for_budget(samples, K)
    return sum(1 for i in range(T + 1)
               if schedules.sample_size(samples, i) > 0)


def compute_metrics(prep: PreparedRun, result: engine.RunResult,
                    opt: Optional[problems.OptimumInfo]) -> RunMetrics:
    """Turn the checkpoint stream into the convergence measures."""
    problem, ds = prep.problem, prep.dataset
    points = list(result.checkpoints) + [(result.k_final,
                                          result.grads, result.w_final)]
    ts, Yw, YF = [], [], []
    for _k, t, w in points:
        ts.append(int(t))
        if opt is not None:
            diff = w - opt.w_star
            Yw.append(float(diff @ diff))
            YF.append(problems.objective(problem, w, ds) - opt.F_star)
        else:
            Yw.append(float("nan"))
            YF.append(float("nan"))
    # windowed average: Y_A[j] = mean of Y_F over checkpoints (j, 2j]
    YF_arr = np.array(YF)
    YA = []
    for j in range(len(YF)):
        if j >= 1 and 2 * j < len(YF):
            YA.append(float(YF_arr[j + 1:2 * j + 1].mean()))
        else:
            YA.append(float("nan"))
    acc = None
    if problem.kind != problems.QUADRATIC_MEAN:
        test = prep.test_dataset if prep.test_dataset is not None else ds
        acc = accuracy(problem, result.w_final, test)
    return RunMetrics(
        K=result.grads, T=rounds_used(prep.samples, prep.config.K),
        t=ts, Y_w=Yw, Y_F=YF, Y_A=YA, accuracy=acc,
        final_Y_w=Yw[-1], final_Y_F=YF[-1], messages=result.messages,
        rounds_completed=result.rounds_completed,
        wall_time=result.wall_time)


def execute(cfg: RunConfig, record_trace: bool = False,
            with_optimum: bool = True):
    """prepare + run + metrics in one call.

    Returns (PreparedRun, RunResult, RunMetrics, OptimumInfo or None).
    """
    prep = prepare(cfg)
    result = engine.run(prep.problem, prep.partition, prep.table,
                        prep.samples, prep.steps, prep.delay_fn, cfg.K,
                        cfg.seed, gate=cfg.gate, d=cfg.d,
                        checkpoint_interval=cfg.checkpoint_interval,
                        record_trace=record_trace)
    opt = None
    if with_optimum:
        opt = problems.find_optimum(prep.problem, prep.dataset,
                                    budget=cfg.optimum_budget)
    metrics = compute_metrics(prep, result, opt)
    return prep, result, metrics, opt


# ---------------------------------------------------------------------------
# Experiment suites
# ---------------------------------------------------------------------------

SUITES = ("const-vs-diminishing", "sampling-methods", "biased-vs-unbiased",
          "scaling-nodes", "budget-sweep")


def _suite_dataset(dataset_path: Optional[str]) -> dict:
    if dataset_path:
        return {"path": dataset_path}
    return {"synthetic": "logistic", "M": 2000, "dim": 10, "seed": 7}


def _row(setting: str, metrics: RunMetrics) -> dict:
    acc = metrics.accuracy
    return {"setting": setting,
            "accuracy": "" if acc is None else f"{acc:.4f}",
            "T": metrics.T, "K": metrics.K}


def run_suite(name: str, seed: int = 0,
              dataset_path: Optional[str] = None,
              K: int = 4000) -> str:
    """Run one named experiment grid; returns CSV text (setting, accuracy,
    T, K).  Deterministic for a fixed (suite, seed)."""
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; choose from {SUITES}")
    ds_spec = _suite_dataset(dataset_path)
    rows = []

    def go(setting: str, **overrides) -> RunMetrics:
        base = dict(problem={"kind": problems.LOGISTIC_RIDGE},
                    dataset=ds_spec, K=K, seed=seed,
                    samples={"kind": schedules.CONSTANT, "s": 100})
        base.update(overrides)
        cfg = RunConfig(**base)
        _prep, _res, metrics, _opt = execute(cfg, with_optimum=False)
        rows.append(_row(setting, metrics))
        return metrics

    if name == "const-vs-diminishing":
        for s in (100, 500, 1000):
            go(f"constant-step/constant-s={s}",
               samples={"kind": schedules.CONSTANT, "s": s},
               steps={"kind": schedules.STEP_CONSTANT, "eta": 0.0025})
        go("diminishing-step/linear-s",
           samples={"kind": schedules.POWER_LAW, "a": 50.0, "c": 1.0},
           steps={"kind": schedules.INVERSE_T, "eta0": DEFAULT_ETA0,
                  "beta": BETA_STRONGLY_CONVEX})
    elif name == "sampling-methods":
        go("constant", samples={"kind": schedules.CONSTANT, "s": 100})
        go("linear", samples={"kind": schedules.POWER_LAW, "a": 50.0,
                              "c": 1.0})
        go("quadratic", samples={"kind": schedules.POWER_LAW, "a": 50.0,
                                 "c": 2.0})
        go("sqrt", samples={"kind": schedules.POWER_LAW, "a": 50.0,
                            "c": 0.5})
    elif name == "biased-vs-unbiased":
        for mode in (data_mod.UNBIASED, data_mod.BIASED_BY_LABEL):
            go(mode, n=2, partition=mode)
    elif name == "scaling-nodes":
        for n in (1, 2, 5):
            go(f"n={n}", n=n)
    elif name == "budget-sweep":
        for budget in (1000, 2000, 4000):
            go(f"K={budget}", K=budget,
               samples={"kind": schedules.POWER_LAW, "a": 50.0, "c": 1.0})

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["setting", "accuracy", "T", "K"],
                            lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def schedule_table(samples: schedules.SampleSchedule,
                   steps: schedules.StepSchedule,
                   delay_fn: Optional[schedules.DelayFunction],
                   d: int, rows: int) -> str:
    """CSV of (i, s_i, cumulative, eta_bar_i, tau(cumulative), window ok)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["i", "s_i", "sum_s", "eta_bar", "tau", "window_ok"])
    for i in range(rows):
        s_i = schedules.sample_size(samples, i)
        total = samples.prefix_sum(i + 1)
        eta = schedules.round_step(steps, samples, i)
        if delay_fn is not None:
            tau = schedules.eval_delay(delay_fn, float(total))
            window = 1 + sum(schedules.sample_size(samples, j)
                             for j in range(max(0, i - d), i + 1))
            ok = "" if i < d else str(tau >= window).lower()
            writer.writerow([i, s_i, total, f"{eta:.12g}", f"{tau:.6f}", ok])
        else:
            writer.writerow([i, s_i, total, f"{eta:.12g}", "", ""])
    return buf.getvalue()
