"""The benchmark's workloads: run configs, one operation, correctness checks.

Each workload is one `harness.RunConfig` driven through the public API.
One operation is `harness.execute` on that config and, for the audit
workload, the two trace audits that `asyncsgd audit` runs after it.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from asyncsgd import engine, harness, problems

# Acceptance criterion 6: K * ||w_K - w*||^2 <= 4 * 36^2 * N / mu^2.
CRITERION_6_FACTOR = 4.0 * 36.0 ** 2
# Largest distance allowed between the logistic model's training accuracy
# and the Bayes accuracy of the synthetic data; 0.03 is about 4.7 standard
# errors of an accuracy measured on 2000 samples.
ACCURACY_TOLERANCE = 0.03


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict          # RunConfig fields; seed and dataset seed are bases
    audit: bool = False   # record the trace and run both audits after execute

    def run_config(self, seed: int) -> harness.RunConfig:
        """The config for workload seed `seed`; seed 0 gives the base seeds."""
        fields = dict(self.config)
        fields["dataset"] = dict(fields["dataset"])
        fields["dataset"]["seed"] += seed
        fields["seed"] += seed
        return harness.RunConfig(**fields)


_SC_QUADRATIC = {"problem": {"kind": problems.QUADRATIC_MEAN},
                 "samples": {"kind": "strongly_convex", "m": 7747}, "d": 1,
                 "K": 100000, "seed": 0}

WORKLOADS = {w.name: w for w in (
    # Criterion 6's shape: about 4,800 rounds of about 20 gradients, so
    # per-round engine costs (row scan, update shipping, broadcast fan-out)
    # dominate.
    Workload(
        "sc-quad",
        dict(_SC_QUADRATIC,
             dataset={"synthetic": "quadratic", "M": 1000, "dim": 10,
                      "seed": 0},
             n=5, gate="lag", checkpoint_interval=20)),
    # The README example: the 200k-step estimate of w* and the logistic
    # kernel dominate; the engine runs only 28 large rounds.
    Workload(
        "logistic-readme",
        {"problem": {"kind": problems.LOGISTIC_RIDGE},
         "dataset": {"synthetic": "logistic", "M": 2000, "dim": 10,
                     "seed": 7},
         "samples": {"kind": "power_law", "a": 50.0, "c": 1.0},
         "steps": {"kind": "inverse_t", "eta0": 0.1, "beta": 0.001},
         "K": 20000, "n": 5, "seed": 1}),
    # Tau gate on every gradient, a 100k-record trace, 20-way broadcast
    # fan-out, both audits replaying the trace, and F at every checkpoint.
    # n stays at 20 because n >= 50 exhausts the assignment table (see
    # README.md).
    Workload(
        "audit-tau-wide",
        dict(_SC_QUADRATIC,
             dataset={"synthetic": "quadratic", "M": 2000, "dim": 10,
                      "seed": 0},
             n=20, gate="tau", checkpoint_interval=1),
        audit=True),
)}


@dataclass
class Outcome:
    prep: harness.PreparedRun
    result: engine.RunResult
    metrics: harness.RunMetrics
    opt: problems.OptimumInfo
    audits: tuple = ()    # ((ok, first bad), ...) per audit


def operate(workload: Workload, cfg: harness.RunConfig) -> Outcome:
    """One operation: execute, then the audits if the workload has them."""
    prep, result, metrics, opt = harness.execute(
        cfg, record_trace=workload.audit)
    audits = ()
    if workload.audit:
        audits = (engine.audit_consistency(result.trace, prep.delay_fn),
                  engine.audit_gate_invariant(result.trace, prep.delay_fn))
    return Outcome(prep, result, metrics, opt, audits)


def bayes_accuracy(dataset: dict) -> float:
    """Accuracy of the optimal classifier for `data.synthetic_logistic`.

    The two classes are Gaussians with standard deviation `noise` around
    centres at distance `separation` from the origin on opposite sides.
    """
    z = dataset.get("separation", 2.0) / dataset.get("noise", 1.5)
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def w_digest(w: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(w).tobytes()).hexdigest()


def stats(out: Outcome) -> dict:
    """Simulated statistics; a speed-only change leaves every one unchanged."""
    res, met = out.result, out.metrics
    return {"messages": res.messages, "k_final": res.k_final,
            "rounds_completed": {str(c): r for c, r in
                                 sorted(res.rounds_completed.items())},
            "final_Y_w": met.final_Y_w, "final_Y_F": met.final_Y_F,
            "accuracy": met.accuracy, "w_final_sha256": w_digest(res.w_final)}


def check(out: Outcome, cfg: harness.RunConfig) -> list:
    """Every failed correctness check of one operation, as messages."""
    res, met, opt, prep = out.result, out.metrics, out.opt, out.prep
    bad = []
    if res.grads != cfg.K:
        bad.append(f"grads {res.grads} != K {cfg.K}")
    finite = [np.all(np.isfinite(res.w_final)), math.isfinite(met.final_Y_w),
              math.isfinite(met.final_Y_F), math.isfinite(opt.F_star)]
    if not all(finite):
        bad.append("non-finite output")
    if prep.problem.kind == problems.QUADRATIC_MEAN:
        scaled = cfg.K * met.final_Y_w
        bound = CRITERION_6_FACTOR * opt.N / prep.problem.mu ** 2
        if not scaled <= bound:
            bad.append(f"K*||w_K-w*||^2 = {scaled:.4g} > bound {bound:.4g}")
    else:
        ref = bayes_accuracy(cfg.dataset)
        if not abs(met.accuracy - ref) <= ACCURACY_TOLERANCE:
            bad.append(f"accuracy {met.accuracy:.4f} is not within "
                       f"{ACCURACY_TOLERANCE} of Bayes accuracy {ref:.4f}")
    for name, (ok, first_bad) in zip(("consistency", "gate invariant"),
                                     out.audits):
        if not ok:
            bad.append(f"audit {name} failed at {first_bad}")
    if out.audits and len(res.trace.records) != cfg.K:
        bad.append(f"trace holds {len(res.trace.records)} records, "
                   f"not K={cfg.K}")
    return bad
