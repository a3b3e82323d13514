"""Acceptance suite: one test per acceptance criterion.

Each test emits a single "ACCEPTANCE n: PASS/FAIL/SKIP" line with the
measured quantity and its tolerance; the lines are replayed in the
terminal summary so they always show in the run log.
"""

import math
import os

import numpy as np
import pytest
from scipy import stats

import conftest
from oracles import make_step_fn

from asyncsgd import data, engine, harness, problems, rng, schedules
from asyncsgd.data import build_assignment, partition, synthetic_quadratic
from asyncsgd.engine import (audit_consistency, audit_gate_invariant, rho,
                             rho_inverse, run, serial_sgd)
from asyncsgd.problems import Problem
from asyncsgd.schedules import (DelayFunction, SampleSchedule, StepSchedule,
                                make_strongly_convex_schedules,
                                rounds_for_budget, sample_size,
                                verify_delay_compatibility)


def report(criterion: int, ok, detail: str) -> None:
    status = {True: "PASS", False: "FAIL", None: "SKIP"}[ok]
    line = f"ACCEPTANCE {criterion}: {status} - {detail}"
    print(line)
    conftest.record_acceptance(line)


# ---------------------------------------------------------------------------
# 1. schedule fidelity: s_0 = 16 exactly
# ---------------------------------------------------------------------------

def test_criterion_1_schedule_fidelity():
    _df, sam, _st = make_strongly_convex_schedules(mu=1.0, L=1.0, d=1, m=7747)
    s0 = sample_size(sam, 0)
    ok = s0 == 16
    report(1, ok, f"strongly convex schedule s_0={s0}, expected exactly 16")
    assert ok


# ---------------------------------------------------------------------------
# 2. window-inequality property suite up to i = 10^4
# ---------------------------------------------------------------------------

def test_criterion_2_delay_compatibility_sweep():
    failures = []
    for g in (2.0, 3.0):
        for d in (0, 1, 2):
            for m in (0, 10):
                sam = SampleSchedule.matched_power(g=g, m=m, d=d)
                M0 = ((m + 1) * (g - 1) / g) ** (g / (g - 1))
                df = DelayFunction(g=g, M0=M0, M1=float(d + 2))
                ok, bad = verify_delay_compatibility(sam, df, d, i_max=10 ** 4)
                if not ok:
                    failures.append((g, d, m, bad))
    df, sam, _st = make_strongly_convex_schedules(1.0, 1.0, 1, 7747)
    ok, bad = verify_delay_compatibility(sam, df, 1, i_max=10 ** 4)
    if not ok:
        failures.append(("log", 1, 7747, bad))
    passed = not failures
    report(2, passed, f"12 power-schedule grid points + the log schedule "
                      f"hold to i=10^4; violations: {failures or 'none'}")
    assert passed


# ---------------------------------------------------------------------------
# 3. single-node runs match the serial oracle bit for bit
# ---------------------------------------------------------------------------

def test_criterion_3_serial_equivalence():
    mismatches = 0
    for seed in range(10):
        gen = rng.stream(seed, "acceptance-equiv")
        ds = synthetic_quadratic(int(gen.integers(20, 100)),
                                 int(gen.integers(1, 6)), seed=seed)
        prob = Problem.quadratic_mean(ds.dim)
        part = partition(ds, 1, seed=seed)
        if gen.integers(0, 2):
            sam = SampleSchedule.constant(int(gen.integers(2, 10)))
        else:
            sam = SampleSchedule.power_law(float(gen.integers(1, 6)), b=1.0)
        st = StepSchedule.inverse_t(0.2, 0.05)
        K = int(gen.integers(20, 80))
        table = build_assignment(sam, [1.0], 1, rounds=80, seed=seed)
        res = run(prob, part, table, sam, st, None, K=K, seed=seed,
                  record_iterates=True)
        node_gen = rng.stream(seed, rng.NODE_SAMPLING, 1)
        _w, hist = serial_sgd(prob, part.local(1), make_step_fn(st, sam), K,
                              node_gen, record_iterates=True)
        same = (len(res.iterates) == len(hist) == K
                and all(np.array_equal(a, b)
                        for a, b in zip(res.iterates, hist))
                and np.array_equal(res.w_final, _w))
        if not same:
            mismatches += 1
    ok = mismatches == 0
    report(3, ok, f"10 random single-node configs, bit-exact iterate "
                  f"mismatches: {mismatches} (required 0)")
    assert ok


# ---------------------------------------------------------------------------
# 4. delay-invariant audit over 100 seeded runs
# ---------------------------------------------------------------------------

def test_criterion_4_delay_invariant_audit():
    sc_df, sc_sam, sc_st = make_strongly_convex_schedules(1.0, 1.0, 1, 7747)
    lp_sam = SampleSchedule.matched_power(g=2.0, m=10, d=1)
    lp_df = DelayFunction(g=2.0, M0=(11 * 0.5) ** 2, M1=3.0)
    lp_st = StepSchedule.inverse_t(0.1, 0.01)
    assert verify_delay_compatibility(lp_sam, lp_df, 1, i_max=200)[0]

    violations = 0
    runs = 0
    for sam, df, st, K in ((sc_sam, sc_df, sc_st, 800),
                           (lp_sam, lp_df, lp_st, 400)):
        for n in (2, 5):
            for gate in (engine.GATE_LAG, engine.GATE_TAU):
                for seed in range(13 if (sam is sc_sam) else 12):
                    ds = synthetic_quadratic(100, 3, seed=seed)
                    prob = Problem.quadratic_mean(3)
                    part = partition(ds, n, seed=seed)
                    table = build_assignment(sam, part.p, n, rounds=120,
                                             seed=seed)
                    res = run(prob, part, table, sam, st, df, K=K, seed=seed,
                              gate=gate, d=1, record_trace=True)
                    runs += 1
                    if not audit_consistency(res.trace, df)[0]:
                        violations += 1
                    if not audit_gate_invariant(res.trace, df)[0]:
                        violations += 1
    ok = violations == 0 and runs == 100
    report(4, ok, f"{runs} seeded runs (n in {{2,5}}, both gates, two "
                  f"compatible schedule families), violations: {violations} "
                  f"(required 0)")
    assert ok


# ---------------------------------------------------------------------------
# 5. rho bijectivity on 50 random tables
# ---------------------------------------------------------------------------

def test_criterion_5_rho_bijectivity():
    bad = 0
    for seed in range(50):
        gen = rng.stream(seed, "acceptance-rho")
        n = int(gen.integers(1, 6))
        rounds = int(gen.integers(1, 21))
        sam = SampleSchedule.explicit([int(gen.integers(1, 15))
                                       for _ in range(rounds)])
        table = build_assignment(sam, np.full(n, 1.0 / n), n, rounds, seed)
        total = int(table.start[-1])  # the slots of every row
        for t in range(total):
            c, i, h = rho_inverse(table, t)
            if rho(table, c, i, h) != t:
                bad += 1
    ok = bad == 0
    report(5, ok, f"50 random tables (n<=5, rounds<=20), inversion "
                  f"failures: {bad} (required 0)")
    assert ok


# ---------------------------------------------------------------------------
# 6. convergence-rate bound at desk scale
# ---------------------------------------------------------------------------

def test_criterion_6_convergence_rate():
    K = 10 ** 5
    ds = synthetic_quadratic(1000, 10, seed=0)
    prob = Problem.quadratic_mean(10)
    opt = problems.find_optimum(prob, ds)
    df, sam, st = make_strongly_convex_schedules(1.0, 1.0, 1, 7747)
    T = rounds_for_budget(sam, K)
    finals, trajs = [], []
    for seed in range(20):
        part = partition(ds, 5, seed=seed)
        table = build_assignment(sam, part.p, 5, rounds=T + 8, seed=seed)
        res = run(prob, part, table, sam, st, df, K=K, seed=seed,
                  record_trace=False, checkpoint_interval=20)
        finals.append(K * float(np.sum((res.w_final - opt.w_star) ** 2)))
        ts = np.array([t for _k, t, _w in res.checkpoints], dtype=float)
        yw = np.array([float(np.sum((w - opt.w_star) ** 2))
                       for _k, _t, w in res.checkpoints])
        trajs.append((ts, yw))
    bound = 4.0 * 36.0 ** 2 * opt.N / 1.0 ** 2
    median_final = float(np.median(finals))

    # median trajectory across seeds over the shared checkpoint grid
    L = min(len(ts) for ts, _ in trajs)
    ts = trajs[0][0][:L]
    Y = np.median(np.vstack([yw[:L] for _, yw in trajs]), axis=0)
    last = ts >= ts[-1] / 10.0
    prod = Y[last] * ts[last]
    explode_ratio = float(prod.max() / np.median(prod))
    A = np.vstack([np.log(ts[last]), np.ones(int(last.sum()))]).T
    slope = float(np.linalg.lstsq(A, np.log(Y[last]), rcond=None)[0][0])

    ok = (median_final <= bound and explode_ratio <= 2.0
          and -1.3 <= slope <= -0.7)
    report(6, ok, f"median K*||w_K-w*||^2 = {median_final:.1f} <= "
                  f"{bound:.1f}; t*Y_w max/median over last decade = "
                  f"{explode_ratio:.2f} (<= 2); log-log slope = {slope:.3f} "
                  f"(in [-1.3, -0.7])")
    assert ok


# ---------------------------------------------------------------------------
# 7. communication sub-linearity
# ---------------------------------------------------------------------------

def test_criterion_7_communication_sublinearity():
    K = 20000
    linear = SampleSchedule.power_law(a=50.0, c=1.0)
    T_linear = harness.rounds_used(linear, K)
    T_const = harness.rounds_used(SampleSchedule.constant(100), K)
    cap = 2.0 * math.sqrt(2.0 * K / 50.0)
    ok = T_linear == 28 and T_linear <= cap and T_const == 200
    report(7, ok, f"linear a=50 uses T={T_linear} rounds at K={K} "
                  f"(expected 28, cap {cap:.1f}); constant s=100 uses "
                  f"T={T_const} (expected 200)")
    assert ok


# ---------------------------------------------------------------------------
# 8. constant-sample accuracy table on a real data set
# ---------------------------------------------------------------------------

def find_real_dataset():
    candidates = []
    env = os.environ.get("ASYNCSGD_DATA")
    if env:
        candidates += [os.path.join(env, name) for name in
                       ("a9a", "a9a.txt", "phishing", "phishing.txt")]
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    candidates += [os.path.join(here, "data", name)
                   for name in ("a9a", "a9a.txt", "phishing", "phishing.txt")]
    for path in candidates:
        if os.path.exists(path):
            return path
    return None


def test_criterion_8_accuracy_table():
    path = find_real_dataset()
    if path is None:
        report(8, None, "needs the a9a or phishing LIBSVM file (place it "
                        "under ./data or $ASYNCSGD_DATA); not available in "
                        "this environment, so the +-0.02 accuracy "
                        "comparison cannot be executed")
        pytest.skip("a9a/phishing dataset file not available")
    accs = {}
    for s in (100, 1000):
        cfg = harness.RunConfig(
            problem={"kind": "logistic_ridge"},
            dataset={"path": path},
            samples={"kind": "constant", "s": s},
            steps={"kind": "constant", "eta": 0.0025},
            K=20000, n=5, seed=0, checkpoint_interval=50)
        _p, _r, metrics, _o = harness.execute(cfg, with_optimum=False)
        accs[s] = metrics.accuracy
    is_a9a = "a9a" in os.path.basename(path)
    ok = accs[1000] <= accs[100] - 0.08
    if is_a9a:
        ok = ok and abs(accs[100] - 0.8443) <= 0.02
    report(8, ok, f"{os.path.basename(path)}: accuracy s=100 -> "
                  f"{accs[100]:.4f} (a9a target 0.8443 +- 0.02), s=1000 -> "
                  f"{accs[1000]:.4f} (degradation >= 0.08 required)")
    assert ok


# ---------------------------------------------------------------------------
# 9. diminishing-step parity with far fewer rounds
# ---------------------------------------------------------------------------

DS_SPEC = {"synthetic": "logistic", "M": 2000, "dim": 10, "seed": 7,
           "separation": 2.0, "noise": 1.0, "center_seed": 7}
TEST_SPEC = dict(DS_SPEC, M=1000, seed=8)


def logistic_metrics(samples, steps, kind="logistic_ridge", **overrides):
    base = dict(problem={"kind": kind}, dataset=DS_SPEC,
                test_dataset=TEST_SPEC, samples=samples, steps=steps,
                K=20000, n=5, seed=1, checkpoint_interval=50)
    base.update(overrides)
    cfg = harness.RunConfig(**base)
    _p, _r, metrics, _o = harness.execute(cfg, with_optimum=False)
    return metrics


def test_criterion_9_diminishing_vs_constant_parity():
    # best constant-step baseline at the protocol's constant sample size
    best_acc, best_T = 0.0, None
    for eta in (0.0025, 0.005, 0.01, 0.025, 0.05):
        m = logistic_metrics({"kind": "constant", "s": 100},
                             {"kind": "constant", "eta": eta})
        if m.accuracy > best_acc:
            best_acc, best_T = m.accuracy, m.T
    dim = logistic_metrics({"kind": "power_law", "a": 50.0, "c": 1.0},
                           {"kind": "inverse_t", "eta0": 0.1, "beta": 0.001})
    ok = (dim.accuracy >= best_acc - 0.01) and (dim.T * 2 <= best_T)
    report(9, ok, f"diminishing+linear accuracy {dim.accuracy:.4f} vs best "
                  f"constant {best_acc:.4f} (tolerance 0.01) using "
                  f"T={dim.T} vs {best_T} rounds (>= 2x reduction required)")
    assert ok


# ---------------------------------------------------------------------------
# 10. biased-data tolerance
# ---------------------------------------------------------------------------

def test_criterion_10_biased_data_tolerance():
    diffs = {}
    for kind, steps in (
            ("logistic_ridge",
             {"kind": "inverse_t", "eta0": 0.1, "beta": 0.001}),
            ("logistic_plain",
             {"kind": "inverse_sqrt_t", "eta0": 0.1, "beta": 0.01})):
        accs = {}
        for mode in (data.UNBIASED, data.BIASED_BY_LABEL):
            m = logistic_metrics({"kind": "constant", "s": 100}, steps,
                                 kind=kind, n=2, partition=mode)
            accs[mode] = m.accuracy
        diffs[kind] = abs(accs[data.UNBIASED] - accs[data.BIASED_BY_LABEL])
    ok = all(v <= 0.03 for v in diffs.values())
    report(10, ok, f"|unbiased - biased| test accuracy: strongly convex "
                   f"{diffs['logistic_ridge']:.4f}, plain "
                   f"{diffs['logistic_plain']:.4f} (tolerance 0.03)")
    assert ok


# ---------------------------------------------------------------------------
# 11. distribution identity (chi-squared over >= 10^5 draws)
# ---------------------------------------------------------------------------

def test_criterion_11_distribution_identity():
    ds = data.synthetic_logistic(3000, 4, seed=5)
    p = [0.2, 0.3, 0.5]
    part = partition(ds, 3, p=p, seed=5)
    sam = SampleSchedule.constant(2000)
    table = build_assignment(sam, p, 3, rounds=60, seed=5)
    gens = {c: rng.stream(5, rng.NODE_SAMPLING, c) for c in (1, 2, 3)}
    local = {c: part.local(c) for c in (1, 2, 3)}
    draws = []
    slots = table.slots(0, int(table.start[-1]))
    for row in np.split(slots, table.start[1:-1]):
        for c in row.tolist():
            gen = gens[c]
            x, _y = local[c].sample(int(gen.integers(0, len(local[c]))))
            draws.append(x[0])
    assert len(draws) >= 10 ** 5
    edges = np.quantile(ds.X[:, 0], np.linspace(0, 1, 11))
    edges[0], edges[-1] = -np.inf, np.inf
    observed, _ = np.histogram(draws, bins=edges)
    # mixture prediction: sum_c p_c * local bucket frequencies
    expected = np.zeros(10)
    for c, pc in zip((1, 2, 3), p):
        hist, _ = np.histogram(local[c].X[:, 0], bins=edges)
        expected += pc * hist / len(local[c])
    expected *= len(draws)
    result = stats.chisquare(observed, expected)
    ok = result.pvalue > 0.01
    report(11, ok, f"chi-squared over {len(draws)} draws, 10 buckets: "
                   f"p-value {result.pvalue:.4f} (must exceed 0.01)")
    assert ok
