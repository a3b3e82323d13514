"""Engine semantics: rho, serial oracle, gates, audits, determinism."""

import dataclasses
import gc
import hashlib
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as hs
from oracles import (make_step_fn, replay_iterates, synchronous_final,
                     table_from_rows, wake_table)

import asyncsgd
from asyncsgd import data, engine, problems, rng, schedules
from asyncsgd.data import build_assignment, partition, \
    synthetic_quadratic, synthetic_logistic
from asyncsgd.engine import (DeadlockError, EngineError, NonFiniteError,
                             RECORD, RunTrace, rho, rho_inverse, run,
                             serial_sgd, audit_consistency,
                             audit_gate_invariant, audit_lag)
from asyncsgd.problems import Problem
from asyncsgd.schedules import (DelayFunction, SampleSchedule, StepSchedule,
                                eval_delay, make_strongly_convex_schedules,
                                round_step)


def table_rows(table):
    return np.split(table.node, table.start[1:-1])


class FakeGen:
    """Deterministic stand-in for a Generator (scripted sample indices)."""

    def __init__(self, indices):
        self.indices = list(indices)

    def integers(self, lo, hi):
        return self.indices.pop(0)


@pytest.fixture
def recorded_grads(monkeypatch):
    """Every gradient the engine computes, in order, through the kernel
    each node binds."""
    out = []

    def recording(p, w, g):
        grad_at = problems.kernel(p, w, g)

        def step(x, y):
            grad_at(x, y)
            out.append(g.copy())
        return step

    monkeypatch.setattr(engine, "kernel", recording)
    return out


# ---------------------------------------------------------------------------
# rho / rho_inverse
# ---------------------------------------------------------------------------

def test_rho_occurrence_construction():
    table = table_from_rows([[1, 2, 1]], n=2)
    assert rho(table, 1, 0, 0) == 0
    assert rho(table, 2, 0, 0) == 1
    assert rho(table, 1, 0, 1) == 2


def test_rho_single_node_is_offset():
    rows = [[1] * 3, [1] * 5, [1] * 2]
    table = table_from_rows(rows, n=1)
    for i, row in enumerate(rows):
        base = sum(len(r) for r in rows[:i])
        for h in range(len(row)):
            assert rho(table, 1, i, h) == base + h


def test_rho_out_of_range():
    table = table_from_rows([[1, 2]], n=2)
    with pytest.raises(IndexError):
        rho(table, 1, 0, 1)  # node 1 appears once
    with pytest.raises(IndexError):
        rho(table, 3, 0, 0)
    with pytest.raises(IndexError):
        rho_inverse(table, 2)


@pytest.mark.parametrize("seed", range(10))
def test_rho_bijective_random_tables(seed):
    gen = rng.stream(seed, "rho-test")
    n = int(gen.integers(1, 6))
    rounds = int(gen.integers(1, 21))
    sched = SampleSchedule.explicit(
        [int(gen.integers(1, 12)) for _ in range(rounds)])
    table = build_assignment(sched, np.full(n, 1.0 / n), n, rounds, seed)
    total = sum(len(r) for r in table_rows(table))
    seen = set()
    for t in range(total):
        c, i, h = rho_inverse(table, t)
        assert rho(table, c, i, h) == t
        seen.add((c, i, h))
    assert len(seen) == total


@settings(max_examples=60, deadline=None)
@given(data=hs.data())
def test_rho_and_rho_inverse_are_inverses(data):
    """On tables with empty rounds and empty (round, node) cells, every
    label maps to its t and back, and every input outside the table raises
    IndexError."""
    n = data.draw(hs.integers(1, 6), label="n")
    rows = data.draw(hs.lists(hs.lists(hs.integers(1, n), max_size=8),
                              min_size=1, max_size=10), label="rows")
    table = table_from_rows(rows, n)
    labels = [(c, i, row[:pos].count(c))
              for i, row in enumerate(rows) for pos, c in enumerate(row)]
    total = len(labels)
    assert [rho_inverse(table, t) for t in range(total)] == labels
    for t in (-1, total):
        with pytest.raises(IndexError):
            rho_inverse(table, t)
    if labels:
        c, i, h = (np.array(col) for col in zip(*labels))
        assert rho(table, c, i, h).tolist() == list(range(total))
    index = {label: t for t, label in enumerate(labels)}
    for label in itertools.product(range(n + 2), range(-1, len(rows) + 1),
                                   range(-1, 10)):
        if label in index:
            assert rho(table, *label) == index[label]
        else:
            with pytest.raises(IndexError):
                rho(table, *label)


# ---------------------------------------------------------------------------
# serial oracle
# ---------------------------------------------------------------------------

def test_serial_eta_one_jumps_to_sample():
    ds = data.DataSet(X=np.array([[2.0], [4.0]]), y=np.zeros(2))
    p = Problem.quadratic_mean(1)
    _w, hist = serial_sgd(p, ds, lambda t: 1.0, 2, FakeGen([0, 1]),
                          record_iterates=True)
    assert hist[0][0] == 2.0
    assert hist[1][0] == 4.0


def test_serial_geometric_approach():
    ds = data.DataSet(X=np.array([[2.0]]), y=np.zeros(1))
    p = Problem.quadratic_mean(1)
    _w, hist = serial_sgd(p, ds, lambda t: 0.5, 2, FakeGen([0, 0]),
                          record_iterates=True)
    assert hist[0][0] == 1.0
    assert hist[1][0] == 1.5


def test_serial_rejects_bad_budget():
    ds = data.DataSet(X=np.array([[2.0]]), y=np.zeros(1))
    with pytest.raises(ValueError):
        serial_sgd(Problem.quadratic_mean(1), ds, lambda t: 1.0, 0,
                   FakeGen([]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_serial_divergence_raises_non_finite():
    ds = data.DataSet(X=np.array([[2.0]]), y=np.zeros(1))
    # w_1 = 2e300, and the second step overflows
    with pytest.raises(NonFiniteError, match="serial SGD"):
        serial_sgd(Problem.quadratic_mean(1), ds, lambda t: 1e300, 2,
                   FakeGen([0, 0]))


def random_config(seed):
    """A small single-node setup plus the matching serial pieces."""
    gen = rng.stream(seed, "equiv-config")
    ds = synthetic_quadratic(int(gen.integers(20, 80)),
                             int(gen.integers(1, 5)), seed=seed)
    prob = Problem.quadratic_mean(ds.dim)
    part = partition(ds, 1, seed=seed)
    choice = int(gen.integers(0, 3))
    if choice == 0:
        sam = SampleSchedule.constant(int(gen.integers(2, 9)))
    elif choice == 1:
        sam = SampleSchedule.power_law(float(gen.integers(1, 5)), b=1.0)
    else:
        sam = SampleSchedule.explicit([int(gen.integers(1, 7))
                                       for _ in range(60)])
    st = StepSchedule.inverse_t(0.2, 0.05)
    K = int(gen.integers(10, 60))
    rounds = 60 if sam.kind != schedules.EXPLICIT else len(sam.values)
    table = build_assignment(sam, [1.0], 1, rounds=rounds, seed=seed)
    return prob, part, table, sam, st, K


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_single_node_matches_serial_bitwise(seed):
    prob, part, table, sam, st, K = random_config(seed)
    res = run(prob, part, table, sam, st, None, K=K, seed=seed,
              record_iterates=True)
    gen = rng.stream(seed, rng.NODE_SAMPLING, 1)
    w, hist = serial_sgd(prob, part.local(1), make_step_fn(st, sam), K, gen,
                         record_iterates=True)
    assert len(res.iterates) == K
    for a, b in zip(res.iterates, hist):
        assert np.array_equal(a, b)
    assert np.array_equal(res.w_final, w)


@pytest.mark.parametrize("kind", [schedules.INVERSE_T,
                                  schedules.INVERSE_SQRT_T])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_single_node_matches_serial_bitwise_per_iteration(seed, kind):
    """Per iteration, gradient t takes eta_t in the engine and in the
    serial oracle's step function."""
    prob, part, table, sam, _st, K = random_config(seed)
    st = getattr(StepSchedule, kind)(0.2, 0.05, mode=schedules.PER_ITERATION)
    res = run(prob, part, table, sam, st, None, K=K, seed=seed,
              record_iterates=True)
    gen = rng.stream(seed, rng.NODE_SAMPLING, 1)
    w, hist = serial_sgd(prob, part.local(1), make_step_fn(st, sam), K, gen,
                         record_iterates=True)
    assert len(res.iterates) == K
    for a, b in zip(res.iterates, hist):
        assert np.array_equal(a, b)
    assert np.array_equal(res.w_final, w)


# ---------------------------------------------------------------------------
# gates and audits
# ---------------------------------------------------------------------------

def quadratic_setup(n, seed, M=120, dim=3):
    ds = synthetic_quadratic(M, dim, seed=seed)
    prob = Problem.quadratic_mean(dim)
    part = partition(ds, n, seed=seed)
    return ds, prob, part


def broadcast_extras(trace, b):
    """The applied updates (i, c) with i >= b in broadcast b: those whose
    apply stamp is below b."""
    stamp = trace.stamp[b:]
    return {(b + int(i), int(c))
            for i, c in np.argwhere((0 <= stamp) & (stamp < b))}


def audit_oracle(trace, df):
    """The scalar staleness audit: rho per record, rho_inverse per t' of
    the window, and the broadcast's extras derived from the stamps."""
    table = trace.table
    for rec in trace.records:
        c, i, h = int(rec.c), int(rec.i), int(rec.h)
        t = rho(table, c, i, h)
        upper = t - math.ceil(eval_delay(df, float(t)))
        if upper <= 0:
            continue
        k = int(rec.bcast_id)
        extras = broadcast_extras(trace, k)
        for t_prime in range(sum(len(r) for r in table_rows(table)[:k]),
                             upper):
            cp, ip, hp = rho_inverse(table, t_prime)
            if (ip, cp) in extras:
                continue
            if cp == c and (rec.acc_round <= ip < i or (ip == i and hp < h)):
                continue
            return False, t
    return True, None


@settings(max_examples=100, deadline=None)
@given(n=hs.integers(1, 4), gate=hs.sampled_from([engine.GATE_LAG,
                                                    engine.GATE_TAU]),
       convex=hs.booleans(), s=hs.integers(2, 12), g=hs.integers(2, 4),
       slack=hs.integers(0, 12),
       K=hs.integers(40, 400), seed=hs.integers(0, 2 ** 16),
       mutation=hs.sampled_from([None, "bcast_id", "acc_round", "h"]),
       pick=hs.integers(0, 2 ** 16))
def test_audit_matches_scalar_oracle(n, gate, convex, s, g, slack, K, seed,
                                     mutation, pick):
    """The vectorized audit and the scalar oracle agree on the verdict and
    the first bad t, on engine traces and on traces with one record
    mutated to claim a staler model, more own updates or another slot."""
    if convex:
        df, sam, st = make_strongly_convex_schedules(1.0, 1.0, 1, 100)
    else:
        # M1 < 2s + 1 makes the constant schedule incompatible at d = 1, so
        # the lag gate can break the contract
        sam, st = SampleSchedule.constant(s), StepSchedule.inverse_t(0.1, 0.01)
        df = DelayFunction(g=float(g), M0=0.0, M1=float(slack))
    _ds, prob, part = quadratic_setup(n, seed % 97, M=40, dim=2)
    # a node skips rows it has no slot in, so it can enter a round far
    # ahead of the server when rounds hold one or two slots
    table = build_assignment(sam, part.p, n,
                             rounds=schedules.rounds_for_budget(sam, K) + 60,
                             seed=seed)
    try:
        trace = run(prob, part, table, sam, st, df, K=K, seed=seed,
                    gate=gate, d=1, record_trace=True).trace
    except DeadlockError:
        reject()  # the tau gate can stall under a small tau
    if mutation is not None:
        records = trace.records.copy()
        j = pick % K
        rec = records[j]
        if mutation == "bcast_id":
            records.bcast_id[j] = pick % max(rec.bcast_id, 1)
        elif mutation == "acc_round":
            records.acc_round[j] += 1 + pick % 3
        else:
            count = int(np.sum(table_rows(table)[rec.i] == rec.c))
            records.h[j] = (rec.h + 1 + pick % count) % count
        trace = dataclasses.replace(trace, records=records)
    assert audit_consistency(trace, df) == audit_oracle(trace, df)


def test_gate_invariant_small_sweep():
    df, sam, st = make_strongly_convex_schedules(1.0, 1.0, 1, 7747)
    for seed in range(5):
        _ds, prob, part = quadratic_setup(2, seed)
        table = build_assignment(sam, part.p, 2, rounds=40, seed=seed)
        for gate in (engine.GATE_LAG, engine.GATE_TAU):
            res = run(prob, part, table, sam, st, df, K=300, seed=seed,
                      gate=gate, d=1, record_trace=True)
            ok, bad = audit_gate_invariant(res.trace, df)
            assert ok, (gate, seed, bad)
            ok, bad_t = audit_consistency(res.trace, df)
            assert ok, (gate, seed, bad_t)


@pytest.mark.parametrize("d", [0, 1, 2])
def test_gate_equivalence_matched_power(d):
    sam = SampleSchedule.matched_power(g=2.0, m=10, d=d)
    M0 = (11 * 0.5) ** 2
    df = DelayFunction(g=2.0, M0=M0, M1=float(d + 2))
    ok, bad = schedules.verify_delay_compatibility(sam, df, d, i_max=100)
    assert ok
    st = StepSchedule.inverse_t(0.1, 0.01)
    for seed in (0, 1):
        _ds, prob, part = quadratic_setup(2, seed)
        table = build_assignment(sam, part.p, 2, rounds=60, seed=seed)
        # the lag gate never admits a gradient the tau invariant forbids
        for gate in (engine.GATE_LAG, engine.GATE_TAU):
            res = run(prob, part, table, sam, st, df, K=150, seed=seed,
                      gate=gate, d=d, record_trace=True)
            assert audit_gate_invariant(res.trace, df)[0], (gate, seed)


def test_incompatible_schedule_can_violate_tau_invariant():
    """The lag gate admits gradients the tau-comparison forbids when the
    schedule grows faster than the delay function allows."""
    sam = SampleSchedule.constant(100)
    df = DelayFunction(g=2.0, M0=0.0, M1=0.0)  # tau(x) = sqrt(x)
    st = StepSchedule.inverse_t(0.05, 0.01)
    _ds, prob, part = quadratic_setup(2, 3)
    table = build_assignment(sam, part.p, 2, rounds=20, seed=3)
    res = run(prob, part, table, sam, st, None, K=600, seed=3,
              gate=engine.GATE_LAG, d=1, record_trace=True)
    ok, _bad = audit_gate_invariant(res.trace, df)
    assert not ok


@pytest.mark.parametrize("d", [0, 1, 3])
def test_audit_lag_holds_tightly_and_finds_the_first_violation(d):
    """Lag-gate runs keep i - bcast_id <= d and reach d; a record claiming
    a model one round staler than the stalest fails the audit there."""
    sam = SampleSchedule.constant(6)
    st = StepSchedule.inverse_t(0.1, 0.01)
    _ds, prob, part = quadratic_setup(5, d)
    table = build_assignment(sam, part.p, 5, rounds=100, seed=d)
    trace = run(prob, part, table, sam, st, None, K=500, seed=d, d=d,
                record_trace=True).trace
    assert audit_lag(trace, d) == (True, None)
    gap = trace.records.i - trace.records.bcast_id
    assert gap.max() == d
    records = trace.records.copy()
    j = int(np.argmax(gap))
    records.bcast_id[j] -= 1
    ok, bad = audit_lag(dataclasses.replace(trace, records=records), d)
    assert not ok and tuple(bad) == tuple(records[j])


@settings(max_examples=30, deadline=None)
@given(n=hs.integers(1, 12), gate=hs.sampled_from([engine.GATE_LAG,
                                                    engine.GATE_TAU]),
       mode=hs.sampled_from([schedules.PER_ROUND, schedules.PER_ITERATION]),
       logistic=hs.booleans(), d=hs.integers(0, 2),
       K=hs.integers(1200, 1800), seed=hs.integers(0, 2 ** 16))
# K stops inside a tick's bucket whose unrun rest holds a round update
@example(n=5, gate=engine.GATE_TAU, mode=schedules.PER_ROUND, logistic=False,
         d=0, K=1533, seed=3035)
def test_model_replay_matches_iterates(n, gate, mode, logistic, d, K, seed):
    """Every iterate is the one replayed from its record's claims (its
    broadcast, its surviving own rounds, its partial round) to 1e-12
    relative, so the trace describes the models the gradients used.  The
    final model is w0 = 0 minus every replayed step, applied, in flight or
    unsent, to 1e-12 of the steps' summed norms: the final flush misses
    no update, also where K stops inside a tick's bucket."""
    tau, sam, _st = make_strongly_convex_schedules(1.0, 1.0, 1, 7747)
    df = tau if gate == engine.GATE_TAU else None
    st = StepSchedule.inverse_t(0.1, 0.01, mode=mode)
    if logistic:
        ds, prob = synthetic_logistic(240, 3, seed=seed % 97), \
            Problem.logistic_ridge(3, 0.1)
    else:
        ds, prob = synthetic_quadratic(240, 3, seed=seed % 97), \
            Problem.quadratic_mean(3)
    part = partition(ds, n, seed=seed)
    table = build_assignment(sam, part.p, n,
                             rounds=schedules.rounds_for_budget(sam, K) + 1,
                             seed=seed)
    res = run(prob, part, table, sam, st, df, K=K, seed=seed, gate=gate,
              d=d, record_trace=True, record_iterates=True)
    replay, steps = replay_iterates(prob, part, res.trace, seed)
    assert max(np.linalg.norm(a - b) / np.linalg.norm(b)
               for a, b in zip(res.iterates, replay, strict=True)) <= 1e-12
    assert np.linalg.norm(res.w_final + sum(steps)) <= \
        1e-12 * sum(np.linalg.norm(step) for step in steps)


@settings(max_examples=30, deadline=None)
@given(n=hs.integers(1, 20),
       mode=hs.sampled_from([schedules.PER_ROUND, schedules.PER_ITERATION]),
       logistic=hs.booleans(), K=hs.integers(600, 1500),
       seed=hs.integers(0, 2 ** 16))
def test_synchronous_runs_match_the_round_by_round_oracle(n, mode, logistic,
                                                          K, seed):
    """At d = 0 the lag gate is synchronous local SGD: the final model is
    the round-by-round oracle's, built from the trace's step counts alone,
    to 1e-12 relative."""
    _tau, sam, _st = make_strongly_convex_schedules(1.0, 1.0, 1, 7747)
    st = StepSchedule.inverse_t(0.1, 0.01, mode=mode)
    make, prob = (synthetic_logistic, Problem.logistic_ridge(3, 0.1)) \
        if logistic else (synthetic_quadratic, Problem.quadratic_mean(3))
    part = partition(make(240, 3, seed=seed % 97), n, seed=seed)
    table = build_assignment(sam, part.p, n,
                             rounds=schedules.rounds_for_budget(sam, K) + 1,
                             seed=seed)
    res = run(prob, part, table, sam, st, None, K=K, seed=seed, d=0)
    expect = synchronous_final(prob, part, sam, st, res.trace, seed)
    assert np.linalg.norm(res.w_final - expect) <= \
        1e-12 * np.linalg.norm(expect)


@pytest.mark.parametrize("df, gate, seed", [
    pytest.param(df, gate, seed, id=f"{name}{gate}-{seed}")
    for name, df in [
        # tau(x) = 10 + sqrt(x) holds a node back in about one cell in ten
        ("", DelayFunction(g=2.0, M0=0.0, M1=10.0)),
        # 4 z / ln z falls until z = e, so tau falls over its first ticks
        ("four_log-", DelayFunction(g=2.0, M0=1.5, M1=10.0,
                                    gamma="four_log"))]
    for gate in [engine.GATE_LAG, engine.GATE_TAU] for seed in range(3)])
def test_cells_run_as_blocks(df, gate, seed):
    """A cell (i, c) runs in one handler: its records form one block of
    h = 0, 1, .. under the lag gate.  Under the tau gate h still rises by
    one, and a block ends before the cell does only where the gate refuses
    the next step: a model of the block's last broadcast fails it, and the
    cell goes on from a newer broadcast."""
    sam, st = SampleSchedule.constant(8), StepSchedule.inverse_t(0.1, 0.01)
    _ds, prob, part = quadratic_setup(3, seed)
    table = build_assignment(sam, part.p, 3, rounds=300, seed=seed)
    rec = run(prob, part, table, sam, st, df, K=2000, seed=seed, gate=gate,
              d=1, record_trace=True).trace.records
    counts, P = table.counts(), table.start
    blocks = {}  # (i, c) -> [(first h, last h, last record), ..]
    for j, (c, i, h) in enumerate(zip(rec.c.tolist(), rec.i.tolist(),
                                      rec.h.tolist())):
        runs = blocks.setdefault((i, c), [])
        if j and (rec.c[j - 1], rec.i[j - 1]) == (c, i):
            runs[-1][1:] = [h, j]
        else:
            runs.append([h, h, j])
    cut = 0
    for (i, c), runs in blocks.items():
        assert [h for first, last, _j in runs
                for h in range(first, last + 1)] == \
            list(range(runs[-1][1] + 1)), (i, c)
        if gate == engine.GATE_LAG:
            assert len(runs) == 1, (i, c)
        for (_f, last, j), nxt in zip(runs, runs[1:]):
            refused, b = int(rec.t_glob[j]) + 1, int(rec.bcast_id[j])
            assert last + 1 < counts[i, c]
            assert refused + 1 - P[b] > eval_delay(df, float(refused))
            assert rec.bcast_id[nxt[2] - (nxt[1] - nxt[0])] > b
            cut += 1
    assert cut > 0 or gate == engine.GATE_LAG


# tau = M1 + x**(1/g) at M1 = 1 - 2**-53, M0 = 0: floor(tau) is 0 at x = 0
# and 2 at x = 1, where M1 + 1 rounds up to 2.0 (exactly, tau(1) < 2)
FLOAT_DIP = DelayFunction(g=2.0, M0=0.0, M1=1.0 - 2.0 ** -53)


def floor_tau_jumps(df):
    """floor(tau) rises by 2 from x = 0 to 1, as at FLOAT_DIP."""
    low, high = (math.floor(eval_delay(df, x)) for x in (0.0, 1.0))
    return high - low > 1


@settings(max_examples=300, deadline=None)
@given(df=hs.one_of(
           hs.builds(DelayFunction, g=hs.floats(1.0001, 4.0),
                     M0=hs.floats(0.0, 50.0), M1=hs.floats(0.0, 80.0)),
           hs.builds(DelayFunction, g=hs.floats(1.0001, 4.0),
                     M0=hs.floats(1.0, 1.1, exclude_min=True)
                     | hs.floats(1.0, 50.0, exclude_min=True),
                     M1=hs.floats(0.0, 80.0), gamma=hs.just("four_log"))),
       sizes=hs.lists(hs.just(0) | hs.integers(0, 60), min_size=1,
                      max_size=40),
       d=hs.integers(0, 4) | hs.integers(0, 10 ** 30))
@example(df=DelayFunction(g=1.0001, M0=0.0, M1=0.0), sizes=[1, 2, 0, 6, 40],
         d=0)
@example(df=DelayFunction(g=2.0, M0=1.0 + 2.0 ** -52, M1=0.0,
                          gamma="four_log"), sizes=[0, 5, 7, 0], d=1)
@example(df=DelayFunction(g=2.0, M0=1.5, M1=10.0, gamma="four_log"),
         sizes=[0, 0, 30, 3, 50, 9], d=2)
@example(df=FLOAT_DIP, sizes=[0, 3, 5], d=1)
def test_gate_expiry_gives_every_per_tick_decision(df, sizes, d):
    """The one gate rule, t_glob <= expiry[k], takes every decision of the
    tau gate's per-tick table (oracles.wake_table) and of the lag rule
    i <= k + d, at every t_glob and broadcast k, empty rounds included.
    Only where floor(tau) rises by 2 in a tick, as at FLOAT_DIP, can the
    table pass a tick after one it refuses; the rule then refuses both."""
    P = np.cumsum([0] + sizes).tolist()
    t, k = np.arange(-1, P[-1])[:, None], np.arange(len(P))  # t_glob, k
    table = k >= wake_table(P, df)[:, None]
    expiry = engine.gate_expiry(P, engine.GATE_TAU, d, df)
    assert expiry == sorted(expiry)
    prefix = np.logical_and.accumulate(table, axis=0)  # the leading passes
    assert ((t <= np.array(expiry)) == prefix).all()
    assert (prefix == table).all() or floor_tau_jumps(df)
    expiry = engine.gate_expiry(P, engine.GATE_LAG, d, None)
    assert expiry == sorted(expiry)
    t = t[:-1]  # slot t_glob + 1 of round i, in [P[i], P[i + 1])
    i = np.searchsorted(P, t + 1, side="right") - 1
    assert ((t <= np.array(expiry)) == (i - k <= min(d, len(P)))).all()


def test_gate_expiry_refuses_the_float_dip():
    """At FLOAT_DIP the table passes broadcast 0 (P[0] = 0) at t_glob 1
    but not at 0, since tau(1) rounds up to 2; the rule refuses both, as
    exact arithmetic does (t_delay 2 > tau(1))."""
    P = [0, 3, 8]
    assert wake_table(P, FLOAT_DIP)[:4].tolist() == [0, 1, 0, 1]
    assert engine.gate_expiry(P, engine.GATE_TAU, 1, FLOAT_DIP)[0] == -1


RSS_PROBE = """
import resource, sys
from asyncsgd import harness
gate, mode = sys.argv[1], sys.argv[3]
K, s = int(sys.argv[2]), int(sys.argv[4])
steps = {"kind": "inverse_t", "eta0": 0.1, "beta": 0.001, "mode": mode}
cfg = harness.RunConfig(
    problem={"kind": "quadratic_mean"},
    dataset={"synthetic": "quadratic", "M": 1000, "dim": 10, "seed": 0},
    samples={"kind": "constant", "s": s} if s else
    {"kind": "strongly_convex", "m": 7747}, K=K, n=5,
    steps=None if mode == "per_round" else steps,
    gate=gate, d=1, checkpoint_interval=0, seed=0)
harness.run_prepared(harness.prepare(cfg))
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(peak / 2 ** 20 if sys.platform == "darwin" else peak / 2 ** 10)
"""


def peak_rss_mb(runs):
    """{(gate, K, mode, s): peak RSS in MB} of untraced runs on sc-quad's
    shape, each in a fresh interpreter, all at once; s > 0 puts s samples
    in every round in place of sc-quad's strongly_convex schedule."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(asyncsgd.__file__)))
    procs = {run: subprocess.Popen(
        [sys.executable, "-c", RSS_PROBE, *map(str, run)], env=env,
        stdout=subprocess.PIPE, text=True) for run in runs}
    peak = {}
    for run, proc in procs.items():
        out, _ = proc.communicate(timeout=100)
        assert proc.returncode == 0, run
        peak[run] = float(out)
    return peak


def test_tau_gate_peak_memory_matches_the_lag_gate():
    """Neither gate keeps a table per tick: an untraced K = 3e5 run on
    sc-quad's shape peaks within 5 MB under the tau gate of the lag gate's
    peak, each measured in a fresh interpreter (the per-tick wake table
    that expiry replaced read +18 MB)."""
    peak = peak_rss_mb([(gate, 300000, schedules.PER_ROUND, 0)
                        for gate in (engine.GATE_LAG, engine.GATE_TAU)])
    lag, tau = peak.values()
    assert tau - lag <= 5.0, peak


def test_untraced_peak_memory_grows_with_rounds_not_slots():
    """An untraced run holds no per-gradient array: from K = 2e5 to 2e6 on
    sc-quad's shape (8,405 to 40,440 rounds) the peak RSS grows by less
    than 20 MB, under both gates per round and the lag gate per
    iteration.  Measured: 11-14 MB; with a slot table held for the run,
    26 MB per round and 108 MB per iteration."""
    cases = [(engine.GATE_LAG, schedules.PER_ROUND),
             (engine.GATE_TAU, schedules.PER_ROUND),
             (engine.GATE_LAG, schedules.PER_ITERATION)]
    peak = peak_rss_mb([(gate, K, mode, 0) for gate, mode in cases
                        for K in (200000, 2000000)])
    growth = {(gate, mode): peak[gate, 2000000, mode, 0]
              - peak[gate, 200000, mode, 0] for gate, mode in cases}
    assert max(growth.values()) < 20.0, growth


def test_per_iteration_peak_memory_holds_no_row():
    """A per-iteration run sorts blocks of slots, not whole rows: with one
    row of 10**7 slots (constant s, K = 1e5, lag gate, untraced) its peak
    RSS stays within 10 MB of the per-round run's, each measured in a
    fresh interpreter.  Measured: 52 MB each; with the row sorted whole,
    265 MB per iteration against 52-59 MB per round."""
    peak = peak_rss_mb([(engine.GATE_LAG, 100000, mode, 10 ** 7) for mode
                        in (schedules.PER_ROUND, schedules.PER_ITERATION)])
    per_round, per_iteration = peak.values()
    assert per_iteration - per_round <= 10.0, peak


def assert_round_sums(res, grads):
    """Each checkpoint, the model of broadcast k, equals w0 = 0 minus the
    per-round scaled gradient block sums it is supposed to contain, and the
    final model is minus every scaled gradient (to 1e-9)."""
    sums = {}
    for rec, g in zip(res.trace.records, grads, strict=True):
        key = (rec.i, rec.c)
        sums[key] = sums.get(key, 0.0) + rec.eta * g
    for k, _t, model in res.checkpoints:
        extras = broadcast_extras(res.trace, k)
        expect = np.zeros_like(model)
        for (i, c), v in sums.items():
            if i < k or (i, c) in extras:
                expect -= v
        assert np.abs(model - expect).max() <= 1e-9, k
    assert np.abs(res.w_final + sum(sums.values())).max() <= 1e-9


def test_round_sum_identity(recorded_grads):
    """The round sums hold at every broadcast of a small lag-gate run and of
    the 20-node tau pin's run: the server model is w0 minus exactly the
    updates the server has applied."""
    sam = SampleSchedule.constant(8)
    st = StepSchedule.inverse_t(0.1, 0.01)
    _ds, prob, part = quadratic_setup(3, 4)
    table = build_assignment(sam, part.p, 3, rounds=30, seed=4)
    res = run(prob, part, table, sam, st, None, K=160, seed=4,
              record_trace=True)
    assert_round_sums(res, recorded_grads)
    recorded_grads.clear()
    df, sam, st = make_strongly_convex_schedules(1.0, 1.0, 1, 7747)
    _ds, prob, part = quadratic_setup(20, 13, M=400, dim=3)
    table = build_assignment(sam, part.p, 20, rounds=200, seed=13)
    res = run(prob, part, table, sam, st, df, K=3000, seed=13,
              gate=engine.GATE_TAU, d=1, record_trace=True)
    assert_round_sums(res, recorded_grads)


def test_trace_record_count_and_determinism():
    sam = SampleSchedule.constant(6)
    st = StepSchedule.inverse_sqrt_t(0.1, 0.01)
    _ds, prob, part = quadratic_setup(2, 6)
    table = build_assignment(sam, part.p, 2, rounds=40, seed=6)
    runs = [run(prob, part, table, sam, st, None, K=120, seed=6,
                record_trace=True) for _ in range(2)]
    assert len(runs[0].trace.records) == 120
    assert np.array_equal(runs[0].w_final, runs[1].w_final)
    for a, b in zip(runs[0].trace.records, runs[1].trace.records):
        assert (a.c, a.i, a.h, a.eta, a.bcast_id) == \
            (b.c, b.i, b.h, b.eta, b.bcast_id)


# Fingerprints of small runs, recorded when the interleave stream came to
# be read as raw 64-bit words: a cell event's tie-break is one word and a
# message delay in [0, hi) is word * hi >> 64.  The audits and the model
# replay passed on each run before it was recorded.
# Any change to event order, stream consumption or floating-point
# arithmetic shows up here.

def sha256_of(w):
    return hashlib.sha256(np.ascontiguousarray(w).tobytes()).hexdigest()


def trace_digest(res):
    """Hash of the records and, per broadcast b, (b, b, sorted extras); b
    appears twice so that the pinned digests keep their bytes."""
    h = hashlib.sha256()
    for r in res.trace.records.tolist():
        h.update(repr(r).encode())
    for b in range(res.k_final + 1):
        h.update(repr((b, b, sorted(broadcast_extras(res.trace, b)))).encode())
    return h.hexdigest()


def test_determinism_pinned_lag_gate_five_nodes():
    df, sam, st = make_strongly_convex_schedules(1.0, 1.0, 1, 7747)
    _ds, prob, part = quadratic_setup(5, 3, M=200, dim=4)
    table = build_assignment(sam, part.p, 5, rounds=200, seed=3)
    res = run(prob, part, table, sam, st, df, K=2000, seed=3,
              gate=engine.GATE_LAG, d=1, record_trace=False,
              checkpoint_interval=5)
    assert sha256_of(res.w_final) == ("c72208d95148fd8f3b8f012429a02c0a"
                                      "13802ceca6871974d3717b731b4c3569")
    assert (res.messages, res.k_final) == (576, 117)
    assert res.rounds_completed == {1: 119, 2: 118, 3: 117, 4: 119, 5: 117}


def test_determinism_pinned_tau_gate_four_nodes_traced():
    df, sam, st = make_strongly_convex_schedules(1.0, 1.0, 1, 7747)
    _ds, prob, part = quadratic_setup(4, 4, M=160, dim=3)
    table = build_assignment(sam, part.p, 4, rounds=200, seed=4)
    res = run(prob, part, table, sam, st, df, K=1500, seed=4,
              gate=engine.GATE_TAU, d=1, record_trace=True)
    assert sha256_of(res.w_final) == ("e2ee996b3197539a38afe42eb35be028"
                                      "300d74d1960ea2aada89958e1504ba3c")
    assert (res.messages, res.k_final) == (356, 78)
    assert trace_digest(res) == ("44e7ef16e66449a1ba6abde44e7f42fe"
                                 "b8183a7d62715ab9e9952ca19bc79076")


def test_determinism_pinned_explicit_schedule_exact_rounds():
    """The table has exactly len(values) rounds, so nothing may evaluate
    the schedule past its last value."""
    vals = [3, 5, 4, 6, 7, 5, 8, 6, 9, 7]
    sam = SampleSchedule.explicit(vals)
    st = StepSchedule.inverse_t(0.1, 0.01)
    _ds, prob, part = quadratic_setup(3, 5, M=90, dim=2)
    table = build_assignment(sam, part.p, 3, rounds=len(vals), seed=5)
    res = run(prob, part, table, sam, st, None, K=sum(vals[:7]), seed=5,
              record_trace=True)
    assert sha256_of(res.w_final) == ("cb520d227333fb8456faa69cd8bd4dab"
                                      "18713d6bf5c8d91cdb6af30854ceb546")
    assert (res.messages, res.k_final) == (19, 6)
    assert trace_digest(res) == ("39389d5357e1e0c9f312e3582456555b"
                                 "416db59512ad7707febca349cf366f22")


def test_determinism_pinned_logistic_power_law_per_iteration():
    """Power-law rounds grow to hundreds of slots, so broadcasts take
    hundreds of ticks and gated nodes leave long runs of empty ticks; the
    run also covers the logistic kernel and the rho-indexed step."""
    sam = SampleSchedule.power_law(a=3.0, b=1.0, c=2.0)
    st = StepSchedule.inverse_t(0.2, 0.01, mode=schedules.PER_ITERATION)
    ds = synthetic_logistic(240, 3, seed=8)
    part = partition(ds, 3, seed=8)
    table = build_assignment(sam, part.p, 3, rounds=40, seed=8)
    res = run(Problem.logistic_ridge(3, 0.1), part, table, sam, st, None,
              K=4000, seed=8, record_trace=True)
    assert sha256_of(res.w_final) == ("50a69d1c744ae8f4460be49f39df24e3"
                                      "36c2a81b3ba463d25ea7544e276aed06")
    assert (res.messages, res.k_final) == (47, 15)
    assert res.rounds_completed == {1: 16, 2: 16, 3: 17}
    assert trace_digest(res) == ("81182ed456ec89dd680ac2a81ea07886"
                                 "4009da051a925605727571f45fb2434f")


def test_determinism_pinned_tau_gate_twenty_nodes_full_record(
        recorded_grads):
    df, sam, st = make_strongly_convex_schedules(1.0, 1.0, 1, 7747)
    _ds, prob, part = quadratic_setup(20, 13, M=400, dim=3)
    table = build_assignment(sam, part.p, 20, rounds=200, seed=13)
    res = run(prob, part, table, sam, st, df, K=3000, seed=13,
              gate=engine.GATE_TAU, d=1, record_trace=True,
              record_iterates=True)
    assert sha256_of(res.w_final) == ("f7dd2fed07a7b569d1dd48e4b2bc5896"
                                      "fc3c66cb837e6303b8052d909fe6fcc0")
    assert (res.messages, res.k_final) == (2088, 161)
    assert trace_digest(res) == ("82fb2796756970c01b2f99633dca86c3"
                                 "5a0a1b6f0eba64f85f6f7afd839f411c")
    assert sha256_of(np.array(recorded_grads)) == (
        "e0f080b4841aff778f986ec26d00e7ccd5ff8dfc0587837fb490fad7a1f461e8")
    assert len(res.iterates) == 3000
    assert sha256_of(np.array(res.iterates)) == (
        "55bdce918629d682d79b8aacc271b9a95e9dc521f48f557e5e11c041e196c183")


def test_node_source_frequencies_match_p():
    sam = SampleSchedule.constant(50)
    st = StepSchedule.inverse_t(0.05, 0.01)
    ds = synthetic_quadratic(100, 2, seed=1)
    prob = Problem.quadratic_mean(2)
    part = partition(ds, 2, p=[0.25, 0.75], seed=1)
    table = build_assignment(sam, part.p, 2, rounds=80, seed=1)
    res = run(prob, part, table, sam, st, None, K=3000, seed=1,
              record_trace=True)
    freq1 = np.mean([rec.c == 1 for rec in res.trace.records])
    assert abs(freq1 - 0.25) < 0.05


def test_adversarial_withheld_update_detected():
    """A hand-built trace where the node never saw any broadcast must fail
    the staleness audit at the exact first over-stale gradient."""
    rows = [[1, 2]] * 60
    table = table_from_rows(rows, n=2)
    df = DelayFunction(g=2.0, M0=16.0, M1=2.0)  # tau(100) = 2 + sqrt(116)
    records = np.zeros(50, dtype=RECORD).view(np.recarray)
    records.c, records.i, records.eta = 1, np.arange(50), 0.1
    records.t_glob = 2 * records.i
    records.t_delay = 2 * records.i + 1
    # only broadcast 0 (the initial model) exists and nothing is applied
    trace = RunTrace(table=table, records=records,
                     stamp=np.full((60, 3), -1))
    ok, bad_t = audit_consistency(trace, df)
    assert not ok
    # first record t whose required prefix reaches node 2's first update
    # at global index 1, i.e. t - ceil(tau(t)) >= 2
    expected = next(t for t in (rho(table, 1, i, 0) for i in range(50))
                    if t - np.ceil(2 + np.sqrt(t + 16)) >= 2)
    assert bad_t == expected


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------

def test_deadlock_detected_with_impossible_tau():
    sam = SampleSchedule.constant(100)
    df = DelayFunction(g=2.0, M0=0.0, M1=0.0)
    st = StepSchedule.inverse_t(0.05, 0.01)
    _ds, prob, part = quadratic_setup(2, 2)
    table = build_assignment(sam, part.p, 2, rounds=10, seed=2)
    with pytest.raises(DeadlockError) as err:
        run(prob, part, table, sam, st, df, K=500, seed=2,
            gate=engine.GATE_TAU)
    # tau(0) = 0 blocks every node's first gradient, so nothing is ever
    # sent; each node waits to run its round-0 cell's first step, at t_glob
    # P[1] - s_{0,c} - 1 (s_{0,1} = 54, s_{0,2} = 46)
    assert str(err.value) == (
        "no runnable events with 0/500 gradients done; server k=0, "
        "nodes={1: {'round': 0, 'k': 0, 'waiting': True, 't_glob': 45}, "
        "2: {'round': 0, 'k': 0, 'waiting': True, 't_glob': 53}}")
    assert table.counts()[0, 1:].tolist() == [54, 46]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_non_finite():
    sam = SampleSchedule.constant(100)
    st = StepSchedule.constant(3.0)  # far above 2/L for L=1
    _ds, prob, part = quadratic_setup(1, 5, M=40, dim=1)
    table = build_assignment(sam, part.p, 1, rounds=40, seed=5)
    with pytest.raises(NonFiniteError):
        run(prob, part, table, sam, st, None, K=3500, seed=5,
            record_trace=False)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_round_update_raises(bad):
    """One non-finite entry in w0, which every gradient w - x and round
    update would inherit, is caught at entry, before any step."""
    sam = SampleSchedule.constant(4)
    _ds, prob, part = quadratic_setup(2, 6)
    table = build_assignment(sam, part.p, 2, rounds=10, seed=6)
    w0 = np.zeros(3)
    w0[1] = bad
    with pytest.raises(NonFiniteError,
                       match="^initial model w0 is not finite$"):
        run(prob, part, table, sam, StepSchedule.constant(0.1), None, K=30,
            seed=6, w0=w0, record_trace=False)


@pytest.mark.parametrize("n", [1, 2])
def test_non_finite_w0_raises_before_any_step(n, recorded_grads):
    """A w0 that is not finite is named as such, not as the first apply
    that the failure-path replay from a snapshot at w0 would blame."""
    ds = synthetic_logistic(40, 3, seed=0)
    part = partition(ds, n, seed=0)
    sam = SampleSchedule.constant(4)
    table = build_assignment(sam, part.p, n, rounds=20, seed=0)
    with pytest.raises(NonFiniteError,
                       match="^initial model w0 is not finite$"):
        run(Problem.logistic_plain(3), part, table, sam,
            StepSchedule.constant(0.1), None, K=40, seed=0,
            w0=np.array([np.inf, 0.0, 0.0, 0.0]), record_trace=False)
    assert recorded_grads == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_in_the_last_partial_round_raises_non_finite():
    """With x = 1 and eta = 3, w_t - 1 = -(-2)^t: every shipped round
    (t <= 1000) is finite, and w overflows at t = 1024, inside the
    unsent round that the final flush reads."""
    ds = data.DataSet(X=np.ones((1, 1)), y=np.zeros(1))
    part = partition(ds, 1, seed=0)
    sam = SampleSchedule.constant(100)
    table = build_assignment(sam, part.p, 1, rounds=11, seed=0)
    with pytest.raises(NonFiniteError, match="final model non-finite"):
        run(Problem.quadratic_mean(1), part, table, sam,
            StepSchedule.constant(3.0), None, K=1090, seed=0,
            record_trace=False)


def huge_setup(n, s=4, x=1e308):
    """Quadratic data at x (1e308) everywhere: one unit step reaches it."""
    ds = data.DataSet(X=np.full((8, 3), x), y=np.zeros(8))
    part = partition(ds, n, seed=0)
    sam = SampleSchedule.constant(s)
    table = build_assignment(sam, part.p, n, rounds=20, seed=0)
    return Problem.quadratic_mean(3), part, table, sam


def test_huge_finite_updates_pass_the_check():
    prob, part, table, sam = huge_setup(1)
    res = run(prob, part, table, sam, StepSchedule.constant(1.0), None, K=40,
              seed=0, record_trace=False)
    assert np.all(res.w_final == 1e308)
    assert np.all(res.checkpoints[-1][2] == 1e308)  # the last broadcast


def test_integer_step_past_int64_scales_as_a_float():
    """A config may give eta as a Python int too large for int64; the
    engine scales by it as the float it rounds to (here on zero data, so
    every step is 0), not as an object array that no ufunc can write."""
    prob, part, table, sam = huge_setup(2, x=0.0)
    res = run(prob, part, table, sam, StepSchedule.constant(2 ** 64), None,
              K=40, seed=0)
    assert not res.w_final.any()


def test_per_iteration_integer_step_past_int64_scales_as_a_float():
    """As above, through the per-iteration step's one-cell buffer; the
    trace records the step as that float too."""
    prob, part, table, sam = huge_setup(2, x=0.0)
    st = StepSchedule(kind=schedules.STEP_CONSTANT, eta=2 ** 64,
                      mode=schedules.PER_ITERATION)
    res = run(prob, part, table, sam, st, None, K=40, seed=0)
    assert not res.w_final.any()
    assert (res.trace.records.eta == float(2 ** 64)).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("x", [1e308, -1e308])
def test_non_finite_round_update_mid_run_raises(x):
    """On data at +-1e308 with a step of 2**-1000, w stays finite while a
    round update, a sum of gradients near -x, overflows.  Node 1's round-1
    update is applied before broadcast 1 (a traced run on data at 1 shows
    the schedule), so broadcast 1's check of v_hat fails mid-run, and its
    replay's check of each update names that one before applying it."""
    st = StepSchedule.constant(2.0 ** -1000)
    prob, part, table, sam = huge_setup(2, x=1.0)
    res = run(prob, part, table, sam, st, None, K=40, seed=0)
    assert res.trace.stamp[1, 1] == 0 and res.k_final > 1
    prob, part, table, sam = huge_setup(2, x=x)
    with pytest.raises(NonFiniteError, match="^node 1 produced a "
                       "non-finite round update in round 1$"):
        run(prob, part, table, sam, st, None, K=40, seed=0,
            record_trace=False)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n", [1, 2])
def test_non_finite_round_update_in_flight_at_the_end_raises(n):
    """On data at 1e308 with a step of 2**-1000, w stays finite while a
    round update, the sum of gradients near -1e308, overflows.  K = 4
    stops at round 0's last step, with no update applied (the event
    schedule does not read the data, so a traced run on data at 1 shows
    it), so the end's check of the updates in flight names one: with one
    node too, whose final model is its own finite w."""
    st = StepSchedule.constant(2.0 ** -1000)
    prob, part, table, sam = huge_setup(n, x=1.0)
    res = run(prob, part, table, sam, st, None, K=4, seed=0)
    assert (res.trace.stamp == -1).all() and res.messages >= 1
    prob, part, table, sam = huge_setup(n)
    with pytest.raises(NonFiniteError, match="round update"):
        run(prob, part, table, sam, st, None, K=4, seed=0,
            record_trace=False)


step_values = hs.one_of(hs.floats(), hs.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308, 1e308, -1e308,
     math.inf, -math.inf, math.nan]))
step_etas = hs.one_of(hs.floats(0.0, 2.0 ** 64), hs.sampled_from(
    [0.0, 5e-324, 2.0 ** 64]), hs.integers(0, 2 ** 64).map(float))


@settings(max_examples=300, deadline=None)
@given(hs.integers(1, 19).flatmap(lambda dim: hs.lists(
    hs.tuples(step_values, step_values, step_values),
    min_size=dim, max_size=dim)), step_etas)
def test_two_row_step_matches_the_one_row_steps(cols, eta):
    """engine.run's step per round writes -eta g into row 1 of the run's
    (2, dim) buffer under g and adds it into the rows (U, w) of the node's
    buffer; the bytes equal those of U += g, then w -= eta g on separate
    buffers, NaN payloads, infinities, signed zeros and subnormals
    included, under whichever SIMD loops numpy dispatches.  Only where
    both addends are NaN is the result just NaN: numpy's add returns
    either one (its scalar tail loop the second), where subtract returns
    the first.  No run returns after such a step: its U is not finite
    from there on, so the run raises NonFiniteError."""
    U, w, g = np.array(cols).T.copy()
    dim = len(g)
    want_U, want_w, step = U.copy(), w.copy(), g.copy()
    UW, G = np.array([U, w]), np.array([g, g])
    with np.errstate(all="ignore"):
        np.add(want_U, step, want_U)
        np.multiply(step, np.broadcast_to(np.array(eta), (dim,)), step)
        np.subtract(want_w, step, want_w)
        np.multiply(G[0], np.broadcast_to(np.array([-eta]), (dim,)), G[1])
        np.add(UW, G, UW)
    want = np.array([want_U, want_w])
    nan_pair = np.isnan([U, w]) & np.isnan([g, step])
    assert np.isnan(UW[nan_pair]).all() and np.isnan(want[nan_pair]).all()
    assert UW[~nan_pair].tobytes() == want[~nan_pair].tobytes()


int64s = hs.integers(-2 ** 63, 2 ** 63 - 1)
record_etas = hs.one_of(
    hs.floats(), hs.sampled_from([math.nan, -0.0, math.inf, -math.inf,
                                  5e-324, -2.2250738585072e-308]),
    hs.integers(-2 ** 64, 2 ** 64))


@settings(max_examples=300, deadline=None)
@given(hs.tuples(int64s, int64s, int64s, record_etas, int64s, int64s,
                 int64s, int64s), hs.integers(0, 2))
def test_packed_record_matches_a_numpy_row(row, j):
    """engine.run packs each trace record into the records' bytes; the
    bytes equal those of numpy's own row write, NaN payloads, signed
    zeros, subnormals and integer steps past int64 included."""
    want, got = np.zeros(3, dtype=RECORD), np.zeros(3, dtype=RECORD)
    want[j] = row
    engine._pack_record(memoryview(got).cast("B"), j << 6, *row)
    assert got.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_server_overflow_raises():
    """Each node's round-0 update is -1e308 per coordinate, and its later
    ones are 0 (its model stays at 1e308): the second round-0 update to
    arrive, node 1's, overflows v_hat, and the check names it."""
    prob, part, table, sam = huge_setup(2)
    with pytest.raises(NonFiniteError, match="^server model non-finite "
                       "after round 0 from node 1$"):
        run(prob, part, table, sam, StepSchedule.constant(1.0), None, K=40,
            seed=0, record_trace=False)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("K", [36, 37, 40])
def test_server_overflow_before_any_broadcast_raises(K):
    """Three nodes, d = 5: node 2's round-0 update overflows v_hat as
    above.  At K = 36 and 37 the run stops before any broadcast, so the
    check at the end names it, not the final model's check; at K = 40 the
    check at a broadcast does.  The event schedule does not read the data,
    so a traced run on data at 1 shows when broadcasts start, and that at
    least two round-0 updates are applied."""
    st = StepSchedule.constant(1.0)
    prob, part, table, sam = huge_setup(3, s=8, x=1.0)
    res = run(prob, part, table, sam, st, None, K=K, seed=0, d=5)
    assert (res.k_final == 0) == (K < 38)
    assert (res.trace.stamp[0] >= 0).sum() >= 2
    prob, part, table, sam = huge_setup(3, s=8)
    with pytest.raises(NonFiniteError, match="^server model non-finite "
                       "after round 0 from node 2$"):
        run(prob, part, table, sam, st, None, K=K, seed=0, d=5,
            record_trace=False)


@pytest.mark.parametrize("K,gate,match", [
    (0, engine.GATE_LAG, "K must be >= 1"),
    (10, "eager", "unknown gate 'eager'"),
    (10, engine.GATE_TAU, "tau gate needs a delay function")])
def test_run_rejects_bad_entry_arguments(K, gate, match):
    """run's own checks, which prepare's config checks otherwise precede."""
    sam = SampleSchedule.constant(4)
    _ds, prob, part = quadratic_setup(2, 7)
    table = build_assignment(sam, part.p, 2, rounds=10, seed=7)
    with pytest.raises(EngineError, match=match):
        run(prob, part, table, sam, StepSchedule.constant(0.1), None, K=K,
            seed=7, gate=gate)


@pytest.mark.parametrize("prob,match", [
    (Problem.quadratic_mean(4), r"feature dim 3 != model dim 4"),
    (Problem.logistic_ridge(2, 0.1), r"feature dim 3 \+ 1 != model dim 3")])
def test_feature_dimension_mismatch_raises(prob, match):
    """Each node checks its data's width once, when it binds its kernel,
    and so does serial_sgd."""
    sam = SampleSchedule.constant(4)
    ds, _prob, part = quadratic_setup(2, 7)
    table = build_assignment(sam, part.p, 2, rounds=10, seed=7)
    with pytest.raises(ValueError, match=match):
        run(prob, part, table, sam, StepSchedule.constant(0.1), None, K=10,
            seed=7)
    with pytest.raises(ValueError, match=match):
        serial_sgd(prob, ds, lambda t: 0.1, 10, FakeGen([0] * 10))


def test_table_exhaustion_raises():
    sam = SampleSchedule.constant(4)
    st = StepSchedule.constant(0.1)
    _ds, prob, part = quadratic_setup(1, 7)
    table = build_assignment(sam, part.p, 1, rounds=2, seed=7)
    with pytest.raises(EngineError):
        run(prob, part, table, sam, st, None, K=50, seed=7)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_explicit_table_runs_to_its_last_slot(n):
    """A table of rounds_for_budget(K) + 1 rows, the rows that prepare
    builds, whether its schedule ends there (explicit) or not (constant):
    a node that ships the last row stops while others still hold slots,
    and only a budget above the table's slots raises."""
    st = StepSchedule.constant(0.1)
    _ds, prob, part = quadratic_setup(n, 0, M=200)
    for sam in (SampleSchedule.explicit([10, 10, 10]),
                SampleSchedule.constant(10)):
        rounds = schedules.rounds_for_budget(sam, 30) + 1
        assert rounds == 3
        for seed in range(4):
            table = build_assignment(sam, part.p, n, rounds=rounds,
                                     seed=seed)
            res = run(prob, part, table, sam, st, None, K=30, seed=seed)
            assert res.grads == 30
            assert max(res.rounds_completed.values()) <= table.rounds
            with pytest.raises(EngineError,
                               match="assignment table exhausted"):
                run(prob, part, table, sam, st, None, K=31, seed=seed)


def test_single_node_trace_names_received_broadcasts():
    """One node keeps its own model on a broadcast, but its records still
    name the last broadcast received, so the consistency audit replays
    only the updates after that broadcast's prefix."""
    df, sam, st = make_strongly_convex_schedules(1.0, 1.0, 1, 7747)
    _ds, prob, part = quadratic_setup(1, 3, M=200, dim=3)
    K = 600
    rounds = schedules.rounds_for_budget(sam, K) + 7
    table = build_assignment(sam, part.p, 1, rounds=rounds, seed=3)
    res = run(prob, part, table, sam, st, df, K=K, seed=3, gate="tau",
              d=1, record_trace=True)
    trace = res.trace
    assert trace.records[-1].bcast_id > 0
    for rec in trace.records:
        # the gate's prefix P[k] is that of the broadcast the record names
        assert sam.prefix_sum(rec.bcast_id) == rec.t_glob + 1 - rec.t_delay
        assert rec.acc_round == 0
    assert audit_consistency(trace, df) == (True, None)
    assert audit_gate_invariant(trace, df) == (True, None)


# ---------------------------------------------------------------------------
# other run modes
# ---------------------------------------------------------------------------

def test_empty_first_round_power_law():
    sam = SampleSchedule.power_law(a=5.0)  # s_0 = 0
    st = StepSchedule.inverse_t(0.1, 0.01)
    _ds, prob, part = quadratic_setup(2, 9)
    table = build_assignment(sam, part.p, 2, rounds=12, seed=9)
    res = run(prob, part, table, sam, st, None, K=60, seed=9,
              record_trace=True)
    assert res.grads == 60
    assert all(rec.i >= 1 for rec in res.trace.records)


def test_per_iteration_mode_runs():
    sam = SampleSchedule.constant(10)
    st = StepSchedule.inverse_t(0.1, 0.01, mode=schedules.PER_ITERATION)
    _ds, prob, part = quadratic_setup(2, 10)
    table = build_assignment(sam, part.p, 2, rounds=20, seed=10)
    res = run(prob, part, table, sam, st, None, K=100, seed=10,
              record_trace=True)
    assert res.grads == 100
    etas = {rec.eta for rec in res.trace.records}
    assert len(etas) > 5  # per-iteration steps vary within rounds


def test_per_iteration_step_uses_exact_global_index(monkeypatch):
    """Each gradient's step is eta(rho(c, i, h)), not eta(prefix + n*h),
    and the run is the same whatever the blocks of slots it sorts, under
    both gates at n = 3 and 20: at _WINDOW 1 or 7 the nodes read from many
    blocks at once, which are dropped as the slowest node's row passes
    them."""
    sam = SampleSchedule.constant(12)
    st = StepSchedule.inverse_t(0.1, 0.05, mode=schedules.PER_ITERATION)
    ds = synthetic_quadratic(120, 2, seed=11)
    df = DelayFunction(g=2.0, M0=0.0, M1=30.0)
    for n, gate in itertools.product((3, 20),
                                     (engine.GATE_LAG, engine.GATE_TAU)):
        p = [0.6, 0.3, 0.1] if n == 3 else [1 / n] * n
        part = partition(ds, n, p=p, seed=11)
        table = build_assignment(sam, part.p, n, rounds=30, seed=11)
        runs = []
        for window in (1, 7, 30, 8192):  # 8192: one block holds every slot
            monkeypatch.setattr(engine, "_WINDOW", window)
            runs.append(run(Problem.quadratic_mean(2), part, table, sam, st,
                            df, K=200, seed=11, gate=gate, record_trace=True))
        res = runs[-1]
        assert all(r.trace.records.tobytes() == res.trace.records.tobytes()
                   and r.w_final.tobytes() == res.w_final.tobytes()
                   for r in runs), (n, gate)
        assert len(res.trace.records) == 200
        for rec in res.trace.records:
            assert rec.eta == schedules.per_iteration_step(
                st, rho(table, rec.c, rec.i, rec.h))
        # a node's slots are not n apart in its rows (at n = 3 node 1
        # holds more than s_i/n of them), so the old approximation differs
        assert any(rec.eta != schedules.per_iteration_step(
            st, sam.prefix_sum(rec.i) + n * rec.h)
            for rec in res.trace.records)


def test_run_leaves_no_cyclic_garbage():
    """The handlers' closures, the event buckets and the nodes' slot
    streams are unlinked at return, so a finished run's tables are freed
    by reference counting, not kept until a cyclic collection.  No node
    may outlive the run either: a cycle through a suspended generator is
    freed by its finalizer, which gc.collect() does not count."""
    sam = SampleSchedule.constant(8)
    _ds, prob, part = quadratic_setup(4, 0)
    table = build_assignment(sam, part.p, 4, rounds=300, seed=0)
    df = DelayFunction(g=2.0, M0=0.0, M1=10.0)
    gc.collect()
    gc.disable()
    try:
        for gate, mode in itertools.product(
                (engine.GATE_LAG, engine.GATE_TAU),
                (schedules.PER_ROUND, schedules.PER_ITERATION)):
            st = StepSchedule.inverse_t(0.1, 0.01, mode=mode)
            run(prob, part, table, sam, st, df, K=2000, seed=0, gate=gate)
            assert not any(isinstance(x, engine._Node)
                           for x in gc.get_objects()), (gate, mode)
            assert gc.collect() == 0, (gate, mode)
    finally:
        gc.enable()


def test_event_backend_reports_wall_time():
    sam = SampleSchedule.constant(10)
    st = StepSchedule.inverse_t(0.1, 0.01)
    _ds, prob, part = quadratic_setup(2, 12)
    table = build_assignment(sam, part.p, 2, rounds=30, seed=12)
    res = run(prob, part, table, sam, st, None, K=200, seed=12)
    assert res.wall_time > 0.0

