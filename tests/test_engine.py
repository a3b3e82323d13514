"""Engine semantics: rho, serial oracle, gates, audits, determinism."""

import hashlib

import numpy as np
import pytest

from asyncsgd import data, engine, problems, rng, schedules
from asyncsgd.data import AssignmentTable, build_assignment, partition, \
    synthetic_quadratic, synthetic_logistic
from asyncsgd.engine import (DeadlockError, EngineError, NonFiniteError,
                             GradRecord, BroadcastInfo, RunTrace, rho,
                             rho_inverse, run, serial_sgd,
                             make_step_fn, audit_consistency,
                             audit_gate_invariant, audit_gate_equivalence)
from asyncsgd.problems import Problem
from asyncsgd.schedules import (DelayFunction, SampleSchedule, StepSchedule,
                                make_strongly_convex_schedules, round_step)


def table_from_rows(rows, n):
    return AssignmentTable(rows=[np.asarray(r, dtype=np.int64) for r in rows],
                           n=n, p=np.full(n, 1.0 / n), seed=0)


class FakeGen:
    """Deterministic stand-in for a Generator (scripted sample indices)."""

    def __init__(self, indices):
        self.indices = list(indices)

    def integers(self, lo, hi):
        return self.indices.pop(0)


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
    total = sum(len(r) for r in table.rows)
    seen = set()
    for t in range(total):
        c, i, h = rho_inverse(table, t)
        assert rho(table, c, i, h) == t
        seen.add((c, i, h))
    assert len(seen) == total


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


# ---------------------------------------------------------------------------
# gates and audits
# ---------------------------------------------------------------------------

def quadratic_setup(n, seed, M=120, dim=3):
    ds = synthetic_quadratic(M, dim, seed=seed)
    prob = Problem.quadratic_mean(dim)
    part = partition(ds, n, seed=seed)
    return ds, prob, part


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
        kwargs = dict(problem=prob, partition=part, table=table, samples=sam,
                      steps=st, K=150, seed=seed, d=d)
        assert audit_gate_equivalence(kwargs, df)


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


def test_server_ledger_invariant():
    df, sam, st = make_strongly_convex_schedules(1.0, 1.0, 1, 7747)
    _ds, prob, part = quadratic_setup(5, 8)
    table = build_assignment(sam, part.p, 5, rounds=40, seed=8)
    # audit_ledger raises if the invariant breaks at any dequeue
    res = run(prob, part, table, sam, st, df, K=400, seed=8,
              audit_ledger=True)
    assert res.grads == 400


def test_round_sum_identity():
    """The model at broadcast k equals w0 minus the per-round scaled
    gradient block sums it is supposed to contain (to 1e-9)."""
    sam = SampleSchedule.constant(8)
    st = StepSchedule.inverse_t(0.1, 0.01)
    _ds, prob, part = quadratic_setup(3, 4)
    table = build_assignment(sam, part.p, 3, rounds=30, seed=4)
    res = run(prob, part, table, sam, st, None, K=160, seed=4,
              record_trace=True, record_gradients=True)
    # per (round, node) scaled sums from the gradient records
    sums = {}
    for rec in res.trace.records:
        key = (rec.i, rec.c)
        sums[key] = sums.get(key, np.zeros(prob.dim)) + rec.eta * rec.g
    for k, _t, model in res.checkpoints:
        info = res.trace.broadcasts[k]
        assert info.k == k
        expect = np.zeros(prob.dim)
        for (i, c), v in sums.items():
            if i < k or (i, c) in info.extras:
                expect -= v
        assert np.allclose(model, expect, atol=1e-9)


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


# Fingerprints of three small runs, recorded before the event loop read its
# per-round quantities from precomputed tables.  Any change to event order,
# stream consumption or floating-point arithmetic shows up here.

def sha256_of(w):
    return hashlib.sha256(np.ascontiguousarray(w).tobytes()).hexdigest()


def trace_digest(trace):
    h = hashlib.sha256()
    for r in trace.records:
        h.update(repr((r.c, r.i, r.h, r.eta, r.t_glob, r.t_delay, r.bcast_id,
                       r.acc_round)).encode())
    for b in trace.broadcasts:
        h.update(repr((b.bcast_id, b.k, sorted(b.extras))).encode())
    return h.hexdigest()


def test_determinism_pinned_lag_gate_five_nodes():
    df, sam, st = make_strongly_convex_schedules(1.0, 1.0, 1, 7747)
    _ds, prob, part = quadratic_setup(5, 3, M=200, dim=4)
    table = build_assignment(sam, part.p, 5, rounds=200, seed=3)
    res = run(prob, part, table, sam, st, df, K=2000, seed=3,
              gate=engine.GATE_LAG, d=1, record_trace=False,
              checkpoint_interval=5)
    assert sha256_of(res.w_final) == ("cc9cdb7cd66ba0d17b1a74fc9f259908"
                                      "85ec102588dedafbded816d84a9ad25d")
    assert (res.messages, res.k_final) == (589, 116)
    assert res.rounds_completed == {1: 118, 2: 117, 3: 118, 4: 119, 5: 117}


def test_determinism_pinned_tau_gate_four_nodes_traced():
    df, sam, st = make_strongly_convex_schedules(1.0, 1.0, 1, 7747)
    _ds, prob, part = quadratic_setup(4, 4, M=160, dim=3)
    table = build_assignment(sam, part.p, 4, rounds=200, seed=4)
    res = run(prob, part, table, sam, st, df, K=1500, seed=4,
              gate=engine.GATE_TAU, d=1, record_trace=True)
    assert sha256_of(res.w_final) == ("24b9ab74bc21761227c2a3d17b9b54ab"
                                      "e6764cc0cd0f58b719273825013bbfb0")
    assert (res.messages, res.k_final) == (354, 78)
    assert trace_digest(res.trace) == ("ff7b0b3b7621a18233cce9be35ebf0a5"
                                       "59019452297bf76e65cd4a70ccefe5da")


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
    assert sha256_of(res.w_final) == ("707bf08e3f6133331cc274064e7d9c10"
                                      "6c60cc086a59bd51d5d744a35328aa83")
    assert (res.messages, res.k_final) == (20, 6)
    assert trace_digest(res.trace) == ("123e26dd39a9064b574864b6f86b2127"
                                       "84d164cb5c38c0a83e1f123c2c1a65d2")


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
    sam = SampleSchedule.constant(2)
    df = DelayFunction(g=2.0, M0=16.0, M1=2.0)  # tau(100) = 2 + sqrt(116)
    trace = RunTrace(table=table, sample_sched=sam)
    trace.broadcasts.append(BroadcastInfo(0, 0, frozenset()))
    records = []
    for i in range(50):
        records.append(GradRecord(c=1, i=i, h=0, eta=0.1, t_glob=2 * i,
                                  t_delay=2 * i + 1, bcast_id=0, acc_round=0))
    trace.records = records
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
    with pytest.raises(DeadlockError):
        run(prob, part, table, sam, st, df, K=500, seed=2,
            gate=engine.GATE_TAU)


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
    """One non-finite entry in a shipped round update is caught."""
    sam = SampleSchedule.constant(4)
    _ds, prob, part = quadratic_setup(2, 6)
    table = build_assignment(sam, part.p, 2, rounds=10, seed=6)
    w0 = np.zeros(3)
    w0[1] = bad  # the gradient w - x inherits it, and so does U
    with pytest.raises(NonFiniteError, match="round update"):
        run(prob, part, table, sam, StepSchedule.constant(0.1), None, K=30,
            seed=6, w0=w0, record_trace=False)


def huge_setup(n):
    """Quadratic data at 1e308 everywhere: one unit step reaches it."""
    ds = data.DataSet(X=np.full((8, 3), 1e308), y=np.zeros(8))
    part = partition(ds, n, seed=0)
    sam = SampleSchedule.constant(4)
    table = build_assignment(sam, part.p, n, rounds=20, seed=0)
    return Problem.quadratic_mean(3), part, table, sam


def test_huge_finite_updates_pass_the_check():
    prob, part, table, sam = huge_setup(1)
    res = run(prob, part, table, sam, StepSchedule.constant(1.0), None, K=40,
              seed=0, record_trace=False)
    assert np.all(res.w_final == 1e308)
    assert np.all(res.v_hat == 1e308)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_server_overflow_raises():
    # each node ships -1e308 per coordinate; their sum overflows at the server
    prob, part, table, sam = huge_setup(2)
    with pytest.raises(NonFiniteError, match="server model"):
        run(prob, part, table, sam, StepSchedule.constant(1.0), None, K=40,
            seed=0, record_trace=False)


def test_table_exhaustion_raises():
    sam = SampleSchedule.constant(4)
    st = StepSchedule.constant(0.1)
    _ds, prob, part = quadratic_setup(1, 7)
    table = build_assignment(sam, part.p, 1, rounds=2, seed=7)
    with pytest.raises(EngineError):
        run(prob, part, table, sam, st, None, K=50, seed=7)


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


def test_per_iteration_step_uses_exact_global_index():
    """Each gradient's step is eta(rho(c, i, h)), not eta(prefix + n*h)."""
    sam = SampleSchedule.constant(12)
    st = StepSchedule.inverse_t(0.1, 0.05, mode=schedules.PER_ITERATION)
    ds = synthetic_quadratic(120, 2, seed=11)
    part = partition(ds, 3, p=[0.6, 0.3, 0.1], seed=11)
    table = build_assignment(sam, part.p, 3, rounds=30, seed=11)
    res = run(Problem.quadratic_mean(2), part, table, sam, st, None, K=200,
              seed=11, record_trace=True)
    assert len(res.trace.records) == 200
    for rec in res.trace.records:
        assert rec.eta == schedules.per_iteration_step(
            st, rho(table, rec.c, rec.i, rec.h))
    # node 1 holds more than s_i/n slots, so the old approximation differs
    assert any(rec.eta != schedules.per_iteration_step(
        st, sam.prefix_sum(rec.i) + 3 * rec.h) for rec in res.trace.records)


def test_event_backend_reports_wall_time():
    sam = SampleSchedule.constant(10)
    st = StepSchedule.inverse_t(0.1, 0.01)
    _ds, prob, part = quadratic_setup(2, 12)
    table = build_assignment(sam, part.p, 2, rounds=30, seed=12)
    res = run(prob, part, table, sam, st, None, K=200, seed=12)
    assert res.wall_time > 0.0

