"""Execution engine: server/node state machines, audits, and the serial oracle.

`run` is a single-threaded discrete-event simulator with a seeded event
queue and seeded message delays.  It is fully deterministic for a given
(config, seed), which is what makes the delay audits possible.

The server applies eta_bar_i-scaled round updates to the global model v_hat
and broadcasts (v_hat, k) once round k has been received from every node.
Each node runs local SGD on its shard, gated so that the staleness of its
local model never exceeds the configured delay function.

The engine reads everything that depends only on the round from tables
built once at entry, each bounded by the assignment table's rounds:
the prefix sums sum_{j<i} s_j, the round steps eta_bar_i, the delay-draw
bounds 2 max(s_i, 1) + 1 and the per-node counts s_{i,c}.  The server
counts the updates applied per round instead of scanning the applied set.
Each node draws its sample indices from its stream in chunks; the indices
consumed are exactly those of one scalar draw per gradient.

Events are heap entries (time, draw, seq, handler, payload): ties in time
break on a uniform draw from the interleave stream, then on push order, and
the loop calls handler(time, payload).  The interleave draws and message
delays come from `rng.Replay`, which returns exactly what the Generator's
scalar random() and integers(0, hi) would.  Round updates and the server
model are checked for inf and NaN as isfinite(x @ zeros), which is NaN
exactly when some entry is not finite.
"""
from __future__ import annotations

import bisect
import heapq
import itertools
import math
import time as time_mod
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from . import rng
from .data import AssignmentTable, Partition
from .problems import Problem, grad
from .schedules import (DelayFunction, SampleSchedule, StepSchedule,
                        PER_ITERATION, eval_delay, per_iteration_step,
                        round_step)

GATE_LAG = "lag"  # wait while i > k + d
GATE_TAU = "tau"  # wait while tau(t_glob) < t_delay


class EngineError(RuntimeError):
    pass


class DeadlockError(EngineError):
    """All nodes gated with no message in flight."""


class NonFiniteError(EngineError):
    """The model left the representable range."""


# ---------------------------------------------------------------------------
# The ordering map rho
# ---------------------------------------------------------------------------

def rho(table: AssignmentTable, c: int, i: int, h: int) -> int:
    """Global iteration index t of the h-th local step of node c in round i.

    t = sum of earlier row lengths + position of the (h+1)-th occurrence of
    c in row i.
    """
    cum, _occ, pos = table.index()
    if not (0 <= i < table.rounds):
        raise IndexError(f"round {i} out of range")
    by_node = pos[i].get(c)
    if by_node is None or not (0 <= h < len(by_node)):
        raise IndexError(f"label (c={c}, i={i}, h={h}) out of range")
    return int(cum[i] + by_node[h])


def rho_inverse(table: AssignmentTable, t: int):
    """Inverse of rho: global index t back to the label (c, i, h)."""
    cum, occ, _pos = table.index()
    if not (0 <= t < cum[-1]):
        raise IndexError(f"t={t} out of range")
    i = bisect.bisect_right(cum, t) - 1
    off = t - int(cum[i])
    return int(table.rows[i][off]), i, int(occ[i][off])


# ---------------------------------------------------------------------------
# Trace records
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class GradRecord:
    """One gradient computation, with everything the audits need."""

    c: int
    i: int
    h: int
    eta: float
    t_glob: int
    t_delay: int
    bcast_id: int   # broadcast applied to the local model (0 = initial w0)
    acc_round: int  # first local round whose own updates survive in w_hat
    g: Optional[np.ndarray] = None  # only with record_gradients


@dataclass(slots=True)
class BroadcastInfo:
    """Content identifier of broadcast number `bcast_id`.

    The broadcast model contains every update of rounds < k plus the round
    updates listed in `extras` (pairs (i, c) with i >= k already applied).
    """

    bcast_id: int
    k: int
    extras: frozenset


@dataclass
class RunTrace:
    table: AssignmentTable
    sample_sched: SampleSchedule
    records: List[GradRecord] = field(default_factory=list)
    broadcasts: List[BroadcastInfo] = field(default_factory=list)

    def broadcast(self, bcast_id: int) -> BroadcastInfo:
        # id 0 is the initial model (k=0, nothing included)
        return self.broadcasts[bcast_id]


@dataclass
class RunResult:
    w_final: np.ndarray
    v_hat: np.ndarray
    k_final: int
    grads: int
    messages: int
    rounds_completed: dict
    checkpoints: list            # (k, t, model copy) per completed round k
    trace: Optional[RunTrace]
    iterates: list = field(default_factory=list)
    wall_time: float = 0.0


# ---------------------------------------------------------------------------
# Serial SGD oracle
# ---------------------------------------------------------------------------

def serial_sgd(problem: Problem, dataset, step_fn: Callable[[int], float],
               K: int, gen: np.random.Generator,
               w0: Optional[np.ndarray] = None,
               record_iterates: bool = False):
    """Plain single-threaded SGD: w_{t+1} = w_t - eta_t * grad f(w_t; xi_t).

    Returns the final iterate, or (final, [w_1 .. w_K]) when recording.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    w = np.zeros(problem.dim) if w0 is None else w0.astype(float).copy()
    history = []
    M = len(dataset)
    for t in range(K):
        x, y = dataset.sample(int(gen.integers(0, M)))
        w = w - step_fn(t) * grad(problem, w, x, y)
        if record_iterates:
            history.append(w.copy())
    if not np.all(np.isfinite(w)):
        raise NonFiniteError("serial SGD produced non-finite iterates")
    return (w, history) if record_iterates else w


def make_step_fn(steps: StepSchedule, samples: SampleSchedule):
    """Per-iteration step function eta(t) matching the round schedule.

    Iteration t gets the round step of the round that contains t, which is
    exactly what a distributed run applies to that gradient.
    """
    cum = [0]  # cum[j] = prefix_sum(j), extended on demand

    def step(t: int) -> float:
        while cum[-1] <= t:
            cum.append(samples.prefix_sum(len(cum)))
        return round_step(steps, samples, bisect.bisect_right(cum, t) - 1)
    return step


# ---------------------------------------------------------------------------
# Event-driven engine
# ---------------------------------------------------------------------------

# Sample indices a node draws ahead from its stream at a time.  The values
# consumed are those of one scalar draw per gradient; only the generator's
# final state depends on the chunk size.
_DRAW_CHUNK = 1024

class _Node:
    __slots__ = ("c", "i", "h", "s_ic", "w", "U", "k", "gen", "bcast_id",
                 "acc_round", "waiting", "done_rounds", "X", "y", "draws")

    def __init__(self, c: int, w0: np.ndarray, local,
                 gen: np.random.Generator):
        self.c = c
        self.i = 0
        self.h = 0
        self.s_ic = 0
        self.w = w0.copy()
        self.U = np.zeros_like(self.w)
        self.k = 0
        self.gen = gen
        self.bcast_id = 0
        self.acc_round = 0
        self.waiting = False
        self.done_rounds = 0
        self.X = local.X
        self.y = local.y.astype(float).tolist()
        self.draws: list = []  # pending sample indices, next one last

    def next_index(self) -> int:
        if not self.draws:
            chunk = self.gen.integers(0, len(self.y), size=_DRAW_CHUNK)
            self.draws = chunk.tolist()[::-1]
        return self.draws.pop()


def run(problem: Problem, partition: Partition, table: AssignmentTable,
        samples: SampleSchedule, steps: StepSchedule,
        delay_fn: Optional[DelayFunction], K: int, seed: int,
        gate: str = GATE_LAG, d: int = 1,
        w0: Optional[np.ndarray] = None,
        checkpoint_interval: int = 1,
        record_trace: bool = True,
        record_gradients: bool = False,
        record_iterates: bool = False,
        audit_ledger: bool = False) -> RunResult:
    """Deterministic event-driven execution of the full protocol.

    Stops after exactly K gradient computations across all nodes.  The
    returned final model is the serialized recursion's w_K: the server
    model with all in-flight and unsent round updates flushed in node-major
    order.
    """
    if K < 1:
        raise EngineError("gradient budget K must be >= 1")
    if gate not in (GATE_LAG, GATE_TAU):
        raise EngineError(f"unknown gate {gate!r}")
    if gate == GATE_TAU and delay_fn is None:
        raise EngineError("the tau gate needs a delay function")
    t_start = time_mod.perf_counter()

    n = partition.n
    dim = problem.dim
    base_w = np.zeros(dim) if w0 is None else np.asarray(w0, dtype=float)
    per_iter = steps.mode == PER_ITERATION
    tau_gate = gate == GATE_TAU
    need_t = tau_gate or record_trace  # t_glob/t_delay per gradient

    # Per-round tables.  They stop at the table's last round: an explicit
    # schedule has no sample size beyond its values.
    rounds = table.rounds
    if rounds == 0:
        raise EngineError("assignment table exhausted before the gradient "
                          "budget; build more rounds")
    P = [samples.prefix_sum(i) for i in range(rounds + 1)]
    eta_bar = None if per_iter else \
        [round_step(steps, samples, i) for i in range(rounds)]
    delay_hi = [2 * max(P[i + 1] - P[i], 1) + 1 for i in range(rounds)]
    s_rows = [np.bincount(row, minlength=n + 1).tolist()
              for row in table.rows]                  # s_rows[i][c] = s_{i,c}
    arrived = [0] * (rounds + 1)  # round updates applied, per round

    inter = rng.Replay(rng.stream(seed, rng.INTERLEAVE))
    draw, randint = inter.random, inter.integers
    nodes = [_Node(c, base_w, partition.local(c),
                   rng.stream(seed, rng.NODE_SAMPLING, c))
             for c in range(1, n + 1)]
    for nd in nodes:
        nd.s_ic = s_rows[0][nd.c]

    v_hat = base_w.copy()
    k_srv = 0
    H: set = set()            # applied (i, c) pairs with i >= k_srv (trace)
    pending: dict = {}        # (i, c) -> scaled payload, sent but not applied
    applied: dict = {}        # audit-ledger copy of applied scaled payloads
    trace = RunTrace(table=table, sample_sched=samples) if record_trace else None
    if trace is not None:
        trace.broadcasts.append(BroadcastInfo(0, 0, frozenset()))
    checkpoints = []

    grads = 0
    messages = 0
    bcast_seq = 0
    iterates: list = []
    zeros = np.zeros(dim)  # x @ zeros is NaN iff x has an inf or a NaN
    heap: list = []
    heappush, heappop = heapq.heappush, heapq.heappop
    isfinite = math.isfinite
    seq = itertools.count().__next__

    def push(time: float, handler, payload) -> None:
        heappush(heap, (time, draw(), seq(), handler, payload))

    def check_ledger() -> None:
        total = base_w.copy()
        for p in applied.values():
            total -= p
        err = np.linalg.norm(v_hat - total)
        scale = max(1.0, float(np.linalg.norm(v_hat)))
        if err > 1e-9 * scale:
            raise EngineError(f"server ledger invariant broken: |v - sum| "
                              f"= {err:.3e}")

    def server_apply(time: float, msg) -> None:
        nonlocal k_srv, bcast_seq
        i, c, payload = msg
        np.subtract(v_hat, payload, out=v_hat)
        if trace is not None:
            H.add((i, c))
        if audit_ledger:
            applied[(i, c)] = payload
            check_ledger()
        del pending[(i, c)]
        if not isfinite(v_hat.dot(zeros)):
            raise NonFiniteError(f"server model non-finite after round {i} "
                                 f"from node {c}")
        arrived[i] += 1
        # emit broadcasts for every newly completed round
        while arrived[k_srv] == n:
            k_srv += 1
            bcast_seq += 1
            if trace is not None:
                H.difference_update([(k_srv - 1, cc)
                                     for cc in range(1, n + 1)])
                trace.broadcasts.append(
                    BroadcastInfo(bcast_seq, k_srv, frozenset(H)))
            if checkpoint_interval and k_srv % checkpoint_interval == 0:
                checkpoints.append((k_srv, P[k_srv], v_hat.copy()))
            snapshot = v_hat.copy()
            hi = delay_hi[k_srv]
            for cc in range(1, n + 1):
                push(time + 1 + randint(0, hi),
                     node_receive, (cc, bcast_seq, k_srv, snapshot))

    def ship_round(time: float, nd: _Node) -> None:
        # round finished (possibly empty): ship U and advance
        nonlocal messages
        i, c = nd.i, nd.c
        payload = nd.U
        if not per_iter:
            payload *= eta_bar[i]
        if not isfinite(payload.dot(zeros)):
            raise NonFiniteError(f"node {c} produced a non-finite "
                                 f"round update in round {i}")
        pending[(i, c)] = payload
        messages += 1
        push(time + 1 + randint(0, delay_hi[i]), server_apply, (i, c, payload))
        nd.done_rounds += 1
        nd.i = i = i + 1
        if i >= rounds:
            raise EngineError("assignment table exhausted before the "
                              "gradient budget; build more rounds")
        nd.h = 0
        nd.s_ic = s_rows[i][c]
        nd.U = np.zeros(dim)
        push(time + 1, node_step, nd)

    def node_step(time: float, nd: _Node) -> None:
        nonlocal grads
        i, h = nd.i, nd.h
        if h >= nd.s_ic:
            ship_round(time, nd)
            return
        if need_t:
            # global index of this gradient and its distance to the prefix
            # the local model is known to contain
            t_glob = P[i + 1] - (nd.s_ic - h) - 1
            t_delay = t_glob + 1 - P[nd.k]
        if tau_gate:
            blocked = eval_delay(delay_fn, float(max(t_glob, 0))) < t_delay
        else:
            blocked = i > nd.k + d
        if blocked:
            nd.waiting = True
            return
        # one gradient computation
        idx = nd.next_index()
        g = grad(problem, nd.w, nd.X[idx], nd.y[idx])
        if per_iter:
            eta = per_iteration_step(steps, rho(table, nd.c, i, h))
        else:
            eta = eta_bar[i]
        if trace is not None:
            trace.records.append(GradRecord(
                nd.c, i, h, eta, t_glob, t_delay, nd.bcast_id, nd.acc_round,
                g.copy() if record_gradients else None))
        if per_iter:
            nd.U += eta * g
        else:
            nd.U += g
        nd.w -= eta * g
        if record_iterates:
            iterates.append(nd.w.copy())
        nd.h = h + 1
        grads += 1
        if grads < K:
            push(time + 1, node_step, nd)

    def node_receive(time: float, msg) -> None:
        c, bcast_id, kb, model = msg
        nd = nodes[c - 1]
        if kb <= nd.k:
            return
        nd.k = kb
        if n > 1:
            # replace the local model, re-applying the current partial round
            if per_iter:
                nd.w = model - nd.U
            else:
                nd.w = model - eta_bar[nd.i] * nd.U
            nd.bcast_id = bcast_id
            nd.acc_round = nd.i
        # with a single node every aggregated update is the node's own, so
        # replacement is a mathematical no-op; skipping it keeps the iterate
        # stream bit-identical to serial SGD
        if nd.waiting:
            nd.waiting = False
            push(time + 1, node_step, nd)

    for nd in nodes:
        push(0.0, node_step, nd)

    while grads < K:
        if not heap:
            stuck = {nd.c: {"round": nd.i, "k": nd.k, "waiting": nd.waiting}
                     for nd in nodes}
            raise DeadlockError(
                f"no runnable events with {grads}/{K} gradients done; "
                f"server k={k_srv}, nodes={stuck}")
        time, _draw, _seq, handler, payload = heappop(heap)
        handler(time, payload)

    # serialize: flush in-flight round updates and unsent partials; with a
    # single node its local model already is the exact serial iterate
    if n == 1:
        w_final = nodes[0].w.copy()
    else:
        w_final = v_hat.copy()
        for key in sorted(pending):
            w_final -= pending[key]
        for nd in nodes:
            if nd.h > 0:
                w_final -= nd.U if per_iter else eta_bar[nd.i] * nd.U
    if not np.isfinite(w_final).all():
        raise NonFiniteError("final model non-finite")

    return RunResult(
        w_final=w_final, v_hat=v_hat, k_final=k_srv, grads=grads,
        messages=messages,
        rounds_completed={nd.c: nd.done_rounds for nd in nodes},
        checkpoints=checkpoints, trace=trace, iterates=iterates,
        wall_time=time_mod.perf_counter() - t_start)


# ---------------------------------------------------------------------------
# Audits
# ---------------------------------------------------------------------------

def audit_consistency(trace: RunTrace, df: DelayFunction):
    """Check the staleness contract on every recorded gradient.

    For the gradient at global index t, every update with index strictly
    below t - ceil(tau(t)) must have been included in the local model that
    the gradient was computed on.  Returns (True, None) or (False, first
    violating t).
    """
    table = trace.table
    pfx = trace.sample_sched.prefix_sum
    for rec in trace.records:
        t = rho(table, rec.c, rec.i, rec.h)
        tau = eval_delay(df, float(t))
        upper = t - math.ceil(tau)
        if upper <= 0:
            continue
        info = trace.broadcast(rec.bcast_id)
        base = pfx(info.k)
        for t_prime in range(base, upper):
            cp, ip, hp = rho_inverse(table, t_prime)
            if (ip, cp) in info.extras:
                continue
            if cp == rec.c and (rec.acc_round <= ip < rec.i
                                or (ip == rec.i and hp < rec.h)):
                continue
            return False, t
    return True, None


def audit_gate_invariant(trace: RunTrace, df: DelayFunction):
    """Check t_delay <= tau(t_glob) for every recorded gradient."""
    for rec in trace.records:
        if rec.t_delay > eval_delay(df, float(max(rec.t_glob, 0))):
            return False, rec
    return True, None


def audit_gate_equivalence(run_kwargs: dict, df: DelayFunction) -> bool:
    """Run one seeded configuration under both gates.

    True when the lag gate never admits a gradient that the tau-comparison
    invariant forbids (and the tau gate trivially satisfies it too).
    """
    for gate in (GATE_LAG, GATE_TAU):
        res = run(gate=gate, delay_fn=df, record_trace=True, **run_kwargs)
        ok, _bad = audit_gate_invariant(res.trace, df)
        if not ok:
            return False
    return True

