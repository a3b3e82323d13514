"""Execution engine: server/node state machines, audits, and the serial oracle.

`run` is a single-threaded discrete-event simulator with a seeded event
queue and seeded message delays.  It is fully deterministic for a given
(config, seed), which is what makes the delay audits possible.

The server applies round updates to the global model v_hat and broadcasts
(v_hat, k) once round k has been received from every node.  Each node runs
local SGD on its shard, gated so that the staleness of its local model
never exceeds the configured delay function.

One step rule serves both step modes: a node's round-i update U sums its
gradients per round and its steps eta_t g per iteration, and the node
leaves it as scale[i] * U, when it ships U, re-applies it on a broadcast
or flushes it at the end.  scale[i] is eta_bar_i per round and 1.0, an
exact product, per iteration.

The engine reads everything that depends only on the round from tables
built once at entry, each bounded by the assignment table's rounds:
the prefix sums sum_{j<i} s_j, the scales scale[i], the delay-draw
bounds 2 max(s_i, 1) + 1 and the per-node counts s_{i,c}.  All but the
scales are array passes: the prefix sums are the table's row starts
and the s_{i,c} come from AssignmentTable.counts, a blocked bincount.
The table prepare builds ends at the budget's last round T, so a run
computes its K gradients from rounds 0..T; a node that ships the
table's last row stops.
The server counts the updates applied per round.  An empty round ships
None, since its update is exactly zero.  The tau gate decides the
trajectory, so it evaluates tau by the scalar code, once per t_glob; the
audits evaluate it for all records in one array pass, whose floor and
ceil are the scalar ones (see schedules.eval_delay).
Each node draws its sample indices from its stream in chunks; the indices
consumed are exactly those of one scalar draw per gradient.

Time advances in integer ticks.  Every event lands at least one tick after
the one that schedules it, so a tick's events are all known when it starts:
each tick keeps a bucket of (draw, handler, payload) entries in push order,
where draw is a uniform draw from the interleave stream taken at push time.
A tick's bucket is sorted by draw alone with a stable sort, so push order
breaks equal draws, and the loop calls handler(payload); ticks with no
events are skipped.  The interleave draws and message delays come from
`rng.Replay`, which returns exactly what the Generator's scalar random()
and integers(0, hi) would.  Round updates and the server model are checked
for inf and NaN as isfinite(x @ zeros), which is NaN exactly when some
entry is not finite.

A traced run fills RunTrace's flat columns: a RECORD row per gradient and
a stamp per round update (i, c), the number of broadcasts emitted before
it was applied (-1: never); (i, c) is in broadcast b iff 0 <= stamp < b.
"""
from __future__ import annotations

import functools
import math
import time as time_mod
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Optional

import numpy as np

from . import rng
from .data import AssignmentTable, Partition
from .problems import Problem, grad
from .schedules import (DelayFunction, SampleSchedule, StepSchedule,
                        PER_ITERATION, eval_delay,
                        per_iteration_step, round_step)

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

def rho(table: AssignmentTable, c, i, h):
    """Global iteration index t of the h-th local step of node c in round i.

    t = sum of earlier row lengths + position of the (h+1)-th occurrence of
    c in row i.  c, i and h may be integer arrays of one shape; t is then
    an array of that shape.
    """
    _node, _rnd, _occ, first, order = table.index()
    c, i, h = np.asarray(c), np.asarray(i), np.asarray(h)
    ok = (0 <= i) & (i < table.rounds) & (1 <= c) & (c <= table.n)
    key = np.where(ok, i * table.n + c - 1, 0)
    lo = first[key]
    ok &= (0 <= h) & (h < first[key + 1] - lo)
    if not ok.all():
        raise IndexError(f"label (c={c}, i={i}, h={h}) out of range")
    t = order[lo + h]
    return int(t) if t.ndim == 0 else t


def rho_inverse(table: AssignmentTable, t: int):
    """Inverse of rho: global index t back to the label (c, i, h)."""
    node, rnd, occ, _first, _order = table.index()
    if not (0 <= t < len(node)):
        raise IndexError(f"t={t} out of range")
    return int(node[t]), int(rnd[t]), int(occ[t])


# ---------------------------------------------------------------------------
# Trace records
# ---------------------------------------------------------------------------

RECORD = np.dtype([("c", np.int64), ("i", np.int64), ("h", np.int64),
                   ("eta", np.float64), ("t_glob", np.int64),
                   ("t_delay", np.int64), ("bcast_id", np.int64),
                   ("acc_round", np.int64)])


@dataclass
class RunTrace:
    """The flat columns of a traced run.  records: one RECORD row per
    gradient in execution order: node c, round i, local step h, step eta,
    the gate's t_glob and t_delay, the last broadcast the local model
    contains and the first local round whose own updates survive in it.
    Broadcast b holds every update of rounds < b (broadcast 0 is the
    initial w0) and, of later rounds, the update (i, c) exactly when
    0 <= stamp[i, c] < b, where stamp[i, c] is the number of broadcasts
    emitted when the server applied the round-i update of node c, or -1."""

    table: AssignmentTable
    records: np.recarray
    stamp: np.ndarray


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


# ---------------------------------------------------------------------------
# Event-driven engine
# ---------------------------------------------------------------------------

# Sample indices a node draws ahead from its stream at a time.  The values
# consumed are those of one scalar draw per gradient; only the generator's
# final state depends on the chunk size.
_DRAW_CHUNK = 1024

class _Node:
    __slots__ = ("c", "i", "h", "s_ic", "w", "U", "k", "gen", "acc_round",
                 "waiting", "X", "y", "draws")

    def __init__(self, c: int, w0: np.ndarray, local,
                 gen: np.random.Generator):
        self.c = c
        self.i = self.h = self.s_ic = self.k = self.acc_round = 0
        self.w = w0.copy()
        self.U = np.zeros_like(self.w)
        self.gen = gen
        self.waiting = False
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
        record_iterates: bool = False) -> RunResult:
    """Deterministic event-driven execution of the full protocol.

    Stops after exactly K gradient computations across all nodes.  The
    returned final model is the serialized recursion's w_K: the server
    model with the in-flight round updates flushed in (round, node) order,
    then the unsent partial rounds in node order.
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

    # Per-round tables.  They stop at the table's last round: no node
    # steps past it.
    rounds = table.rounds
    P = table.start.tolist()
    if K > P[-1]:
        raise EngineError("assignment table exhausted before the gradient "
                          "budget; build more rounds")
    delay_hi = (2 * np.maximum(np.diff(P), 1) + 1).tolist()
    scale = [1.0] * rounds if per_iter else \
        [round_step(steps, samples, i) for i in range(rounds)]
    s_rows = table.counts().tolist()              # s_rows[i][c] = s_{i,c}
    arrived = [0] * (rounds + 1)  # round updates applied, per round
    tau_at = functools.cache(lambda x: eval_delay(delay_fn, float(max(x, 0))))
    if per_iter:
        _node, _rnd, _occ, first, order = table.index()  # rho(c, i, h)

    inter = rng.Replay(rng.stream(seed, rng.INTERLEAVE))
    draw, randint = inter.random, inter.integers
    nodes = [_Node(c, base_w, partition.local(c),
                   rng.stream(seed, rng.NODE_SAMPLING, c))
             for c in range(1, n + 1)]
    for nd in nodes:
        nd.s_ic = s_rows[0][nd.c]

    v_hat = base_w.copy()
    k_srv = 0                 # round count k of the last broadcast
    pending: dict = {}        # (i, c) -> scaled payload, sent but not applied
    records = np.zeros(K, dtype=RECORD) if record_trace else None
    stamp = np.full((rounds, n + 1), -1) if record_trace else None
    checkpoints = []

    grads = 0
    messages = 0
    iterates: list = []
    zeros = np.zeros(dim)  # x @ zeros is NaN iff x has an inf or a NaN
    isfinite = math.isfinite
    buckets: dict = {}    # tick -> [(draw, handler, payload)] in push order
    now = 0               # the current tick
    nxt: list = []        # bucket of tick now + 1; handlers append to it

    def push(time: int, handler, payload) -> None:
        buckets.setdefault(time, []).append((draw(), handler, payload))

    def server_apply(msg) -> None:
        nonlocal k_srv
        i, c, payload = msg
        if payload is not None:
            np.subtract(v_hat, payload, out=v_hat)
            del pending[(i, c)]
            if not isfinite(v_hat.dot(zeros)):
                raise NonFiniteError(f"server model non-finite after round "
                                     f"{i} from node {c}")
        if stamp is not None:
            stamp[i, c] = k_srv
        arrived[i] += 1
        # emit broadcasts for every newly completed round
        while arrived[k_srv] == n:
            k_srv += 1
            if checkpoint_interval and k_srv % checkpoint_interval == 0:
                checkpoints.append((k_srv, P[k_srv], v_hat.copy()))
            snapshot = v_hat.copy()
            hi = delay_hi[k_srv]
            for cc in range(1, n + 1):
                push(now + 1 + randint(hi),
                     node_receive, (cc, k_srv, snapshot))

    def ship_round(nd: _Node) -> None:
        # round finished: ship U (None if the round is empty) and advance
        nonlocal messages
        i, c = nd.i, nd.c
        payload = nd.U if nd.h else None
        if payload is not None:
            payload *= scale[i]
            if not isfinite(payload.dot(zeros)):
                raise NonFiniteError(f"node {c} produced a non-finite "
                                     f"round update in round {i}")
            nd.U = np.zeros(dim)
            pending[(i, c)] = payload
        messages += 1
        push(now + 1 + randint(delay_hi[i]), server_apply, (i, c, payload))
        nd.i = i = i + 1
        nd.h = 0
        if i == rounds:
            return  # no work left: the node stops
        nd.s_ic = s_rows[i][c]
        nxt.append((draw(), node_step, nd))

    def node_step(nd: _Node) -> None:
        nonlocal grads
        i, h = nd.i, nd.h
        if h >= nd.s_ic:
            ship_round(nd)
            return
        if need_t:
            # global index of this gradient and its distance to the prefix
            # the local model is known to contain
            t_glob = P[i + 1] - (nd.s_ic - h) - 1
            t_delay = t_glob + 1 - P[nd.k]
        if tau_gate:
            blocked = tau_at(t_glob) < t_delay
        else:
            blocked = i > nd.k + d
        if blocked:
            nd.waiting = True
            return
        # one gradient computation
        idx = nd.next_index()
        g = grad(problem, nd.w, nd.X[idx], nd.y[idx])
        if per_iter:
            eta = per_iteration_step(
                steps, int(order[first[i * n + nd.c - 1] + h]))
        else:
            eta = scale[i]
        if records is not None:
            records[grads] = (nd.c, i, h, eta, t_glob, t_delay, nd.k,
                              nd.acc_round)
        step = eta * g
        nd.U += step if per_iter else g
        nd.w -= step
        if record_iterates:
            iterates.append(nd.w.copy())
        nd.h = h + 1
        grads += 1
        if grads < K:
            nxt.append((draw(), node_step, nd))

    def node_receive(msg) -> None:
        c, kb, model = msg
        nd = nodes[c - 1]
        if kb <= nd.k or nd.i == rounds:  # stale, or the node has stopped
            return
        nd.k = kb
        if n > 1:
            # replace the local model, re-applying the current partial round
            nd.w = model - scale[nd.i] * nd.U
            nd.acc_round = nd.i
        # with a single node every aggregated update is the node's own, so
        # replacement is a mathematical no-op; skipping it keeps the iterate
        # stream bit-identical to serial SGD, and acc_round stays 0
        if nd.waiting:
            nd.waiting = False
            nxt.append((draw(), node_step, nd))

    for nd in nodes:
        push(0, node_step, nd)

    by_draw = itemgetter(0)
    while grads < K:
        bucket = buckets.pop(now, None)
        if not bucket:
            if not buckets:
                stuck = {nd.c: {"round": nd.i, "k": nd.k,
                                "waiting": nd.waiting} for nd in nodes}
                raise DeadlockError(
                    f"no runnable events with {grads}/{K} gradients done; "
                    f"server k={k_srv}, nodes={stuck}")
            now = min(buckets)
            continue
        nxt = buckets.setdefault(now + 1, [])
        if len(bucket) > 1:
            bucket.sort(key=by_draw)  # stable: push order breaks ties
        for _draw, handler, payload in bucket:
            handler(payload)
            if grads == K:
                break
        now += 1

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
                w_final -= scale[nd.i] * nd.U
    if not np.isfinite(w_final).all():
        raise NonFiniteError("final model non-finite")
    trace = None if records is None else RunTrace(
        table, records.view(np.recarray), stamp)

    return RunResult(
        w_final=w_final, v_hat=v_hat, k_final=k_srv, grads=grads,
        messages=messages,
        rounds_completed={nd.c: nd.i for nd in nodes},
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
    table, rec = trace.table, trace.records
    node, rnd, occ, _first, _order = table.index()
    c, i, h, b, acc = rec.c, rec.i, rec.h, rec.bcast_id, rec.acc_round
    t = rho(table, c, i, h)
    base = table.start[b]  # broadcast b holds every round below b
    upper = t - np.ceil(eval_delay(df, t)).astype(np.int64)
    # updates t' in [base, upper) are not known to be in the model: each
    # must be in the broadcast or be the node's own surviving update
    for j in np.flatnonzero(upper > base).tolist():
        win = slice(base[j], upper[j])
        cp, ip, hp = node[win], rnd[win], occ[win]
        s = trace.stamp[ip, cp]
        own = (cp == c[j]) & (((acc[j] <= ip) & (ip < i[j]))
                              | ((ip == i[j]) & (hp < h[j])))
        if not (((0 <= s) & (s < b[j])) | own).all():
            return False, int(t[j])
    return True, None


def audit_gate_invariant(trace: RunTrace, df: DelayFunction):
    """Check t_delay <= tau(t_glob) for every recorded gradient."""
    rec = trace.records
    tau = eval_delay(df, np.maximum(rec.t_glob, 0))
    bad = np.flatnonzero(rec.t_delay > tau)
    return (True, None) if len(bad) == 0 else (False, rec[bad[0]])
