"""Execution engine: server/node state machines, audits, and the serial oracle.

`run` is a single-threaded discrete-event simulator with a seeded event
queue and seeded message delays.  It is fully deterministic for a given
(config, seed), which is what makes the delay audits possible.

The server applies round updates to the global model v_hat and broadcasts
(v_hat, k) once every node with work in round k has shipped it.  Each node
runs local SGD on its shard, gated so that the staleness of its local
model never exceeds the configured delay function.

One step rule serves both step modes: a node's round-i update U sums its
gradients per round and its steps eta_t g per iteration, and the node
leaves it as scale[i] * U, when it ships U, re-applies it on a broadcast
or flushes it at the end.  scale[i] is eta_bar_i per round and 1.0, an
exact product, per iteration.

A node's round update U and model w are the two rows of one buffer UW
for the run; the run's gradient g is row 0 of one buffer G.  The node
binds its kernel (problems.kernel) over w and g once.  A step per round
writes g, -eta_bar_i g into G's row 1, and adds G into UW: w + (-(eta
g)) is w - eta g, as negation commutes with rounding (bar which NaN a
NaN + NaN returns, after which U is not finite and the run raises).  A
step per iteration adds eta_t g into U and subtracts it from w.  An
adopted broadcast is copied into w, as model - scale[i] * U; the
snapshots, which inboxes and checkpoints share, are only read.  A node
ships scale[i] * U in a pool buffer and zeroes U; the server frees each
applied one at the next broadcast.

The engine reads what depends only on the round from tables built at
entry, up to the table's last round T: the prefix sums P[i] = sum_{j<i}
s_j (the table's row starts), the scales, the delay-draw bounds
2 max(s_i, 1) + 1, the counts s_{i,c} (AssignmentTable.counts), the
non-empty cells per round and the gate's expiry ticks (see gate_expiry).

One event per cell: node c runs the s_{i,c} steps of its cell (i, c) one
per tick, in one event at the tick of the last step, when every
broadcast the cell can adopt is in the node's inbox.  A step first adopts
the newest broadcast arrived by its tick.  The node ships round i at the
cell's last tick and enters its next round j with s_{j,c} > 0, or stops:
an empty cell gets no event, draw or message, and a round without work
is broadcast as soon as every earlier round is, at tick 0 too.  A
broadcast draws one delay per live node into that node's inbox, where
arrival ticks and k rise together: an entry is dropped when a newer
broadcast arrives no later.

One rule serves both gates: a step at t_glob may use the model of
broadcast k iff t_glob <= expiry[k].  Each step checks it after its
adoption, and a refusal ends the event.  A cell starts at the next tick
if the model passes; else its node keeps the step's t_glob, and the first
broadcast k with t_glob <= expiry[k] to arrive wakes it.

Time advances in integer ticks; every event is pushed for a later
tick.  A tick's bucket of (draw, handler, payload) entries, draw being a
raw 64-bit word of the interleave stream taken at push time (one per
cell event, round update or wake-up), is sorted by draw with a stable
sort (push order breaks ties); empty ticks are skipped.  A message delay
in [0, hi) takes one word too: word * hi >> 64 (see rng.words).  The run
stops at the K-th gradient in handler order; the final model flushes in
the round updates left in the buckets, its own bucket's unrun rest too.

v_hat is checked for inf and NaN once per broadcast and at the end, as
isfinite(v_hat @ zeros), NaN exactly when some entry is not finite; once
not finite, it stays so.  A failed check replays the applies since the
last broadcast, checking each update before applying it, to name the
first bad one; the end checks the updates in flight too.  A traced run
fills RunTrace's columns (see there).
"""
from __future__ import annotations

import itertools
import math
import struct
import time as time_mod
from collections import defaultdict, deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Optional

import numpy as np

from . import rng
from .data import AssignmentTable, Partition
from .problems import Problem, check_features, kernel
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
# one RECORD row, packed at byte offset j << 6 of the records' bytes
_pack_record = struct.Struct("=3qd4q").pack_into


@dataclass
class RunTrace:
    """The flat columns of a traced run.  records: one RECORD row per
    gradient in handler order: node c, round i, local step h, step eta,
    the gate's t_glob and t_delay, the last broadcast the local model
    contains and the first local round whose own updates survive in it.
    Broadcast b holds every update of rounds < b (broadcast 0 is the
    initial w0) and, of later rounds, the update (i, c) exactly when
    0 <= stamp[i, c] < b, where stamp[i, c] is the number of broadcasts
    emitted when the server applied the round-i update of node c, or -1
    (never applied; always for an empty cell, s_{i,c} = 0)."""

    table: AssignmentTable
    records: np.recarray
    stamp: np.ndarray


@dataclass
class RunResult:
    w_final: np.ndarray
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
    check_features(problem, dataset.X.shape[1])
    w = np.zeros(problem.dim) if w0 is None else w0.astype(float)
    g = np.empty(problem.dim)
    grad_at = kernel(problem, w, g)
    history = []
    M = len(dataset)
    for t in range(K):
        grad_at(*dataset.sample(int(gen.integers(0, M))))
        np.multiply(g, step_fn(t), g)
        np.subtract(w, g, w)
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
    __slots__ = ("c", "i", "h", "s_ic", "UW", "U", "w", "k", "acc_round",
                 "wait", "grad_at", "X", "y", "next_index", "inbox")

    def __init__(self, c: int, problem: Problem, w0: np.ndarray,
                 g: np.ndarray, local, gen: np.random.Generator):
        self.c = c
        self.i = self.h = self.s_ic = self.k = self.acc_round = 0
        check_features(problem, local.X.shape[1])
        self.UW = np.array([np.zeros_like(w0), w0])  # one buffer for the run
        self.U, self.w = self.UW  # the round update and the local model
        self.grad_at = kernel(problem, self.w, g)  # writes grad at w into g
        self.wait = math.inf  # gated: the t_glob of the step it waits for
        self.X = list(local.X)
        self.y = local.y.astype(float).tolist()
        M = len(self.y)
        chunks = iter(lambda: gen.integers(0, M, size=_DRAW_CHUNK).tolist(),
                      None)
        self.next_index = itertools.chain.from_iterable(chunks).__next__
        self.inbox: deque = deque()  # (arrival tick, k, model), both rising


def gate_expiry(P: list, gate: str, d: int, delay_fn) -> list:
    """expiry[k], the last t_glob at which a step may use the model of
    broadcast k, never decreases in k <= T, so each gate site of run
    compares a t_glob with expiry, with no search.  Lag: a step fills slot
    t_glob + 1 of its round i, in [P[i], P[i + 1]), so i <= k + d iff
    t_glob + 1 < P[k + d + 1].  Tau: the last t in [-1, P[T]) with g(t) =
    t + 1 - floor(tau(max(t, 0))) <= P[k], else -2.  g never decreases, as
    tau rises by at most 1 per tick (gamma one: tau is concave and tau(1) -
    tau(0) <= 1; four_log: z / (4 ln z) has slope <= 1/16 and is >= e/4),
    so one bisection on t serves every k, through eval_delay's array form,
    whose floors are the scalar ones.  Where rounding lifts floor(tau) by 2
    (M0 = 0, M1 = 1 - 2**-53), the bisection refuses the late pass."""
    if gate == GATE_LAG:  # P[min(k + d + 1, T)] - 2
        return [p - 2 for p in P[d + 1:]] + [P[-1] - 2] * min(d + 1, len(P))
    bound, e = np.asarray(P), np.full(len(P), -2)  # g(e) <= P[k], or e = -2
    for j in reversed(range((P[-1] + 1).bit_length())):
        t = np.minimum(e + (1 << j), P[-1] - 1)
        tau = np.floor(eval_delay(delay_fn, np.maximum(t, 0))).astype(int)
        e = np.where(t + 1 - tau <= bound, t, e)
    return e.tolist()


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
    if not np.isfinite(base_w).all():
        raise NonFiniteError("initial model w0 is not finite")
    per_iter = steps.mode == PER_ITERATION

    # Per-round tables, to the table's last round: no node steps past it.
    rounds = table.rounds
    P = table.start.tolist()
    if K > P[-1]:
        raise EngineError("assignment table exhausted before the gradient "
                          "budget; build more rounds")
    delay_hi = (2 * np.maximum(np.diff(P), 1) + 1).tolist()
    scale = [1.0] * rounds if per_iter else \
        [round_step(steps, samples, i) for i in range(rounds)]
    counts = table.counts()
    s_rows = counts.tolist() + [[1] * (n + 1)]  # s_{i,c}, then a sentinel
    # per round: the updates the server waits for, and those it has applied
    need = np.count_nonzero(counts, axis=1).tolist() + [-1]
    arrived = [0] * (rounds + 1)
    expiry = gate_expiry(P, gate, d, delay_fn)
    if per_iter:  # rho(c, i, h), with Python ints as items
        first, order = map(memoryview, table.index()[3:])

    word = rng.words(seed, rng.INTERLEAVE)  # one 64-bit word per draw
    G = np.empty((2, dim))  # every node's gradient g, then its step
    g, step = G  # step is scale[i] * U at an adoption too
    # eta_t per iteration or -eta_bar_i per round, read as a dim-vector
    cell = np.empty(1)
    eta_cell, cell_v = memoryview(cell), np.broadcast_to(cell, (dim,))
    # scale[i] as a stride-0 dim-vector: array-array calls are the cheapest
    scales = np.broadcast_to(np.array(scale, float)[:, None], (rounds, dim))
    nodes = [_Node(c, problem, base_w, g, partition.local(c),
                   rng.stream(seed, rng.NODE_SAMPLING, c))
             for c in range(1, n + 1)]

    v_hat = base_w.copy()
    k_srv, snapshot = 0, base_w  # round count k and model of last broadcast
    applied, pool = [], []    # (i, c, payload) since then; free buffers
    records = np.zeros(K, dtype=RECORD) if record_trace else None
    rows = record_trace and memoryview(records).cast("B")
    # stamp[i, c] at i * (n + 1) + c, flat, with Python ints as items
    stamp = record_trace and memoryview(np.full(rounds * (n + 1), -1))
    checkpoints = []

    grads = 0
    iterates: list = []
    zeros = np.zeros(dim)  # x @ zeros is NaN iff x has an inf or a NaN
    isfinite = math.isfinite
    add, multiply, subtract, copyto = np.add, np.multiply, np.subtract, \
        np.copyto
    buckets = defaultdict(list)  # tick -> [(draw, handler, payload)]
    now = 0               # the current tick

    def push(time: int, handler, payload) -> None:
        buckets[time].append((word(), handler, payload))

    def check_update(i: int, c: int, payload) -> None:
        if not isfinite(payload.dot(zeros)):
            raise NonFiniteError(f"node {c} produced a non-finite "
                                 f"round update in round {i}")

    def broadcast() -> None:
        # one check of v_hat covers the applies since the last broadcast: a
        # replay from its snapshot names the first that left the range; then
        # emit a broadcast for every newly completed round, if any
        nonlocal k_srv, snapshot
        if not isfinite(v_hat.dot(zeros)):
            w = snapshot
            for i, c, payload in applied:
                check_update(i, c, payload)
                if not isfinite((w := w - payload).dot(zeros)):
                    raise NonFiniteError(f"server model non-finite after "
                                         f"round {i} from node {c}")
        pool.extend(payload for _i, _c, payload in applied)
        applied.clear()
        while arrived[k_srv] == need[k_srv]:
            k_srv += 1
            snapshot = v_hat.copy()
            if checkpoint_interval and k_srv % checkpoint_interval == 0:
                checkpoints.append((k_srv, P[k_srv], snapshot))
            hi, e = delay_hi[k_srv], expiry[k_srv]
            for nd in [nd for nd in nodes if nd.i < rounds]:
                at = now + 1 + (word() * hi >> 64)
                inbox = nd.inbox
                while inbox and inbox[-1][0] >= at:
                    inbox.pop()  # overtaken: never the newest arrived
                inbox.append((at, k_srv, snapshot))
                if e >= nd.wait:  # nd's gate opens at tick at
                    nd.wait = math.inf
                    push(at + nd.s_ic - nd.h - 1, node_run, nd)

    def schedule(nd: _Node, t0: int, t_glob: int) -> None:
        # run step h (t_glob) at t0, or when a broadcast that passes it arrives
        if expiry[nd.k] < t_glob:
            t0 = next((a for a, k, _ in nd.inbox if expiry[k] >= t_glob), None)
            if t0 is None:
                nd.wait = t_glob  # the first broadcast that passes wakes nd
                return
        push(t0 + nd.s_ic - nd.h - 1, node_run, nd)

    def server_apply(msg) -> None:
        i, c, payload = msg
        subtract(v_hat, payload, v_hat)
        applied.append(msg)
        if record_trace:
            stamp[i * (n + 1) + c] = k_srv
        arrived[i] += 1
        if arrived[k_srv] == need[k_srv]:
            broadcast()

    def enter(nd: _Node, i: int, t0: int) -> None:
        # nd's first round >= i with work, its first step from tick t0; or stop
        while not s_rows[i][nd.c]:
            i += 1
        nd.i, nd.h, nd.s_ic = i, 0, s_rows[i][nd.c]
        if i < rounds and grads < K:
            schedule(nd, t0, P[i + 1] - nd.s_ic - 1)

    def node_run(nd: _Node) -> None:
        # nd's steps h.. at ticks t, t + 1, .., now: its cell's last tick
        nonlocal grads
        c, i, h, s_ic, inbox = nd.c, nd.i, nd.h, nd.s_ic, nd.inbox
        UW, U, w, k, acc_round = nd.UW, nd.U, nd.w, nd.k, nd.acc_round
        grad_at, X, y, next_index = nd.grad_at, nd.X, nd.y, nd.next_index
        t = now + 1 - (s_ic - h)  # the tick of step h
        eta, eta_v = scale[i], scales[i]
        eta_cell[0] = -eta  # per iteration, each step overwrites it
        t_glob, e_k = P[i + 1] - (s_ic - h) - 1, expiry[k]
        while True:
            if inbox and inbox[0][0] <= t:
                # adopt the newest arrived broadcast: replace the local
                # model, re-applying the current partial round
                while len(inbox) > 1 and inbox[1][0] <= t:
                    inbox.popleft()
                _at, k, model = inbox.popleft()
                e_k = expiry[k]
                if n > 1:  # U is zero at h = 0
                    if h:
                        multiply(U, eta_v, step)
                        subtract(model, step, w)
                    else:
                        copyto(w, model)
                    acc_round = i
                # with one node, keeping w is exact: every aggregated update
                # is its own, and the iterates stay bit-identical to serial SGD
            if t_glob > e_k:
                break  # the gate refuses this step
            # one gradient computation
            idx = next_index()
            grad_at(X[idx], y[idx])
            if per_iter:  # U sums the steps eta_t g
                eta_cell[0] = eta = per_iteration_step(
                    steps, order[first[i * n + c - 1] + h])
                multiply(g, cell_v, g)
                add(U, g, U)
                subtract(w, g, w)
            else:  # U sums the gradients: (U, w) += (g, -eta_bar_i g)
                multiply(g, cell_v, step)
                add(UW, G, UW)
            if record_trace:
                # t_delay, its distance to the prefix its model surely holds
                _pack_record(rows, grads << 6, c, i, h, eta, t_glob,
                             t_glob + 1 - P[k], k, acc_round)
            if record_iterates:
                iterates.append(w.copy())
            h += 1
            grads += 1
            if h == s_ic or grads == K:
                break
            t += 1
            t_glob += 1
        nd.k, nd.acc_round, nd.h = k, acc_round, h
        if h == s_ic:  # ship scale[i] * U in a free buffer; U starts over
            payload = pool.pop() if pool else np.empty(dim)
            multiply(U, eta_v, payload)
            U.fill(0.0)
            push(now + 1 + (word() * delay_hi[i] >> 64), server_apply,
                 (i, c, payload))
            enter(nd, i + 1, now + 1)
        elif grads < K:
            schedule(nd, now + 1, t_glob)  # refused by the gate

    for nd in nodes:
        enter(nd, 0, 0)  # the first steps run at tick 0
    broadcast()  # rounds no node has work in complete at once

    by_draw = itemgetter(0)
    while grads < K:
        bucket = buckets.pop(now, None)
        if not bucket:
            if not buckets:
                broadcast()  # checks v_hat only
                stuck = {nd.c: {"round": nd.i, "k": nd.k,
                                "waiting": nd.wait < math.inf, "t_glob":
                                nd.wait if nd.wait < math.inf else None}
                         for nd in nodes}
                raise DeadlockError(
                    f"no runnable events with {grads}/{K} gradients done; "
                    f"server k={k_srv}, nodes={stuck}")
            now = min(buckets)
            continue
        if len(bucket) > 1:
            bucket.sort(key=by_draw)  # stable: push order breaks ties
        for _draw, handler, payload in (events := iter(bucket)):
            handler(payload)
            if grads == K:
                break
        now += 1

    broadcast()  # checks v_hat only: no round is newly complete
    # in flight: the server's entries in the buckets and the unrun events
    inflight = sorted(m for b in (*buckets.values(), events)  # by (i, c)
                      for _w, f, m in b if f is server_apply)
    buckets = node_run = None  # break the handlers' cycles: free at return
    for i, c, payload in inflight:  # named here: a one-node w_final has none
        check_update(i, c, payload)
    # serialize: flush in-flight round updates and unsent partials; with a
    # single node its local model already is the exact serial iterate
    if n == 1:
        w_final = nodes[0].w.copy()
    else:
        w_final = v_hat.copy()
        for _i, _c, payload in inflight:
            w_final -= payload
        for nd in nodes:
            if nd.h > 0:
                w_final -= scale[nd.i] * nd.U
    if not np.isfinite(w_final).all():
        raise NonFiniteError("final model non-finite")
    trace = RunTrace(table, records.view(np.recarray), np.reshape(
        stamp, (rounds, -1))) if record_trace else None

    return RunResult(
        w_final=w_final, k_final=k_srv, grads=grads,
        messages=sum(arrived) + len(inflight),
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


def audit_lag(trace: RunTrace, d: int):
    """Check i - bcast_id <= d, the lag gate's rule, on every record."""
    bad = np.flatnonzero(trace.records.i - trace.records.bcast_id > d)
    return (True, None) if len(bad) == 0 else (False, trace.records[bad[0]])
