"""Reference implementations that only tests use.

`make_step_fn` is the serial oracle's step rule: `engine.serial_sgd` with
it runs the iterates a one-node distributed run must reproduce bit for bit.
`scalar_rounds_for_budget` is the round-by-round walk that
`rounds_for_budget` must agree with, value and error.  `replay_iterates`
rebuilds every gradient's model from a trace's claims alone.
`synchronous_final` rebuilds the final model of a d = 0 lag-gate run round
by round, from the trace's step counts alone.
"""
import collections
import functools

import numpy as np

from asyncsgd import rng
from asyncsgd.engine import rho
from asyncsgd.problems import grad
from asyncsgd.schedules import (PER_ITERATION, SampleSchedule,
                                ScheduleError, StepSchedule,
                                per_iteration_step, round_step,
                                rounds_for_budget, sample_size)


def make_step_fn(steps: StepSchedule, samples: SampleSchedule):
    """Per-iteration step function eta(t) matching the step schedule.

    Per iteration, iteration t gets eta_t; per round, it gets the round
    step of the round that contains t, the smallest i with
    sum_{j<=i} s_j >= t + 1.  Either is exactly what a distributed run
    applies to that gradient.
    """
    if steps.mode == PER_ITERATION:
        return functools.partial(per_iteration_step, steps)
    return lambda t: round_step(steps, samples,
                                rounds_for_budget(samples, t + 1))


def scalar_rounds_for_budget(samples: SampleSchedule, K: int) -> int:
    """Smallest T with sum_{j<=T} s_j >= K, one scalar sample_size call per
    round and none past T; rounds 0..K short of K samples are an error."""
    if K < 1:
        raise ScheduleError("budget K must be positive")
    total = 0
    for i in range(K + 1):
        total += sample_size(samples, i)
        if total >= K:
            return i
    raise ScheduleError(f"rounds 0..{K} hold fewer than K={K} samples")


def replay_iterates(problem, partition, trace, seed, w0=None):
    """Each recorded gradient's post-step iterate and its step, replayed
    from the trace, as two lists in record order.

    A record (c, i, h, eta, .., b, acc_round) claims that its model is w0
    minus the updates of broadcast b (the round updates (i', c') with
    0 <= stamp < b, every round below b among them), minus node c's own
    rounds in [acc_round, i) that b lacks, minus its steps h' < h of round
    i.  The replay builds that model from its own sums of eta * g, redraws
    node c's sample from its NODE_SAMPLING stream and takes the step.
    Broadcast models are built once each, in stamp order.
    """
    rec, stamp = trace.records, trace.stamp
    snap = [np.zeros(problem.dim) if w0 is None else np.asarray(w0, float)]
    applied = {}  # stamp s -> the updates applied between broadcasts s, s+1
    for i, c in np.argwhere(stamp >= 0).tolist():
        applied.setdefault(stamp[i, c], []).append((i, c))
    sums, nodes, out, steps = {}, {}, [], []
    for c, i, _h, eta, _tg, _td, b, acc in rec.tolist():
        while len(snap) <= b:
            s = len(snap) - 1
            snap.append(snap[s] - sum(sums[key] for key in applied.get(s, ())))
        model = snap[b] - sums.get((i, c), 0.0)
        for j in range(acc, i):
            if (j, c) in sums and not 0 <= stamp[j, c] < b:
                model = model - sums[(j, c)]
        if c not in nodes:
            nodes[c] = (partition.local(c),
                        rng.stream(seed, rng.NODE_SAMPLING, c))
        local, gen = nodes[c]
        idx = int(gen.integers(0, len(local.y)))
        step = eta * grad(problem, model, local.X[idx], float(local.y[idx]))
        sums[(i, c)] = sums.get((i, c), 0.0) + step
        out.append(model - step)
        steps.append(step)
    return out, steps


def synchronous_final(problem, partition, samples, steps, trace, seed):
    """The final model of a lag-gate run at d = 0, rebuilt round by round.

    At d = 0 node c starts round i from broadcast i: w0 (zero) minus every
    step of the rounds below i and of no later round, since broadcast i + 1
    waits for c's own round i.  So each cell (i, c) runs its trace's step
    count from that model, with node c's samples in order, and the final
    model is w0 minus every step.  Only the counts are read from the trace.
    """
    rec = trace.records
    counts = collections.Counter(zip(rec.i.tolist(), rec.c.tolist()))
    gens = {c: rng.stream(seed, rng.NODE_SAMPLING, c)
            for c in range(1, partition.n + 1)}
    model = np.zeros(problem.dim)
    for i in range(int(rec.i.max()) + 1):
        start = model.copy()
        for c in range(1, partition.n + 1):
            local, w = partition.local(c), start.copy()
            for h in range(counts[i, c]):
                idx = int(gens[c].integers(0, len(local.y)))
                eta = per_iteration_step(steps, rho(trace.table, c, i, h)) \
                    if steps.mode == PER_ITERATION else \
                    round_step(steps, samples, i)
                step = eta * grad(problem, w, local.X[idx],
                                  float(local.y[idx]))
                w -= step
                model -= step
    return model
