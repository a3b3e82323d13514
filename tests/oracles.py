"""Reference implementations that only tests use.

`make_step_fn` is the serial oracle's step rule: `engine.serial_sgd` with
it runs the iterates a one-node distributed run must reproduce bit for bit.
`scalar_rounds_for_budget` is the round-by-round walk that
`rounds_for_budget` must agree with, value and error.  `replay_iterates`
rebuilds every gradient's model from a trace's claims alone.
"""
import functools

import numpy as np

from asyncsgd import rng
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
    """Each recorded gradient's post-step iterate, replayed from the trace.

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
    sums, nodes, out = {}, {}, []
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
    return out
