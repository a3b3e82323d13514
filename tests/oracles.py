"""Reference implementations that only tests use.

`make_step_fn` is the serial oracle's step rule: `engine.serial_sgd` with
it runs the iterates a one-node distributed run must reproduce bit for bit.
`scalar_rounds_for_budget` is the round-by-round walk that
`rounds_for_budget` must agree with, value and error.
"""
import functools

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
