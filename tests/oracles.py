"""Reference implementations that only tests use.

`make_step_fn` is the serial oracle's step rule: `engine.serial_sgd` with
it runs the iterates a one-node distributed run must reproduce bit for bit.
"""
import functools

from asyncsgd.schedules import (PER_ITERATION, SampleSchedule, StepSchedule,
                                per_iteration_step, round_step,
                                rounds_for_budget)


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
