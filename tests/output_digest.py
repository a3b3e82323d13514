"""Print one digest of engine.run's outputs over a grid of small configs.

Run from the repository root (pytest does not collect this file):

    python3 tests/output_digest.py

The grid is problems x gates x step modes x n in {1, 3, 7, 20} x two
sample schedules, each run traced and untraced, plus one config whose tau
gate refuses every first step, so that the error path is hashed too.  A
run hashes w_final, k_final, messages, rounds_completed and every
checkpoint, and on traced runs the trace's records and stamp; a run that
raises an EngineError hashes the error's type and message.  The script
prints the sha256 over all runs in grid order, with the counts of runs
and errors, on one line.  Two versions of the engine that keep every
output byte print the same line, so it is evidence for a change that
claims to keep them; a line that differs says only that some byte moved.
An error message is an output too: rewording one moves the line.
"""
from __future__ import annotations

import hashlib
import itertools
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from asyncsgd import engine  # noqa: E402
from asyncsgd.data import (build_assignment, partition,  # noqa: E402
                           synthetic_logistic, synthetic_quadratic)
from asyncsgd.problems import Problem  # noqa: E402
from asyncsgd.schedules import (PER_ITERATION, PER_ROUND,  # noqa: E402
                                DelayFunction, SampleSchedule, StepSchedule,
                                rounds_for_budget)

K = 1500
M = 120
PROBLEMS = [(synthetic_quadratic, Problem.quadratic_mean(3)),
            (synthetic_logistic, Problem.logistic_plain(3)),
            (synthetic_logistic, Problem.logistic_ridge(3, 0.1))]
GATES = [(engine.GATE_LAG, None), (engine.GATE_TAU,
                                   DelayFunction(g=2.0, M0=0.0, M1=40.0))]
MODES = [PER_ROUND, PER_ITERATION]
NODES = [1, 3, 7, 20]
# under both, every tau run above completes
SCHEDULES = [lambda: SampleSchedule.constant(12),
             lambda: SampleSchedule.power_law(2.0, b=4.0, c=1.0)]
# tau(0) = 0 refuses every node's first step: a DeadlockError
DEADLOCK = (PROBLEMS[0], (engine.GATE_TAU, DelayFunction(g=2.0, M0=0.0,
                                                         M1=0.0)),
            PER_ROUND, 3, SCHEDULES[0], True)


def _feed(h, *items) -> None:
    for item in items:
        h.update(np.ascontiguousarray(item).tobytes() if isinstance(
            item, np.ndarray) else repr(item).encode())


def run_one(h, problem, gating, mode: str, n: int, schedule,
            traced: bool) -> bool:
    """Hash one run's outputs into h; True if it raised."""
    (make, prob), (gate, delay_fn), sam = problem, gating, schedule()
    part = partition(make(M, 3, seed=n), n, seed=n)
    table = build_assignment(sam, part.p, n,
                             rounds_for_budget(sam, K) + 1, seed=n)
    steps = StepSchedule.inverse_t(0.05, 0.01, mode=mode)
    try:
        res = engine.run(prob, part, table, sam, steps, delay_fn, K, seed=n,
                         gate=gate, d=1, record_trace=traced)
    except engine.EngineError as err:
        _feed(h, type(err).__name__, str(err))
        return True
    _feed(h, res.w_final, res.k_final, res.messages,
          sorted(res.rounds_completed.items()))
    for k, t, model in res.checkpoints:
        _feed(h, k, t, model)
    if traced:
        _feed(h, res.trace.records.view(np.ndarray), res.trace.stamp)
    return False


def main() -> int:
    h = hashlib.sha256()
    grid = list(itertools.product(PROBLEMS, GATES, MODES, NODES, SCHEDULES,
                                  (False, True))) + [DEADLOCK]
    errors = sum(run_one(h, *config) for config in grid)
    print(f"{h.hexdigest()} {len(grid)} runs, {errors} errors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
