"""Asynchronous distributed SGD simulator.

A central aggregator and n compute nodes run the increasing-sample-size /
diminishing-round-step-size protocol in a discrete-event simulation that
is deterministic and auditable against the configured delay function.
"""

from .schedules import (DelayFunction, SampleSchedule, StepSchedule,
                        eval_delay, sample_size, round_step,
                        per_iteration_step, make_strongly_convex_schedules,
                        verify_delay_compatibility, rounds_for_budget)
from .problems import Problem, OptimumInfo, grad, loss, objective, \
    full_gradient, variance_constant, find_optimum
from .data import (DataSet, Partition, AssignmentTable, parse_libsvm,
                   load_libsvm, partition, build_assignment,
                   synthetic_quadratic, synthetic_logistic)
from .engine import (run, serial_sgd, rho, rho_inverse,
                     audit_consistency, audit_gate_invariant, RunTrace,
                     RunResult)
from .harness import RunConfig, RunMetrics, prepare, execute, run_suite

__all__ = [
    "DelayFunction", "SampleSchedule", "StepSchedule", "eval_delay",
    "sample_size", "round_step", "per_iteration_step",
    "make_strongly_convex_schedules", "verify_delay_compatibility",
    "rounds_for_budget",
    "Problem", "OptimumInfo", "grad", "loss", "objective", "full_gradient",
    "variance_constant", "find_optimum",
    "DataSet", "Partition", "AssignmentTable", "parse_libsvm", "load_libsvm",
    "partition", "build_assignment", "synthetic_quadratic",
    "synthetic_logistic",
    "run", "serial_sgd", "rho", "rho_inverse",
    "audit_consistency", "audit_gate_invariant", "RunTrace", "RunResult",
    "RunConfig", "RunMetrics", "prepare", "execute", "run_suite",
]

__version__ = "0.1.0"
