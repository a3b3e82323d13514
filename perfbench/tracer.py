"""In-memory spans around the package's module-level public functions.

The tracer replaces a function attribute on its module with a wrapper that
records a span, and puts the original back on `restore`.  Callers look the
function up on the module at call time, so the package needs no change.
A span is (id, name, parent id, operation id, start, end); spans stay in
memory until the benchmark writes them out.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict

from asyncsgd import data, engine, harness, problems, schedules

# (owner, attribute, span name).  `harness.build_dataset` is reported under
# the data layer because it builds the data set from its spec.
TRACED = (
    (harness, "prepare", "harness.prepare"),
    (harness, "build_dataset", "data.build_dataset"),
    (data, "partition", "data.partition"),
    (data, "build_assignment", "data.build_assignment"),
    (schedules, "make_strongly_convex_schedules",
     "schedules.make_strongly_convex_schedules"),
    (schedules, "verify_delay_compatibility",
     "schedules.verify_delay_compatibility"),
    (engine, "run", "engine.run"),
    (problems, "find_optimum", "problems.find_optimum"),
    (harness, "compute_metrics", "harness.compute_metrics"),
    (problems, "objective", "problems.objective"),
    (engine, "audit_consistency", "engine.audit_consistency"),
    (engine, "audit_gate_invariant", "engine.audit_gate_invariant"),
)
# The assignment table builds its index lazily on the first `index()` call;
# later calls, one per `rho` lookup, only return it and get no span.
TABLE_INDEX = "data.table_index"
# The root span of one benchmark operation; its self time is the glue in
# `harness.execute` that no traced function covers.
OPERATION = "operation"
SPAN_NAMES = ((OPERATION,) + tuple(name for _o, _a, name in TRACED)
              + (TABLE_INDEX,))


class Tracer:
    def __init__(self):
        self.spans = []       # [id, name, parent, op, start, end]
        self.op = None
        self._stack = []
        self._patches = []
        self._indexed = {}    # id(table) -> table, for the current operation

    def call(self, name, fn, *args, **kwargs):
        """Call `fn` inside a span named `name`."""
        span = [len(self.spans), name,
                self._stack[-1] if self._stack else None, self.op,
                time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span[0])
        try:
            return fn(*args, **kwargs)
        finally:
            span[5] = time.perf_counter()
            self._stack.pop()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        for owner, attr, name in TRACED:
            fn = getattr(owner, attr)
            self._patch(owner, attr, functools.wraps(fn)(
                functools.partial(self.call, name, fn)))
        index = data.AssignmentTable.index

        @functools.wraps(index)
        def first_index(table):
            if id(table) in self._indexed:
                return index(table)
            self._indexed[id(table)] = table
            return self.call(TABLE_INDEX, index, table)
        self._patch(data.AssignmentTable, "index", first_index)

    def restore(self):
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def begin(self, op):
        self.op = op
        self._indexed.clear()

    def per_op(self, op):
        """{name: [inclusive seconds, self seconds, calls]} of one operation."""
        spans = [s for s in self.spans if s[3] == op]
        child_time = defaultdict(float)
        for s in spans:
            if s[2] is not None:
                child_time[s[2]] += s[5] - s[4]
        out = {name: [0.0, 0.0, 0] for name in SPAN_NAMES}
        for s in spans:
            dur = s[5] - s[4]
            row = out[s[1]]
            row[0] += dur
            row[1] += dur - child_time[s[0]]
            row[2] += 1
        return out

    def to_json(self):
        return [{"id": i, "name": n, "parent": p, "op": op,
                 "start_s": t0, "end_s": t1}
                for i, n, p, op, t0, t1 in self.spans]
