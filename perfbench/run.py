"""asyncsgd benchmark: one workload, a closed loop, one operation at a time.

    python3 perfbench/run.py --workload sc-quad --seed 0 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/`.  With `--trace 0` it reports the end-to-end metrics; with
`--trace 1` it alternates untraced and traced operations and reports the
per-layer metrics.  It prints a readable report, writes the full record
(environment, per-operation times, simulated statistics, spans) to
`perfbench/out/`, and prints one JSON result as its last line.
See README.md for the workloads, the metrics and the time scaling.
"""
from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import resource
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MIN_OPS = 3               # operations per run at least: warm-up + 2 timed
SETUP_BATCHES = 5         # setup_s is the median of this many batches
SETUP_BATCH_S = 0.2       # of harness.prepare calls lasting at least this
KERNEL_CALLS = 5000       # problems.grad calls per kernel timing
FLOOR_GRADS = 20000       # serial_sgd steps per floor timing
FLOOR_STEP = 0.01         # constant step of the floor loop; it sets no cost
REPEATS = 3               # kernel and floor timings, reported as the median
CAL_PASSES = 100          # calibration: vector and heap passes,
CAL_CHURNS = 6            # then record tables built and read,
CAL_RECORDS = 25000       # of this many records each
CAL_REF_S = 0.2           # the calibration seconds at reference speed
CAL_SHARE = 0.07          # calibrate for about this share of an operation
CAL_ROWS = np.random.default_rng(0).normal(size=(500, 10))


def load_package():
    """Import asyncsgd from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import asyncsgd
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import asyncsgd from {SRC}: {exc}")
    if Path(asyncsgd.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: asyncsgd was imported from {asyncsgd.__file__}, "
                 f"not from {SRC}")


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)),
            "src_lines": src_lines}  # information only, not a metric


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


class _Record:
    __slots__ = ("i", "key", "value")

    def __init__(self, i, key, value):
        self.i, self.key, self.value = i, key, value


def calibrate(rounds: int = 1) -> float:
    """Wall seconds per round of a fixed loop of the simulator's kinds of work.

    On a shared host the speed of a core drifts by up to 1.7x within a
    minute as other tenants load it.  Every timed interval is run between
    two calibrations and scaled by CAL_REF_S over their mean, which turns
    it into seconds at a fixed reference speed.  Long operations get more
    rounds, so that the calibration samples the speed over a comparable
    share of their time.  Like the event engine, the loop updates a small
    NumPy vector and pushes and pops a heap; like a traced run, it then
    builds and reads a few megabytes of small records.  It calls no
    package code.
    """
    t0 = time.perf_counter()
    for _ in range(rounds * CAL_PASSES):
        w, heap = np.zeros(CAL_ROWS.shape[1]), []
        for i, x in enumerate(CAL_ROWS):
            w = w - 0.01 * (w - x)
            heapq.heappush(heap, (float(x[0]), i))
        while heap:
            heapq.heappop(heap)
    for _ in range(rounds * CAL_CHURNS):
        records = {i: _Record(i, i + 1, float(i)) for i in range(CAL_RECORDS)}
        sum(r.value for r in records.values())
    return (time.perf_counter() - t0) / rounds


def scaled(wall_s: float, cal_before: float, cal_after: float) -> float:
    return wall_s * CAL_REF_S * 2.0 / (cal_before + cal_after)


def measure_setup(harness, cfg) -> list:
    """Batches of `harness.prepare` calls: wall and scaled seconds per call."""
    batches, cal = [], calibrate()
    for _ in range(SETUP_BATCHES):
        calls, t0 = 0, time.perf_counter()
        while calls == 0 or time.perf_counter() - t0 < SETUP_BATCH_S:
            harness.prepare(cfg)
            calls += 1
        wall = (time.perf_counter() - t0) / calls
        cal_after = calibrate()
        batches.append({"calls": calls, "wall_s": wall,
                        "scaled_s": scaled(wall, cal, cal_after)})
        cal = cal_after
    return batches


def operation(workloads, wl, cfg, tracer=None, index=0) -> dict:
    """Run and check one operation.  With a tracer, its layers get spans."""
    from asyncsgd import problems
    from tracer import OPERATION

    op = {"traced": tracer is not None}
    gc.collect()
    if tracer:
        tracer.begin(index)
        tracer.install()
    t0 = time.perf_counter()
    try:
        out = (tracer.call(OPERATION, workloads.operate, wl, cfg)
               if tracer else workloads.operate(wl, cfg))
    except Exception as exc:  # a failed operation is counted, not fatal
        op["failures"] = [f"{type(exc).__name__}: {exc}"]
        return op
    finally:
        op["wall_s"] = time.perf_counter() - t0
        if tracer:
            tracer.restore()
    op["failures"] = workloads.check(out, cfg)
    op["stats"] = workloads.stats(out)
    if tracer:
        res, prep = out.result, out.prep
        op["counts"] = {
            "harness.checkpoints": len(res.checkpoints),
            "data.assignment_rows": prep.table.rounds,
            "engine.trace_records": len(res.trace.records) if res.trace else 0,
            "engine.messages_per_grad": res.messages / res.grads,
            "engine.broadcasts": res.k_final,
            "engine.broadcast_deliveries": res.k_final * prep.config.n,
            "problems.optimum_grad_norm": float(np.linalg.norm(
                problems.full_gradient(prep.problem, out.opt.w_star,
                                       prep.dataset))),
        }
    return op


def run_ops(workloads, wl, cfg, seconds, tracer, ops):
    """The timed closed loop, appended to `ops` after the warm-up.

    With a tracer, odd-numbered operations are traced.
    """
    rounds = max(1, round(CAL_SHARE * ops[0]["wall_s"] / CAL_REF_S))
    cal = calibrate(rounds)
    t_start = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - t_start < seconds:
        op = operation(workloads, wl, cfg,
                       tracer if len(ops) % 2 == 1 else None, len(ops))
        cal_after = calibrate(rounds)
        op["scaled_s"] = scaled(op["wall_s"], cal, cal_after)
        cal = cal_after
        ops.append(op)


def check_determinism(ops):
    """Every operation of a run has one (config, seed): one w_final."""
    shas = [op["stats"]["w_final_sha256"] for op in ops if "stats" in op]
    for op in ops:
        if "stats" in op and op["stats"]["w_final_sha256"] != shas[0]:
            op["failures"].append("w_final differs from the first operation "
                                  "with the same config")


def kernel_us(prep) -> float:
    """Microseconds per `problems.grad` call on the workload's problem, data."""
    from asyncsgd import problems

    gen = np.random.default_rng(0)
    rows = [prep.dataset.sample(int(i))
            for i in gen.integers(0, len(prep.dataset), size=KERNEL_CALLS)]
    w = gen.normal(0.0, 0.1, size=prep.problem.dim)
    p = prep.problem

    def loop():
        for x, y in rows:
            problems.grad(p, w, x, y)
    return statistics.median(timed(loop)[0] for _ in range(REPEATS)) \
        / KERNEL_CALLS * 1e6


def serial_floor_us(prep) -> float:
    """Microseconds per gradient of `engine.serial_sgd`: the kernel floor."""
    from asyncsgd import engine, rng

    def floor():
        gen = rng.stream(prep.config.seed, rng.NODE_SAMPLING, 1)
        engine.serial_sgd(prep.problem, prep.dataset, lambda t: FLOOR_STEP,
                          FLOOR_GRADS, gen)
    return statistics.median(timed(floor)[0] for _ in range(REPEATS)) \
        / FLOOR_GRADS * 1e6


def trace_cost_s(prep) -> float:
    """`engine.run` with the trace on minus the trace off, on this config."""
    from asyncsgd import engine

    cfg = prep.config

    def run(record_trace):
        gc.collect()
        return timed(engine.run, prep.problem, prep.partition, prep.table,
                     prep.samples, prep.steps, prep.delay_fn, cfg.K, cfg.seed,
                     gate=cfg.gate, d=cfg.d,
                     checkpoint_interval=cfg.checkpoint_interval,
                     record_trace=record_trace)[0]
    return run(True) - run(False)


def end_to_end(cfg, ops, setup, peak_rss_mb) -> dict:
    run_s = statistics.median(op["scaled_s"] for op in ops[1:])
    return {"run_s": (run_s, "s"), "grads_per_s": (cfg.K / run_s, "1/s"),
            "setup_s": (statistics.median(b["scaled_s"] for b in setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB")}


def per_layer(harness, tracer, cfg, ops) -> dict:
    """Span times are wall seconds: they split one operation, unscaled."""
    from tracer import SPAN_NAMES

    traced = [i for i, op in enumerate(ops) if op["traced"]]
    layers = [tracer.per_op(i) for i in traced]

    def med(values):
        return statistics.median(list(values))
    out = {f"{name}.s": (med(l[name][0] for l in layers), "s")
           for name in SPAN_NAMES}
    for name in ("operation", "harness.prepare", "harness.compute_metrics",
                 "problems.find_optimum", "engine.audit_consistency"):
        out[f"{name}.self_s"] = (med(l[name][1] for l in layers), "s")
    out["problems.objective.calls"] = (
        med(l["problems.objective"][2] for l in layers), "count")
    out["problems.objective.us"] = (med(
        l["problems.objective"][0] / max(l["problems.objective"][2], 1) * 1e6
        for l in layers), "us")
    run_us = med(l["engine.run"][0] for l in layers) / cfg.K * 1e6
    out["engine.run.us_per_grad"] = (run_us, "us")
    counted = [ops[i]["counts"] for i in traced if "counts" in ops[i]]
    for name in counted[0] if counted else ():
        unit = ("norm" if name == "problems.optimum_grad_norm" else
                "ratio" if name.endswith("_per_grad") else "count")
        out[name] = (med(c[name] for c in counted), unit)

    prep = harness.prepare(cfg)
    out["problems.grad.us"] = (kernel_us(prep), "us")
    floor = serial_floor_us(prep)
    out["engine.serial_floor.us_per_grad"] = (floor, "us")
    out["engine.overhead_ratio"] = (run_us / floor, "ratio")
    out["engine.trace_cost.s"] = (trace_cost_s(prep), "s")
    out["trace.overhead.s"] = (
        med(ops[i]["scaled_s"] for i in traced)
        - med(op["scaled_s"] for op in ops[1:] if not op["traced"]), "s")
    out["trace.ops"] = (len(traced), "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_package()
    from asyncsgd import harness
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    cfg = wl.run_config(args.seed)
    env = environment()

    # Operation 0 warms the process up and is not timed: in a fresh process
    # it is up to 60% slower on audit-tau-wide, and a run has too few
    # operations to outvote it.  ru_maxrss is a high-water mark in KiB, so
    # it is read now, before set-up, calibration or a second result can
    # raise it: it is the peak of a process that ran one operation.
    ops = [operation(workloads, wl, cfg)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup = measure_setup(harness, cfg)
    tracer = Tracer() if args.trace else None
    run_ops(workloads, wl, cfg, args.seconds, tracer, ops)
    check_determinism(ops)
    failed = sum(1 for op in ops if op["failures"])
    metrics = (per_layer(harness, tracer, cfg, ops) if tracer
               else end_to_end(cfg, ops, setup, peak_rss_mb))

    op_wall = statistics.median(op["wall_s"] for op in ops[1:])
    setup_wall = statistics.median(b["wall_s"] for b in setup)
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"config seed {cfg.seed}  dataset seed {cfg.dataset['seed']}")
    print("environment " + "  ".join(f"{k} {v}" for k, v in env.items()))
    print(f"operations {len(ops)} attempted, {failed} failed; "
          f"{len(ops) - 1} timed after a warm-up, unscaled median "
          f"{op_wall:.4f} s; setup: {len(setup)} batches, unscaled median "
          f"{setup_wall:.4f} s")
    for op in ops:
        for msg in op["failures"]:
            print(f"FAILED: {msg}")
    stats = next((op["stats"] for op in ops if "stats" in op), {})
    print("simulated " + "  ".join(f"{k} {v}" for k, v in stats.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit}")

    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=wl.name, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, config=json.loads(cfg.to_json()),
                  environment=env, setup=setup, operations=ops,
                  spans=tracer.to_json() if tracer else [])
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
