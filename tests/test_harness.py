"""Config validation, metrics, suites, and the CLI surface."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asyncsgd import cli, engine, harness, problems, rng, schedules
from asyncsgd.harness import ConfigError, RunConfig
from oracles import make_step_fn


def quad_config(**overrides) -> RunConfig:
    base = dict(
        problem={"kind": "quadratic_mean"},
        dataset={"synthetic": "quadratic", "M": 150, "dim": 3, "seed": 0},
        samples={"kind": "constant", "s": 20},
        steps={"kind": "inverse_t", "eta0": 0.1, "beta": 0.01},
        K=400, n=2, seed=1)
    base.update(overrides)
    return RunConfig(**base)


STEPS = {"kind": "inverse_t", "eta0": 0.1, "beta": 0.01}
DELAY = {"g": 2.0, "M0": 0.0, "M1": 100.0}


# ---------------------------------------------------------------------------
# config parsing and validation
# ---------------------------------------------------------------------------

def test_config_json_roundtrip():
    cfg = quad_config()
    clone = RunConfig.from_json(cfg.to_json())
    assert clone == cfg


def test_config_rejects_unknown_field():
    with pytest.raises(ConfigError, match="unknown config field"):
        RunConfig.from_json('{"problem": {}, "dataset": {}, "samples": {},'
                            ' "bogus": 1}')


def test_config_rejects_missing_field():
    with pytest.raises(ConfigError, match="samples"):
        RunConfig.from_json('{"problem": {}, "dataset": {}}')


def test_config_rejects_bad_json():
    with pytest.raises(ConfigError):
        RunConfig.from_json("not json")


@pytest.mark.parametrize("backend", ["threaded", "event"])
def test_config_rejects_backend_field(backend):
    doc = json.loads(quad_config().to_json())
    doc["backend"] = backend
    with pytest.raises(ConfigError, match="unknown config field 'backend'"):
        RunConfig.from_json(json.dumps(doc))


@pytest.mark.parametrize("overrides,fragment", [
    (dict(K=0), "K"),
    (dict(n=0), "n"),
    (dict(d=-1), "d"),
    (dict(gate="sideways"), "gate"),
    (dict(gate="tau"), "delay"),
    (dict(problem={"kind": "cubic"}), "problem"),
    (dict(dataset={"synthetic": "mystery"}), "dataset"),
    (dict(samples={"kind": "constant", "s": 0}), "samples"),
    (dict(samples={"kind": "strongly_convex"},
          problem={"kind": "logistic_plain"}), "strongly convex"),
    (dict(samples={"kind": "power_law", "a": 1.0, "c": -1.0}), "samples"),
    (dict(checkpoint_interval=-1), "checkpoint_interval"),
    (dict(K=2 ** 63), "K must be <= 2\\*\\*63 - 1"),  # no table holds it
])
def test_prepare_validation_errors(overrides, fragment):
    with pytest.raises(ConfigError, match=fragment):
        harness.prepare(quad_config(**overrides))


@pytest.mark.parametrize("builders,context", [
    (harness.DATASETS, 0), (harness.PROBLEMS, 1), (harness.SAMPLES, 0),
    (harness.STEPS, 0), (harness.DELAYS, 0), ({None: RunConfig}, 0),
    ({harness.STRONGLY_CONVEX: harness._strongly_convex}, 3),
])
def test_every_spec_field_has_a_json_type(builders, context):
    for builder in builders.values():
        for annotation, _required in harness._parameters(
                builder, context).values():
            assert annotation in harness._JSON_TYPES


@pytest.mark.parametrize("gate", [engine.GATE_LAG, engine.GATE_TAU])
@pytest.mark.parametrize("n", [1, 5])
def test_prepare_runs_a_budget_inside_round_0(n, gate):
    """K = 10 < s_0 = 16: the table holds row 0 only, the nodes stop after
    K gradients, no round completes, and one node is serial SGD."""
    cfg = quad_config(samples={"kind": "strongly_convex", "m": 7747},
                      steps=None, d=1, K=10, n=n, gate=gate)
    prep, res, metrics, _opt = harness.execute(cfg, record_trace=True)
    assert prep.samples.prefix_sum(1) == 16 and prep.table.rounds == 1
    assert res.grads == 10 and res.k_final == 0
    assert np.isfinite(metrics.final_Y_w)
    assert engine.audit_consistency(res.trace, prep.delay_fn) == (True, None)
    assert engine.audit_gate_invariant(res.trace, prep.delay_fn) == \
        (True, None)
    if n == 1:
        w = engine.serial_sgd(
            prep.problem, prep.partition.local(1),
            make_step_fn(prep.steps, prep.samples), cfg.K,
            rng.stream(cfg.seed, rng.NODE_SAMPLING, 1))
        assert np.array_equal(res.w_final, w)


@pytest.mark.parametrize("delay", [None, DELAY])
def test_prepare_checks_only_rounds_the_run_reaches(delay):
    """The table ends at round T = 19, so d = 10**30 leaves no round of
    the compatibility window [d, T] to check and nothing to walk."""
    prep = harness.prepare(quad_config(d=10 ** 30, delay=delay))
    assert prep.table.rounds == 20
    assert harness.run_prepared(prep).grads == 400


def test_prepare_rejects_incompatible_delay():
    cfg = quad_config(samples={"kind": "constant", "s": 100},
                      delay={"g": 2.0, "M0": 0.0, "M1": 0.0}, K=500)
    with pytest.raises(ConfigError, match="allow_incompatible"):
        harness.prepare(cfg)
    cfg.allow_incompatible = True
    assert harness.prepare(cfg) is not None


def test_default_steps_by_problem_class():
    ds = harness.build_dataset({"synthetic": "logistic", "M": 50, "dim": 3})
    ridge = harness.build_problem({"kind": "logistic_ridge"}, ds)
    assert ridge.lam == pytest.approx(1.0 / 50)  # lambda defaults to 1/M
    d1 = harness.default_steps(ridge)
    assert d1["kind"] == schedules.INVERSE_T and d1["beta"] == 0.001
    plain = harness.build_problem({"kind": "logistic_plain"}, ds)
    d2 = harness.default_steps(plain)
    assert d2["kind"] == schedules.INVERSE_SQRT_T and d2["beta"] == 0.01


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_metrics_recomputation_from_checkpoints():
    cfg = quad_config(K=600)
    prep, result, metrics, opt = harness.execute(cfg)
    again = harness.compute_metrics(prep, result, opt)
    assert metrics.t == again.t
    for a, b in zip(metrics.Y_w + metrics.Y_F, again.Y_w + again.Y_F):
        assert a == pytest.approx(b, rel=1e-9)
    # and directly from the checkpoint models, one model at a time: Y_w
    # bit for bit, Y_F from a one-model objective call
    models = [w for _k, _t, w in result.checkpoints] + [result.w_final]
    assert len(models) == len(metrics.Y_F)
    for w, yw, yf in zip(models, metrics.Y_w, metrics.Y_F):
        diff = w - opt.w_star
        assert yw == float(diff @ diff)
        assert float(np.sum((w - opt.w_star) ** 2)) == pytest.approx(
            yw, rel=1e-9, abs=1e-15)
        assert problems.objective(prep.problem, w, prep.dataset) \
            - opt.F_star == pytest.approx(yf, rel=1e-9, abs=1e-15)


def test_windowed_average_matches_list_mean_bitwise():
    _prep, _res, metrics, _opt = harness.execute(quad_config(K=2400))
    YF = metrics.Y_F
    assert len(YF) >= 100
    for j, ya in enumerate(metrics.Y_A):
        if j >= 1 and 2 * j < len(YF):
            assert ya == float(np.mean(YF[j + 1:2 * j + 1]))
        else:
            assert np.isnan(ya)


def test_metrics_T_matches_budget_rounds():
    cfg = quad_config(K=400, samples={"kind": "constant", "s": 20})
    _prep, _res, metrics, _opt = harness.execute(cfg)
    assert metrics.T == schedules.rounds_for_budget(
        schedules.SampleSchedule.constant(20), 400) + 1
    # power-law schedules skip the empty round 0 in the count
    assert harness.rounds_used(
        schedules.SampleSchedule.power_law(50.0), 20000) == 28
    assert harness.rounds_used(
        schedules.SampleSchedule.constant(100), 20000) == 200


def test_metrics_nonnegative_for_exact_optimum():
    cfg = quad_config(K=600)
    _prep, _res, metrics, _opt = harness.execute(cfg)
    assert all(v >= -1e-9 for v in metrics.Y_w)
    assert all(v >= -1e-9 for v in metrics.Y_F)


def test_metrics_nonnegative_for_certified_logistic_optimum():
    cfg = quad_config(problem={"kind": "logistic_ridge"},
                      dataset={"synthetic": "logistic", "M": 300, "dim": 4,
                               "seed": 2}, K=600)
    _prep, _res, metrics, opt = harness.execute(cfg)
    assert opt.exact and opt.grad_norm <= 1e-10
    assert all(v >= -1e-12 for v in metrics.Y_F)


def test_final_Y_F_does_not_depend_on_checkpoint_interval():
    # the final model is evaluated alone or in a stack of 1, 21 or 8
    # models; every way gives the bits of the one-model objective call
    finals = []
    for interval in (0, 1, 3):
        cfg = quad_config(problem={"kind": "logistic_ridge"},
                          dataset={"synthetic": "logistic", "M": 1000,
                                   "dim": 6, "seed": 0},
                          samples={"kind": "power_law", "a": 50.0, "c": 1.0},
                          steps=None, K=10000, n=5, seed=0,
                          checkpoint_interval=interval)
        prep, result, metrics, opt = harness.execute(cfg)
        assert metrics.final_Y_F == problems.objective(
            prep.problem, result.w_final, prep.dataset) - opt.F_star
        finals.append(metrics.final_Y_F)
    assert finals[0] == finals[1] == finals[2]


def test_metrics_json_serializes():
    cfg = quad_config()
    _prep, _res, metrics, _opt = harness.execute(cfg)
    doc = json.loads(metrics.to_json())
    assert doc["K"] == cfg.K
    assert len(doc["Y_w"]) == len(doc["t"])


def test_metrics_json_holds_every_field_with_nan_as_null():
    _prep, _res, metrics, _opt = harness.execute(quad_config(),
                                                 with_optimum=False)
    doc = json.loads(metrics.to_json())
    assert set(doc) == set(harness.RunMetrics.__dataclass_fields__)
    for name in ("Y_w", "Y_F"):
        assert len(doc[name]) == len(doc["t"])
        assert all(v is None for v in doc[name])
    assert doc["final_Y_w"] is None and doc["final_Y_F"] is None
    assert doc["optimum_exact"] is None and doc["optimum_grad_norm"] is None


def test_accuracy_threshold():
    ds = harness.build_dataset({"synthetic": "logistic", "M": 400, "dim": 4,
                                "seed": 3, "separation": 4.0, "noise": 0.5})
    prob = harness.build_problem({"kind": "logistic_ridge"}, ds)
    info = problems.find_optimum(prob, ds)
    acc = harness.accuracy(info.w_star, ds)
    assert acc > 0.95  # well-separated clusters classify cleanly


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def test_suite_deterministic_bytes():
    a = harness.run_suite("scaling-nodes", seed=0, K=1500)
    b = harness.run_suite("scaling-nodes", seed=0, K=1500)
    assert a == b
    lines = a.strip().splitlines()
    assert lines[0] == "setting,accuracy,T,K"
    assert len(lines) == 4  # n in {1, 2, 5}


SUITE_SETTINGS = {
    "const-vs-diminishing": ["constant-step/constant-s=100",
                             "constant-step/constant-s=500",
                             "constant-step/constant-s=1000",
                             "diminishing-step/linear-s"],
    "sampling-methods": ["constant", "linear", "quadratic", "sqrt"],
    "biased-vs-unbiased": ["unbiased", "biased_by_label"],
    "scaling-nodes": ["n=1", "n=2", "n=5"],
    "budget-sweep": ["K=1000", "K=2000", "K=4000"],
}


@pytest.mark.parametrize("name", harness.SUITES)
def test_suite_returns_its_settings(name):
    lines = harness.run_suite(name, seed=0).strip().splitlines()
    assert lines[0] == "setting,accuracy,T,K"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == SUITE_SETTINGS[name]
    assert all(0.0 <= float(row[1]) <= 1.0 for row in rows)


def test_suite_unknown_name():
    with pytest.raises(ConfigError):
        harness.run_suite("mystery-suite")


def test_schedule_table_first_row():
    prep = harness.prepare(quad_config(
        samples={"kind": "strongly_convex", "m": 7747}, steps=None, d=1))
    text = harness.schedule_table(prep, rows=3)
    lines = text.strip().splitlines()
    assert lines[0].startswith("i,s_i,sum_s")
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "16" and first[2] == "16"
    assert lines[2].split(",")[5] == "true"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def write_config(tmp_path, cfg: RunConfig) -> str:
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json())
    return str(path)


def test_cli_run_writes_metrics(tmp_path, capsys):
    path = write_config(tmp_path, quad_config())
    out = tmp_path / "metrics.json"
    code = cli.main(["run", "--config", path, "--out", str(out)])
    assert code == cli.EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["K"] == 400
    # Y_w trends down over the run
    assert doc["Y_w"][-1] < doc["Y_w"][0]


def test_cli_run_audit_pass(tmp_path):
    cfg = quad_config(samples={"kind": "strongly_convex", "m": 7747},
                      steps=None, K=200, n=2,
                      problem={"kind": "quadratic_mean"})
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", path, "--audit",
                     "--out", str(tmp_path / "m.json")]) == cli.EXIT_OK


def test_cli_run_config_error_exit_1(tmp_path, capsys):
    cfg = quad_config(K=0)
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", path]) == cli.EXIT_CONFIG
    assert "K" in capsys.readouterr().err


def test_cli_runtime_error_exit_2(tmp_path):
    cfg = quad_config(samples={"kind": "constant", "s": 100},
                      delay={"g": 2.0, "M0": 0.0, "M1": 0.0},
                      gate="tau", allow_incompatible=True, K=500)
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", path]) == cli.EXIT_RUNTIME


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_diverging_run_names_the_first_bad_apply(tmp_path, capsys):
    """eta = 3 diverges on quadratic data.  The first non-finite event in
    the server's apply order is node 1's round-495 update overflowing
    v_hat, and the error names it; node 1's non-finite round-496 update,
    shipped before that apply, comes later in apply order."""
    cfg = quad_config(dataset={"synthetic": "quadratic", "M": 200, "dim": 3,
                               "seed": 0},
                      samples={"kind": "constant", "s": 4},
                      steps={"kind": "constant", "eta": 3.0},
                      K=3000, n=2, seed=0)
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", path]) == cli.EXIT_RUNTIME
    assert capsys.readouterr().err.splitlines()[-1] == (
        "runtime error: server model non-finite after round 495 from node 1")


@pytest.mark.parametrize("field,value,fragment", [
    ("M0", 1.0, "steps: M0 must be > 1, got 1.0"),
    ("M0", 0.0, "steps: M0 must be > 1, got 0.0"),
    ("M1", -100.0, "steps: M1 must be non-negative, got -100.0")])
def test_cli_run_rejects_strongly_convex_round_out_of_domain(
        tmp_path, capsys, field, value, fragment):
    """M0 <= 1 makes ln(M0) at t = 0 zero or negative, and M1 < 0 can make
    the step sizes negative: each is a config error naming the field."""
    steps = dict({"kind": "strongly_convex_round", "mu": 1.0, "M0": 100.0,
                  "M1": 5.0}, **{field: value})
    path = write_config(tmp_path, quad_config(steps=steps))
    assert cli.main(["run", "--config", path]) == cli.EXIT_CONFIG
    assert fragment in capsys.readouterr().err


def test_cli_run_rejects_four_log_delay_undefined_at_zero(tmp_path, capsys):
    """4 ln(x + M0) at x = 0 is negative for M0 = 0.5: the config is
    refused before the run starts, and the message names the delay spec."""
    cfg = quad_config(
        dataset={"synthetic": "quadratic", "M": 1000, "dim": 3, "seed": 0},
        delay={"g": 2.0, "M0": 0.5, "M1": 60.0, "gamma": "four_log"},
        gate="lag", d=1, n=3, K=3000)
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", path]) == cli.EXIT_CONFIG
    assert "delay: four_log needs M0 > 1, got 0.5" in capsys.readouterr().err


def schedule_rows(tmp_path, capsys, rows, **overrides):
    """The data rows `schedule --config` prints for quad_config(**overrides)."""
    path = write_config(tmp_path, quad_config(**overrides))
    code = cli.main(["schedule", "--config", path, "--rows", str(rows)])
    assert code == cli.EXIT_OK
    return [line.split(",")
            for line in capsys.readouterr().out.strip().splitlines()[1:]]


def test_cli_schedule_csv(tmp_path, capsys):
    rows = schedule_rows(tmp_path, capsys, 2, steps=None,
                         samples={"kind": "strongly_convex", "m": 7747})
    assert rows[0][1] == "16"


def test_cli_schedule_bad_params(tmp_path, capsys):
    path = write_config(tmp_path,
                        quad_config(samples={"kind": "constant", "s": 0}))
    assert cli.main(["schedule", "--config", path]) == cli.EXIT_CONFIG
    assert "samples" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:  # specs come only from a config
        cli.main(["schedule", "--samples", '{"kind": "constant", "s": 5}'])
    assert exc.value.code == 2


def test_cli_schedule_from_specs(tmp_path, capsys):
    rows = schedule_rows(tmp_path, capsys, 3,
                         samples={"kind": "constant", "s": 5},
                         steps={"kind": "constant", "eta": 0.1},
                         delay=DELAY, d=1)
    assert [row[:4] for row in rows] == [["0", "5", "5", "0.1"],
                                         ["1", "5", "10", "0.1"],
                                         ["2", "5", "15", "0.1"]]
    # tau(sum_s) = M1 + sqrt(sum_s); the window ok column starts at i = d
    assert [float(row[4]) for row in rows] == pytest.approx(
        [100 + math.sqrt(5 * (i + 1)) for i in range(3)], abs=1e-6)
    assert [row[5] for row in rows] == ["", "true", "true"]


def test_cli_schedule_prints_the_rounds_the_run_uses(tmp_path, capsys):
    """The rows are rounds 0..T, at most --rows of them: a list that ends
    at round T = 2 prints three rows, and rounds past T = 1 do not print."""
    rows = schedule_rows(tmp_path, capsys, 10, K=35, samples={
        "kind": "explicit", "values": [5, 10, 20]})
    assert [row[:3] for row in rows] == [["0", "5", "5"], ["1", "10", "15"],
                                         ["2", "20", "35"]]
    rows = schedule_rows(tmp_path, capsys, 4, K=150,
                         samples={"kind": "constant", "s": 100})
    assert [row[:3] for row in rows] == [["0", "100", "100"],
                                         ["1", "100", "200"]]


def test_cli_schedule_rejects_what_run_rejects(tmp_path, capsys):
    """An incompatible schedule is a config error, as for run; with
    allow_incompatible its table shows the failing window."""
    specs = dict(samples={"kind": "power_law", "a": 5.0},
                 delay={"g": 2.0, "M0": 0.0, "M1": 10.0})
    path = write_config(tmp_path, quad_config(**specs))
    assert cli.main(["schedule", "--config", path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "fails at round 2" in err and "allow_incompatible" in err
    rows = schedule_rows(tmp_path, capsys, 4, allow_incompatible=True,
                         **specs)
    assert [row[5] for row in rows] == ["", "true", "false", "false"]


def test_cli_experiment(tmp_path):
    out = tmp_path / "suite.csv"
    code = cli.main(["experiment", "scaling-nodes", "--K", "1500",
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    assert out.read_text().startswith("setting,accuracy,T,K")


def test_cli_experiment_rejects_K_for_a_suite_that_sets_K(tmp_path, capsys):
    # every budget-sweep setting fixes its own K: --K would be ignored
    out = tmp_path / "suite.csv"
    assert cli.main(["experiment", "budget-sweep", "--K", "500",
                     "--out", str(out)]) == cli.EXIT_CONFIG
    assert "--K" in capsys.readouterr().err
    assert not out.exists()


def test_cli_audit_command(tmp_path, capsys):
    cfg = quad_config(samples={"kind": "strongly_convex", "m": 7747},
                      steps=None, K=100, n=2)
    path = write_config(tmp_path, cfg)
    assert cli.main(["audit", "--config", path]) == cli.EXIT_OK
    assert "audit passed" in capsys.readouterr().out


def test_cli_audit_without_delay_function_runs_the_lag_audit(tmp_path,
                                                            capsys):
    path = write_config(tmp_path, quad_config())
    assert cli.main(["audit", "--config", path]) == cli.EXIT_OK
    out = capsys.readouterr()
    assert "audit passed" in out.out and out.err == ""
    assert cli.main(["run", "--config", path, "--audit",
                     "--out", str(tmp_path / "m.json")]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""


def test_cli_audit_lag_violation_exit_3(tmp_path, capsys, monkeypatch):
    """A trace whose last gradient claims a model d + 1 rounds behind its
    round fails the lag audit."""
    execute = harness.execute

    def stale_last_record(*args, **kwargs):
        prep, result, metrics, opt = execute(*args, **kwargs)
        rec = result.trace.records
        rec.bcast_id[-1] = rec.i[-1] - prep.config.d - 1
        return prep, result, metrics, opt

    monkeypatch.setattr(harness, "execute", stale_last_record)
    path = write_config(tmp_path, quad_config())
    assert cli.main(["audit", "--config", path]) == cli.EXIT_AUDIT
    out = capsys.readouterr()
    assert "lag rule violated" in out.err and "audit passed" not in out.out


def test_cli_audit_tau_gate(tmp_path, capsys):
    cfg = quad_config(samples={"kind": "strongly_convex", "m": 7747},
                      steps=None, gate="tau", K=3000, n=3)
    path = write_config(tmp_path, cfg)
    assert cli.main(["audit", "--config", path]) == cli.EXIT_OK
    out = capsys.readouterr()
    assert "audit passed" in out.out and out.err == ""


def test_cli_audit_violation_exit_3(tmp_path, capsys):
    # the lag gate ignores tau(x) = sqrt(x), which these rounds outgrow
    cfg = quad_config(samples={"kind": "constant", "s": 100},
                      delay={"g": 2.0, "M0": 0.0, "M1": 0.0},
                      allow_incompatible=True, K=1000)
    path = write_config(tmp_path, cfg)
    assert cli.main(["audit", "--config", path]) == cli.EXIT_AUDIT
    assert "staleness contract violated" in capsys.readouterr().err
    out = tmp_path / "m.json"
    assert cli.main(["run", "--config", path, "--audit",
                     "--out", str(out)]) == cli.EXIT_AUDIT
    assert "staleness contract violated" in capsys.readouterr().err
    assert not out.exists()  # a failed audit writes no metrics


def test_cli_audit_gate_invariant_violation_exit_3(tmp_path, capsys):
    """The lag gate lets two gradients at t_glob = 8 run on the initial
    model, t_delay = 9 > tau(8) = 8.83, so the gate invariant fails; the
    staleness contract asks only for updates below 8 - ceil(8.83) < 0,
    so the consistency audit passes."""
    cfg = quad_config(dataset={"synthetic": "quadratic", "M": 200, "dim": 3,
                               "seed": 0},
                      samples={"kind": "constant", "s": 5},
                      delay={"g": 2.0, "M0": 0.0, "M1": 6.0},
                      allow_incompatible=True, K=600, n=2, seed=0)
    path = write_config(tmp_path, cfg)
    assert cli.main(["audit", "--config", path]) == cli.EXIT_AUDIT
    err = capsys.readouterr().err
    assert "gate invariant violated" in err
    assert "staleness contract" not in err


def test_cli_grid_fails_when_every_point_fails(tmp_path, capsys):
    # tau(0) = 0 blocks every node's first gradient, whatever the step size
    cfg = quad_config(dataset={"synthetic": "quadratic", "M": 200, "dim": 3,
                               "seed": 0},
                      samples={"kind": "constant", "s": 100},
                      steps={"kind": "constant", "eta": 0.1},
                      delay={"g": 2.0, "M0": 0.0, "M1": 0.0}, gate="tau",
                      allow_incompatible=True, K=1000, n=2)
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", path, "--grid"]) == cli.EXIT_RUNTIME
    assert "runtime error: every grid point failed" in capsys.readouterr().err


def test_cli_optimum(tmp_path, capsys):
    path = write_config(tmp_path, quad_config())
    assert cli.main(["optimum", "--config", path]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["exact"]
    assert doc["grad_norm"] <= 1e-12


def logistic_config(**overrides) -> RunConfig:
    return quad_config(**{
        "problem": {"kind": "logistic_ridge"},
        "dataset": {"synthetic": "logistic", "M": 200, "dim": 4, "seed": 0},
        **overrides})


def test_cli_optimum_logistic_is_certified(tmp_path, capsys):
    path = write_config(tmp_path, logistic_config())
    assert cli.main(["optimum", "--config", path]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["exact"] and doc["grad_norm"] <= problems.OPTIMUM_TOL
    assert set(doc) == {"w_star", "F_star", "N", "grad_norm", "exact"}


@pytest.mark.parametrize("command", ["run", "optimum"])
def test_cli_rejects_optimum_budget_field(tmp_path, capsys, command):
    path = write_raw_config(tmp_path, optimum_budget=200000)
    assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
    assert "optimum_budget" in capsys.readouterr().err


@pytest.mark.parametrize("command,problem", [
    ("run", "quadratic_mean"), ("run", "logistic_ridge"),
    ("run", "logistic_plain"), ("optimum", "logistic_ridge")])
def test_cli_rejects_libsvm_file_without_features(tmp_path, capsys, command,
                                                  problem):
    data_path = tmp_path / "labels.libsvm"
    data_path.write_text("1\n0\n1\n0\n")
    path = write_raw_config(tmp_path, problem={"kind": problem},
                            dataset={"path": str(data_path)})
    assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
    assert "one feature column" in capsys.readouterr().err


def test_cli_optimum_has_no_budget_option(tmp_path):
    path = write_config(tmp_path, quad_config())
    with pytest.raises(SystemExit) as exc:
        cli.main(["optimum", "--config", path, "--budget", "5"])
    assert exc.value.code == 2


def test_cli_run_rejects_test_dataset_dim_before_running(tmp_path, capsys,
                                                         monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("engine.run must not be reached")
    monkeypatch.setattr(engine, "run", no_run)
    cfg = logistic_config(test_dataset={"synthetic": "logistic", "M": 100,
                                        "dim": 6, "seed": 1})
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "test_dataset has 6 features, dataset has 4" in err


def test_cli_optimum_has_no_seed_option(tmp_path):
    path = write_config(tmp_path, quad_config())
    with pytest.raises(SystemExit) as exc:
        cli.main(["optimum", "--config", path, "--seed", "3"])
    assert exc.value.code == 2


def write_raw_config(tmp_path, **fields) -> str:
    """quad_config's JSON with fields set to raw JSON values, unchecked."""
    doc = json.loads(quad_config().to_json())
    doc.update(fields)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_run_rejects_backend_field(tmp_path, capsys):
    path = write_raw_config(tmp_path, backend="threaded")
    assert cli.main(["run", "--config", path]) == cli.EXIT_CONFIG
    assert "backend" in capsys.readouterr().err


def test_cli_run_has_no_backend_option(tmp_path):
    path = write_config(tmp_path, quad_config())
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--config", path, "--backend", "threaded"])
    assert exc.value.code == 2


@pytest.mark.parametrize("field,value", [
    ("K", "100"), ("n", "2"), ("d", None), ("checkpoint_interval", "x"),
    ("samples", [1]), ("problem", None), ("seed", "a"),
    ("K", 100.0), ("n", True), ("allow_incompatible", 1),
])
def test_cli_run_rejects_mistyped_field(tmp_path, capsys, field, value):
    path = write_raw_config(tmp_path, **{field: value})
    assert cli.main(["run", "--config", path]) == cli.EXIT_CONFIG
    assert repr(field) in capsys.readouterr().err


def test_cli_run_rejects_a_config_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("[1, 2]")
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG
    assert "config must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("fields,fragment", [
    (dict(steps={"kind": "inverse_t", "beta": 0.01}),
     "missing required steps field 'eta0'"),
    (dict(samples={"kind": "constant"}),
     "missing required samples field 's'"),
    (dict(samples={"s": 20}), "missing required samples field 'kind'"),
    (dict(delay={"M0": 0.0, "M1": 100.0}),
     "missing required delay field 'g'"),
    (dict(samples={"kind": "constant", "s": "x"}),
     "samples field 's' must be an integer, got a string"),
    (dict(steps=dict(STEPS, eta0="a")),
     "steps field 'eta0' must be a number, got a string"),
    (dict(delay=dict(DELAY, g="x")),
     "delay field 'g' must be a number, got a string"),
    (dict(problem={"kind": "logistic_ridge", "lam": "x"}),
     "problem field 'lam' must be a number or null, got a string"),
    (dict(samples={"kind": "constant", "s": 10.7}),
     "samples field 's' must be an integer, got a number"),
    (dict(dataset={"synthetic": "quadratic", "M": "100", "dim": 3}),
     "dataset field 'M' must be an integer, got a string"),
    (dict(dataset={"synthetic": "quadratic", "M": 100.9, "dim": 3}),
     "dataset field 'M' must be an integer, got a number"),
    (dict(steps=dict(STEPS, mode="per_iter")),
     "steps: unknown mode 'per_iter'"),
    (dict(steps={"kind": "constant", "eta": 0.1, "mode": "per_iteration"}),
     "unknown steps field 'mode'"),
    (dict(samples={"kind": "strongly_convex", "m": 7747},
          steps={"kind": "strongly_convex_round", "mu": 1.0, "M0": 100.0,
                 "M1": 5.0, "mode": "per_iteration"}),
     "unknown steps field 'mode'"),
    (dict(steps=dict(STEPS, bogus=1)), "unknown steps field 'bogus'"),
    (dict(samples={"kind": "explicit", "values": "99999"}),
     "samples field 'values' must be an array, got a string"),
    (dict(dataset={"path": 3}),
     "dataset field 'path' must be a string, got an integer"),
    (dict(dataset={"synthetic": "quadratic", "M": 100, "dim": 0}),
     "dataset: dim must be >= 1, got 0"),
    (dict(dataset={"synthetic": "logistic", "M": 100, "dim": 0}),
     "dataset: dim must be >= 1, got 0"),
    (dict(samples={"kind": "power_law", "a": 1, "c": 1000}, K=100000),
     "sample size s_2 exceeds 2**63 - 1"),
    # json.loads reads 1e400 as inf, and NaN as nan
    (dict(steps=dict(STEPS, beta=math.inf)),
     "steps field 'beta' must be finite, got inf"),
    (dict(steps=dict(STEPS, eta0=math.nan)),
     "steps field 'eta0' must be finite, got nan"),
    (dict(samples={"kind": "constant", "s": 5, "d": 1}),
     "unknown samples field 'd'"),
    (dict(deterministic_split=True),
     "unknown config field 'deterministic_split'"),
    # n is checked against the samples before any length-n array is built
    (dict(n=2 ** 62), f"n={2 ** 62} nodes for 150 samples"),
    (dict(n=2, p=[[0.25, 0.25], [0.25, 0.25]]),
     "p must be a length-n probability vector"),
    (dict(n=2, p=["a", "b"]), "p must be a length-n probability vector"),
    (dict(n=2, p=[[0.5], [0.5]]), "p must be a length-n probability vector"),
    (dict(n=2, p=[math.nan, 1.0]), "p must be a length-n probability vector"),
    # about 10**7 empty rounds come before the first sample
    (dict(samples={"kind": "matched_power", "g": 1.0000001}, K=10000),
     "rounds 0..10000 hold fewer than K=10000 samples"),
    # every round is empty
    (dict(samples={"kind": "matched_power", "g": 2.0, "d": 10 ** 11}),
     "rounds 0..400 hold fewer than K=400 samples"),
    (dict(samples={"kind": "power_law", "a": 0.0, "b": 1e-300}),
     "rounds 0..400 hold fewer than K=400 samples"),
    # F(w*) overflows
    (dict(dataset={"synthetic": "quadratic", "M": 150, "dim": 3,
                   "scale": 1e160}),
     "config error: objective is non-finite at the optimum"),
    # a 21.3 PiB data set, which no host allocates
    (dict(dataset={"synthetic": "quadratic", "M": 10 ** 15, "dim": 3}),
     "config error: Unable to allocate"),
    (dict(delay=dict(DELAY, gamma="two")), "unknown gamma kind 'two'"),
    (dict(samples={"kind": "power_law", "a": 0, "b": 0}),
     "power-law schedule is identically zero"),
    (dict(samples={"kind": "explicit", "values": [0, 200]}),
     "explicit schedule needs integer values >= 1"),
    (dict(steps={"kind": "inverse_sqrt_t", "eta0": 0, "beta": 0.01}),
     "steps: eta0 and beta must be positive"),
    (dict(steps={"kind": "strongly_convex_round", "mu": 0, "M0": 100.0,
                 "M1": 5.0}),
     "steps: mu must be positive"),
    (dict(partition="by_magic"), "unknown partition mode 'by_magic'"),
    # 200 * 0.001 rounds to no sample for node 2
    (dict(n=2, p=[0.999, 0.001],
          dataset={"synthetic": "quadratic", "M": 200, "dim": 3}),
     "unbiased partitioning of 200 samples leaves a node with none"),
    # a run would draw the 10**15 slots of round 0 to count them
    (dict(samples={"kind": "constant", "s": 10 ** 15}),
     "round T=0 holds more than 2**30 slots past K=400"),
])
def test_cli_run_rejects_bad_nested_spec(tmp_path, capsys, fields,
                                         fragment):
    path = write_raw_config(tmp_path, **fields)
    assert cli.main(["run", "--config", path]) == cli.EXIT_CONFIG
    assert fragment in capsys.readouterr().err


EXPLICIT = {"kind": "explicit", "values": [3, 5, 4, 6, 7, 5, 8, 6, 9, 7]}


@pytest.mark.parametrize("delay", [None, DELAY])
def test_cli_run_explicit_schedule_shorter_than_table(tmp_path, delay):
    """Ten values cover K=30 with rounds to spare; the table ends at the
    budget's round T, before the values end."""
    path = write_raw_config(tmp_path, samples=EXPLICIT, K=30, n=2,
                            delay=delay)
    assert cli.main(["run", "--config", path,
                     "--out", str(tmp_path / "m.json")]) == cli.EXIT_OK


@pytest.mark.parametrize("gate", [engine.GATE_LAG, engine.GATE_TAU])
@pytest.mark.parametrize("samples,K", [
    (EXPLICIT, 60), (EXPLICIT, 55), ({"kind": "explicit",
                                      "values": [10, 10, 10]}, 30)])
def test_cli_run_explicit_schedule_ending_at_K(tmp_path, samples, K, gate):
    """The values just cover K, so the table ends at them: a node that
    ships its last row stops while other nodes still hold slots, and the
    run still makes K gradients and passes both audits."""
    for n in (2, 3, 5):
        for seed in range(4):
            out = tmp_path / "m.json"
            path = write_raw_config(
                tmp_path, samples=samples, K=K, n=n, seed=seed, gate=gate,
                delay=DELAY, steps={"kind": "constant", "eta": 0.1},
                dataset={"synthetic": "quadratic", "M": 200, "dim": 3,
                         "seed": 0})
            assert cli.main(["run", "--config", path, "--audit",
                             "--out", str(out)]) == cli.EXIT_OK
            assert json.loads(out.read_text())["K"] == K


def test_cli_run_explicit_schedule_must_cover_K(tmp_path, capsys):
    path = write_raw_config(tmp_path, samples=EXPLICIT, K=61, n=2)
    assert cli.main(["run", "--config", path]) == cli.EXIT_CONFIG
    assert "explicit schedule has no round 10: its values sum to less " \
        "than K" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# a run ends where its budget ends
# ---------------------------------------------------------------------------

def assert_completes(cfg: RunConfig) -> None:
    """execute makes K gradients, no node steps past the table's last row
    and both trace audits pass."""
    prep, res, _metrics, _opt = harness.execute(cfg, record_trace=True,
                                                with_optimum=False)
    assert res.grads == cfg.K
    assert max(res.rounds_completed.values()) <= prep.table.rounds
    assert engine.audit_consistency(res.trace, prep.delay_fn) == (True, None)
    assert engine.audit_gate_invariant(res.trace, prep.delay_fn) == \
        (True, None)


def sc_quad_config(M: int, **overrides) -> RunConfig:
    return quad_config(**dict(
        dataset={"synthetic": "quadratic", "M": M, "dim": 3, "seed": 0},
        samples={"kind": "strongly_convex", "m": 7747}, steps=None, d=1,
        checkpoint_interval=0) | overrides)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("gate", [engine.GATE_LAG, engine.GATE_TAU])
def test_hundred_nodes_complete(gate, seed):
    """About 16 slots a round over 100 nodes: most rounds are empty for
    most nodes, which skip them without an event or a message."""
    assert_completes(sc_quad_config(1000, n=100, K=10000, gate=gate,
                                    seed=seed))


@pytest.mark.parametrize("K", [8000, 20000])
@pytest.mark.parametrize("n", [2, 5])
def test_tau_gate_runs_ahead_and_completes(n, K):
    """The tau gate bounds staleness in iterations, not rounds, so nodes
    run many rounds ahead of the last broadcast."""
    for seed in range(6):
        assert_completes(sc_quad_config(500, n=n, K=K, gate=engine.GATE_TAU,
                                        seed=seed))


@st.composite
def compatible_configs(draw) -> RunConfig:
    """A quadratic config whose delay function is compatible with its
    sample schedule over rounds d..T."""
    n = draw(st.integers(1, 100))
    d = draw(st.integers(0, 2))
    K = draw(st.integers(1, 2000))
    kind = draw(st.sampled_from([schedules.CONSTANT, schedules.POWER_LAW,
                                 harness.STRONGLY_CONVEX]))
    delay = None
    if kind == harness.STRONGLY_CONVEX:
        samples = {"kind": kind, "m": draw(st.integers(100, 8000))}
    else:
        if kind == schedules.CONSTANT:
            samples = {"kind": kind, "s": draw(st.integers(1, 60))}
        else:
            samples = {"kind": kind, "a": draw(st.floats(0.5, 10.0)),
                       "b": float(draw(st.integers(0, 5))),
                       "c": draw(st.sampled_from([0.5, 1.0]))}
        sched = harness.build_spec("samples", harness.SAMPLES, samples)
        P = sched.prefix_sums(schedules.rounds_for_budget(sched, K) + 1)
        window = max(P[i + 1] - P[max(i - d, 0)] for i in range(len(P) - 1))
        delay = {"g": draw(st.floats(1.5, 3.0)), "M0": 0.0,
                 "M1": float(window + 1 + draw(st.integers(0, 30)))}
    mode = draw(st.sampled_from([schedules.PER_ROUND,
                                 schedules.PER_ITERATION]))
    return RunConfig(
        problem={"kind": "quadratic_mean"},
        dataset={"synthetic": "quadratic", "M": draw(st.integers(n, 300)),
                 "dim": draw(st.integers(1, 3)), "seed": draw(
                     st.integers(0, 9))},
        samples=samples, delay=delay, K=K, n=n, d=d,
        steps={"kind": schedules.INVERSE_T, "eta0": 0.1, "beta": 0.01,
               "mode": mode},
        gate=draw(st.sampled_from([engine.GATE_LAG, engine.GATE_TAU])),
        seed=draw(st.integers(0, 2 ** 16)), checkpoint_interval=0)


@settings(max_examples=100, deadline=None)
@given(cfg=compatible_configs())
def test_any_compatible_config_completes(cfg):
    assert_completes(cfg)


@settings(max_examples=60, deadline=None)
@given(cfg=compatible_configs())
def test_only_cells_with_work_send_messages(cfg):
    """Over gate, step mode and schedule kind with up to 100 nodes: the
    messages are the non-empty (node, round) cells the nodes shipped, and
    in every completed round the stamp is -1 exactly for the empty cells."""
    prep = harness.prepare(cfg)
    res = harness.run_prepared(prep, record_trace=True)
    counts = prep.table.counts()
    assert res.messages == sum(int(np.count_nonzero(counts[:r, c]))
                               for c, r in res.rounds_completed.items())
    done = slice(0, res.k_final)
    assert np.array_equal(res.trace.stamp[done, 1:] == -1,
                          counts[done, 1:] == 0)


def json_kind(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {type(None): "null", str: "string", list: "array",
            dict: "object"}[type(value)]


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5),
    st.floats(-5, 5, allow_nan=False), st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cli_run_mutated_nested_spec_exits_0_or_1(tmp_path_factory, data):
    """Any nested spec with a key dropped, an unknown key added or a value
    swapped for another JSON type exits 0 or 1, never with a traceback."""
    doc = json.loads(quad_config(K=40, delay=DELAY).to_json())
    what = data.draw(st.sampled_from(
        ["problem", "dataset", "samples", "steps", "delay"]))
    spec = doc[what]
    action = data.draw(st.sampled_from(["drop", "add", "swap"]))
    if action == "add":
        spec[data.draw(st.text(min_size=1, max_size=4).filter(
            lambda k: k not in spec))] = data.draw(JSON_VALUES)
    else:
        key = data.draw(st.sampled_from(sorted(spec)))
        if action == "drop":
            del spec[key]
        else:
            spec[key] = data.draw(JSON_VALUES.filter(
                lambda v: json_kind(v) != json_kind(spec[key])))
    tmp = tmp_path_factory.mktemp("mutated")
    path = tmp / "config.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["run", "--config", str(path),
                     "--out", str(tmp / "m.json")])
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG)


# (spec, a valid spec, the number fields to vary in it)
NUMBER_FIELDS = [
    ("dataset", {"synthetic": "quadratic", "M": 150, "dim": 3, "seed": 0,
                 "scale": 1.0}, ["M", "dim", "seed", "scale"]),
    ("dataset", {"synthetic": "logistic", "M": 150, "dim": 3, "seed": 0,
                 "separation": 2.0, "noise": 1.5},
     ["M", "dim", "seed", "separation", "noise"]),
    ("samples", {"kind": "constant", "s": 20}, ["s"]),
    ("samples", {"kind": "power_law", "a": 5.0, "b": 1.0, "c": 1.0},
     ["a", "b", "c"]),
    ("samples", {"kind": "matched_power", "g": 2.0, "m": 0, "d": 0},
     ["g", "m", "d"]),
    ("samples", {"kind": "matched_log", "m": 100, "d": 0}, ["m", "d"]),
    ("samples", {"kind": "strongly_convex", "m": 7747}, ["m"]),
    ("steps", {"kind": "constant", "eta": 0.1}, ["eta"]),
    ("steps", STEPS, ["eta0", "beta"]),
    ("steps", {"kind": "strongly_convex_round", "mu": 1.0, "M0": 100.0,
               "M1": 5.0}, ["mu", "M0", "M1"]),
    ("delay", DELAY, ["g", "M0", "M1"]),
    ("problem", {"kind": "logistic_ridge", "lam": 0.01}, ["lam"]),
]
# Small valid values, 0, negatives, 10**15..10**30, 1e-300 and 1e15..1e300,
# and nothing between about 10**6 and 10**15: a data set of 10**15 rows is
# refused at once, while 10**8 rows would be allocated and filled
SPEC_NUMBERS = st.one_of(
    st.integers(1, 20), st.floats(0.5, 10.0), st.sampled_from([0, 0.0]),
    st.integers(-10 ** 30, -1), st.floats(-1e300, -1e-300),
    st.integers(10 ** 15, 10 ** 30), st.just(1e-300),
    st.floats(1e15, 1e300))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_cli_run_out_of_range_spec_number_exits_cleanly(tmp_path_factory,
                                                        data):
    """Any number in any nested spec ends in exit code 0, 1 or 2, never
    in a traceback: too large, zero, negative, tiny or huge."""
    what, spec, fields = data.draw(st.sampled_from(NUMBER_FIELDS))
    name = data.draw(st.sampled_from(fields))
    doc = json.loads(quad_config(K=data.draw(st.integers(1, 500)),
                                 n=data.draw(st.integers(1, 3))).to_json())
    doc[what] = dict(spec, **{name: data.draw(SPEC_NUMBERS)})
    tmp = tmp_path_factory.mktemp("number")
    path = tmp / "config.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["run", "--config", str(path),
                     "--out", str(tmp / "m.json")])
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_RUNTIME)


def test_prepare_evaluates_the_schedule_only_up_to_T():
    """prepare caches the sample sizes up to the budget's round T and no
    further, and never evaluates a round past T."""
    prep = harness.prepare(quad_config(
        samples={"kind": "strongly_convex", "m": 7747}, steps=None, K=1000))
    T = prep.table.rounds - 1
    assert T == 58
    assert len(prep.samples._cum) == T + 2
    # s_0 = 0, s_1 = 1 and s_2 = 2**1000, which no int64 holds; K = 1
    # ends at T = 1
    prep = harness.prepare(quad_config(
        samples={"kind": "power_law", "a": 1.0, "c": 1000.0}, K=1))
    assert prep.table.rounds == 2
    assert prep.samples._cum == [0, 0, 1]
    # a list far longer than the budget needs is walked only up to T = 19
    prep = harness.prepare(quad_config(
        samples={"kind": "explicit", "values": [5] * 10 ** 6}, K=100))
    assert prep.table.rounds == 20
    assert len(prep.samples._cum) == 21


def test_strongly_convex_reads_L_from_the_data_set():
    """The derived M1 = max{d + 2, 72 L / mu, s_0 / 2} takes L from the
    data set: logistic L = max ||[x; 1]||^2 / 4 + lambda."""
    cfg = quad_config(problem={"kind": "logistic_ridge", "lam": 0.01},
                      dataset={"synthetic": "logistic", "M": 300, "dim": 4,
                               "seed": 2},
                      samples={"kind": "strongly_convex", "m": 7747},
                      steps=None, K=1000)
    prep = harness.prepare(cfg)
    mu, L = problems.smoothness_constants(prep.problem, prep.dataset)
    assert mu == 0.01 and L > 1.0
    df, _samples, steps = schedules.make_strongly_convex_schedules(
        mu=mu, L=L, d=cfg.d, m=7747)
    assert prep.delay_fn.M1 == df.M1 == 72.0 * L / mu
    assert prep.steps == steps


def test_readme_config_prepares():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = RunConfig.from_json(block)
    prep = harness.prepare(cfg)
    assert prep.problem.kind == problems.LOGISTIC_RIDGE
    assert prep.samples == schedules.SampleSchedule.power_law(50.0, c=1.0)
    assert prep.steps == schedules.StepSchedule.inverse_t(0.1, 0.001)


def write_near_1e4(tmp_path):
    """Six LIBSVM samples with features near 1e4."""
    rows = [(0, 9999, 10004), (1, 9999, 9998), (1, 10003, 9996),
            (0, 9999, 9998), (0, 9996, 10002), (1, 10004, 10003)]
    data = tmp_path / "near-1e4.libsvm"
    data.write_text("".join(f"{2 * y - 1} 1:{a} 2:{b}\n" for y, a, b in rows))
    return data


def test_metrics_json_says_whether_the_optimum_is_certified(tmp_path):
    """The README config measures against a certified optimum; six
    samples with features near 1e4 and lambda = 1e-12 leave the Newton
    solve short of its certificate, and the metrics JSON says so."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    data = write_near_1e4(tmp_path)
    configs = {
        True: RunConfig.from_json(readme.split("```json\n", 1)[1]
                                  .split("```", 1)[0]),
        False: quad_config(problem={"kind": "logistic_ridge", "lam": 1e-12},
                           dataset={"path": str(data)},
                           steps={"kind": "constant", "eta": 1e-9}, K=100)}
    for exact, cfg in configs.items():
        out = tmp_path / "metrics.json"
        assert cli.main(["run", "--config", write_config(tmp_path, cfg),
                         "--out", str(out)]) == cli.EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["optimum_exact"] is exact
        assert (doc["optimum_grad_norm"] <= problems.OPTIMUM_TOL) is exact


def test_cli_run_overflowing_margins_warn_nothing(tmp_path):
    """Margins beyond -709 overflow e^-z to inf, the correct sigmoid 0; a
    run that gets there exits 0 under the RuntimeWarning-as-error filter."""
    data = write_near_1e4(tmp_path)
    cfg = quad_config(problem={"kind": "logistic_ridge", "lam": 1e-12},
                      dataset={"path": str(data)},
                      steps={"kind": "inverse_t", "eta0": 0.1, "beta": 0.01})
    assert cli.main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "m.json")]) == cli.EXIT_OK


def test_cli_trace_file(tmp_path):
    cfg = quad_config(K=60, samples={"kind": "constant", "s": 10})
    path = write_config(tmp_path, cfg)
    trace_path = tmp_path / "trace.jsonl"
    assert cli.main(["run", "--config", path, "--trace", str(trace_path),
                     "--out", str(tmp_path / "m.json")]) == cli.EXIT_OK
    lines = trace_path.read_text().strip().splitlines()
    assert len(lines) == 60
    prep, result, _metrics, _opt = harness.execute(cfg, record_trace=True,
                                                   with_optimum=False)
    columns = {"c": "c", "i": "i", "h": "h", "eta": "eta",
               "t_glob": "t_glob", "t_delay": "t_delay", "bcast": "bcast_id",
               "acc_round": "acc_round"}
    for line, rec in zip(lines, result.trace.records):
        doc = json.loads(line)
        assert set(doc) == {"t"} | set(columns)
        for key, column in columns.items():
            assert doc[key] == rec[column]
            assert type(doc[key]) is (float if key == "eta" else int)
        assert doc["t"] == engine.rho(prep.table, rec.c, rec.i, rec.h)


def test_cli_run_seed_overrides_config_seed(tmp_path):
    def y_f(seed, *args):
        (tmp_path / f"{seed}").mkdir(exist_ok=True)
        path = write_config(tmp_path / f"{seed}", quad_config(seed=seed))
        out = tmp_path / "m.json"
        assert cli.main(["run", "--config", path, "--out", str(out),
                         *args]) == cli.EXIT_OK
        return json.loads(out.read_text())["Y_F"]
    assert y_f(1, "--seed", "3") == y_f(3)
    assert y_f(1, "--seed", "3") != y_f(1)


def test_cli_run_libsvm_dataset(tmp_path):
    gen = np.random.default_rng(0)
    lines = [f"{'+1' if x[0] + x[1] > 0 else '-1'} "
             + " ".join(f"{j}:{v:.4f}" for j, v in enumerate(x, start=1))
             for x in gen.normal(size=(60, 3))]
    data_path = tmp_path / "small.libsvm"
    data_path.write_text("\n".join(lines) + "\n")
    cfg = quad_config(problem={"kind": "logistic_ridge"},
                      dataset={"path": str(data_path)}, K=200)
    out = tmp_path / "m.json"
    assert cli.main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == cli.EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["K"] == 200
    assert 0.5 < doc["accuracy"] <= 1.0


GRID_CONFIG = dict(
    problem={"kind": "quadratic_mean"},
    dataset={"synthetic": "quadratic", "M": 500, "dim": 5, "seed": 0},
    samples={"kind": "constant", "s": 50}, steps=None, K=3000, n=3, seed=0)


def test_cli_grid_selects_lowest_objective(tmp_path, capsys):
    path = write_config(tmp_path, quad_config(**GRID_CONFIG))
    assert cli.main(["run", "--config", path, "--grid",
                     "--out", str(tmp_path / "m.json")]) == cli.EXIT_OK
    assert "grid search selected eta0=0.0003" in capsys.readouterr().err


def test_cli_grid_rejects_schedule_without_step_size(tmp_path, capsys):
    cfg = quad_config(**dict(GRID_CONFIG, samples={"kind": "strongly_convex",
                                                   "m": 7747}))
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", path, "--grid"]) == cli.EXIT_CONFIG
    assert "strongly_convex_round" in capsys.readouterr().err


def test_grid_search_keeps_the_given_steps_spec():
    steps = {"kind": "inverse_sqrt_t", "eta0": 0.5, "beta": 0.02,
             "mode": "per_iteration"}
    best = cli._grid_search(quad_config(steps=steps))
    assert {k: v for k, v in best.steps.items() if k != "eta0"} == \
        {"kind": "inverse_sqrt_t", "beta": 0.02, "mode": "per_iteration"}
    assert best.steps["eta0"] in cli.DEFAULT_GRID
    assert steps["eta0"] == 0.5  # the input config is not modified
