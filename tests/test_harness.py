"""Config validation, metrics, suites, and the CLI surface."""

import json

import numpy as np
import pytest

from asyncsgd import cli, harness, problems, schedules
from asyncsgd.harness import ConfigError, RunConfig


def quad_config(**overrides) -> RunConfig:
    base = dict(
        problem={"kind": "quadratic_mean"},
        dataset={"synthetic": "quadratic", "M": 150, "dim": 3, "seed": 0},
        samples={"kind": "constant", "s": 20},
        steps={"kind": "inverse_t", "eta0": 0.1, "beta": 0.01},
        K=400, n=2, seed=1)
    base.update(overrides)
    return RunConfig(**base)


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
])
def test_prepare_validation_errors(overrides, fragment):
    with pytest.raises(ConfigError, match=fragment):
        harness.prepare(quad_config(**overrides))


def test_prepare_rejects_budget_below_s0():
    with pytest.raises(ConfigError, match="s_0"):
        harness.prepare(quad_config(
            samples={"kind": "strongly_convex", "m": 7747}, K=10))


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
    # and directly from the checkpoint models
    for (k, t, w), yw in zip(result.checkpoints, metrics.Y_w):
        assert float(np.sum((w - opt.w_star) ** 2)) == pytest.approx(
            yw, rel=1e-9, abs=1e-15)


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


def test_metrics_json_serializes():
    cfg = quad_config()
    _prep, _res, metrics, _opt = harness.execute(cfg)
    doc = json.loads(metrics.to_json())
    assert doc["K"] == cfg.K
    assert len(doc["Y_w"]) == len(doc["t"])


def test_accuracy_threshold():
    ds = harness.build_dataset({"synthetic": "logistic", "M": 400, "dim": 4,
                                "seed": 3, "separation": 4.0, "noise": 0.5})
    prob = harness.build_problem({"kind": "logistic_ridge"}, ds)
    info = problems.find_optimum(prob, ds, budget=50000)
    acc = harness.accuracy(prob, info.w_star, ds)
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


def test_suite_unknown_name():
    with pytest.raises(ConfigError):
        harness.run_suite("mystery-suite")


def test_schedule_table_first_row():
    df, sam, st = schedules.make_strongly_convex_schedules(1.0, 1.0, 1, 7747)
    text = harness.schedule_table(sam, st, df, d=1, rows=3)
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
    cfg = quad_config(samples={"kind": "strongly_convex", "m": 7747}, K=10)
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", path]) == cli.EXIT_CONFIG
    assert "K" in capsys.readouterr().err


def test_cli_runtime_error_exit_2(tmp_path):
    cfg = quad_config(samples={"kind": "constant", "s": 100},
                      delay={"g": 2.0, "M0": 0.0, "M1": 0.0},
                      gate="tau", allow_incompatible=True, K=500)
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", path]) == cli.EXIT_RUNTIME


def test_cli_schedule_csv(capsys):
    code = cli.main(["schedule", "--strongly-convex", "--rows", "2"])
    assert code == cli.EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1].split(",")[1] == "16"


def test_cli_schedule_bad_params(capsys):
    assert cli.main(["schedule", "--samples", '{"kind": "constant", "s": 0}',
                     "--steps", '{"kind": "constant", "eta": 0.1}']) == \
        cli.EXIT_CONFIG


def test_cli_experiment(tmp_path):
    out = tmp_path / "suite.csv"
    code = cli.main(["experiment", "budget-sweep", "--K", "1500",
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    assert out.read_text().startswith("setting,accuracy,T,K")


def test_cli_audit_command(tmp_path, capsys):
    cfg = quad_config(samples={"kind": "strongly_convex", "m": 7747},
                      steps=None, K=100, n=2)
    path = write_config(tmp_path, cfg)
    assert cli.main(["audit", "--config", path]) == cli.EXIT_OK
    assert "audit passed" in capsys.readouterr().out


def test_cli_optimum(tmp_path, capsys):
    path = write_config(tmp_path, quad_config())
    assert cli.main(["optimum", "--config", path, "--budget", "0"]) == \
        cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["exact"]
    assert doc["grad_norm"] <= 1e-12


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


def test_cli_trace_file(tmp_path):
    cfg = quad_config(K=60, samples={"kind": "constant", "s": 10})
    path = write_config(tmp_path, cfg)
    trace_path = tmp_path / "trace.jsonl"
    assert cli.main(["run", "--config", path, "--trace", str(trace_path),
                     "--out", str(tmp_path / "m.json")]) == cli.EXIT_OK
    lines = trace_path.read_text().strip().splitlines()
    assert len(lines) == 60
    rec = json.loads(lines[0])
    assert {"t", "c", "i", "h", "eta"} <= set(rec)
