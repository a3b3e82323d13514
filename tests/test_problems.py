"""Gradient/loss correctness and the curvature constants."""

import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asyncsgd import cli, problems, rng
from asyncsgd.data import DataSet
from asyncsgd.problems import (Problem, grad, loss, objective, full_gradient,
                               variance_constant, smoothness_constants,
                               find_optimum)


def small_dataset(kind: str, M: int = 40, d_feat: int = 3,
                  seed: int = 11) -> DataSet:
    gen = rng.stream(seed, "test-problems")
    X = gen.normal(size=(M, d_feat))
    y = (X @ gen.normal(size=d_feat) + 0.2 * gen.normal(size=M) > 0)
    return DataSet(X=X, y=y.astype(np.int8))


PROBLEMS = {
    "quadratic": (Problem.quadratic_mean(3), 3),
    "plain": (Problem.logistic_plain(3), 4),
    "ridge": (Problem.logistic_ridge(3, lam=0.1), 4),
}


# ---------------------------------------------------------------------------
# pointwise examples
# ---------------------------------------------------------------------------

def test_grad_quadratic_is_w_minus_xi():
    p = Problem.quadratic_mean(2)
    g = grad(p, np.zeros(2), np.array([1.0, 2.0]), 0.0)
    assert np.array_equal(g, np.array([-1.0, -2.0]))


def test_grad_logistic_at_zero():
    x = np.array([2.0, -1.0, 0.5])
    p = Problem.logistic_plain(3)
    g = grad(p, np.zeros(4), x, 1.0)
    assert np.allclose(g, -0.5 * np.append(x, 1.0))
    pr = Problem.logistic_ridge(3, lam=0.1)
    g0 = grad(pr, np.zeros(4), x, 0.0)
    assert np.allclose(g0, 0.5 * np.append(x, 1.0))  # lam*w vanishes at 0


def test_loss_at_zero_is_ln2():
    x = np.array([3.0, -2.0])
    assert loss(Problem.logistic_plain(2), np.zeros(3), x, 1.0) == \
        pytest.approx(math.log(2.0))
    assert loss(Problem.logistic_ridge(2, lam=1.0), np.zeros(3), x, 0.0) == \
        pytest.approx(math.log(2.0))


def test_grad_dimension_mismatch():
    with pytest.raises(ValueError):
        grad(Problem.quadratic_mean(3), np.zeros(3), np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        grad(Problem.logistic_plain(3), np.zeros(4), np.zeros(4), 0.0)


def test_quadratic_objective_is_half_variance():
    X = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]])
    ds = DataSet(X=X, y=np.zeros(3, dtype=np.int8))
    p = Problem.quadratic_mean(2)
    info = find_optimum(p, ds)
    assert np.allclose(info.w_star, [1.0, 1.0])
    assert info.F_star == pytest.approx(4.0 / 3.0)
    assert info.N == pytest.approx(16.0 / 3.0)
    assert info.exact


def test_objective_matches_mean_loss():
    ds = small_dataset("ridge")
    p = Problem.logistic_ridge(3, lam=0.05)
    w = rng.stream(3, "test-problems").normal(size=4)
    mean = np.mean([loss(p, w, *ds.sample(i)) for i in range(len(ds))])
    assert objective(p, w, ds) == pytest.approx(mean, rel=1e-12)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_objective_stack_matches_one_model_calls(name):
    p, dim = PROBLEMS[name]
    ds = small_dataset(name)
    W = rng.stream(5, "test-problems").normal(size=(9, dim))
    info = find_optimum(p, ds)
    W[0] = info.w_star
    stacked = objective(p, W, ds)
    assert stacked.shape == (9,)
    assert stacked[0] == info.F_star  # F* itself
    for w, F in zip(W, stacked.tolist()):
        assert F == objective(p, w, ds)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(PROBLEMS)), M=st.integers(40, 200),
       data=st.data())
def test_objective_stack_has_the_bits_of_one_model_calls(name, M, data):
    # C runs past 8192 // M, the rows of one block of an earlier stacked
    # evaluator whose bits depended on the block a model fell in
    p, dim = PROBLEMS[name]
    ds = small_dataset(name, M=M)
    C = data.draw(st.integers(1, 8192 // M + 8), label="C")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    W = 3.0 * rng.stream(seed, "test-problems").normal(size=(C, dim))
    stacked = objective(p, W, ds)
    assert stacked.shape == (C,)
    for j in range(C):
        assert stacked[j] == objective(p, W[j], ds), j


def test_full_gradient_matches_mean_grad():
    ds = small_dataset("plain")
    p = Problem.logistic_plain(3)
    w = rng.stream(4, "test-problems").normal(size=4)
    mean = np.mean([grad(p, w, *ds.sample(i)) for i in range(len(ds))], axis=0)
    assert np.allclose(full_gradient(p, w, ds), mean, rtol=1e-12)


def test_variance_constant_definition():
    ds = small_dataset("quadratic")
    p = Problem.quadratic_mean(3)
    w = np.array([0.5, -1.0, 2.0])
    manual = 2.0 * np.mean([np.sum(grad(p, w, *ds.sample(i)) ** 2)
                            for i in range(len(ds))])
    assert variance_constant(p, w, ds) == pytest.approx(manual, rel=1e-12)


def test_smoothness_constants():
    ds = small_dataset("ridge")
    p = Problem.logistic_ridge(3, lam=0.01)
    mu, L = smoothness_constants(p, ds)
    assert mu == 0.01
    max_sq = max(float(x @ x) + 1.0 for x in ds.X)
    assert L == pytest.approx(0.25 * max_sq + 0.01)
    assert smoothness_constants(Problem.quadratic_mean(3), ds) == (1.0, 1.0)
    assert smoothness_constants(Problem.logistic_plain(3), ds)[0] == 0.0


# ---------------------------------------------------------------------------
# analytic properties on random pairs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_gradient_finite_differences(name):
    p, dim = PROBLEMS[name]
    gen = rng.stream(17, "fd-" + name)
    for _ in range(100):
        w = gen.normal(size=dim)
        x = gen.normal(size=3)
        y = float(gen.integers(0, 2))
        g = grad(p, w, x, y)
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = 1e-6
            fd = (loss(p, w + e, x, y) - loss(p, w - e, x, y)) / 2e-6
            assert g[j] == pytest.approx(fd, rel=1e-4, abs=1e-7)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_per_sample_convexity(name):
    p, dim = PROBLEMS[name]
    gen = rng.stream(23, "cvx-" + name)
    for _ in range(100):
        w, w2 = gen.normal(size=dim), gen.normal(size=dim)
        x = gen.normal(size=3)
        y = float(gen.integers(0, 2))
        lhs = loss(p, w, x, y) - loss(p, w2, x, y)
        rhs = float(grad(p, w2, x, y) @ (w - w2))
        assert lhs >= rhs - 1e-9


@pytest.mark.parametrize("name", ["quadratic", "ridge"])
def test_strong_convexity_of_objective(name):
    p, dim = PROBLEMS[name]
    ds = small_dataset(name)
    gen = rng.stream(29, "scvx-" + name)
    for _ in range(100):
        w, w2 = gen.normal(size=dim), gen.normal(size=dim)
        lhs = objective(p, w, ds) - objective(p, w2, ds)
        rhs = float(full_gradient(p, w2, ds) @ (w - w2)) \
            + 0.5 * p.mu * float((w - w2) @ (w - w2))
        assert lhs >= rhs - 1e-9


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_per_sample_smoothness(name):
    p, dim = PROBLEMS[name]
    gen = rng.stream(31, "smooth-" + name)
    for _ in range(100):
        w, w2 = gen.normal(size=dim), gen.normal(size=dim)
        x = gen.normal(size=3)
        y = float(gen.integers(0, 2))
        # per-sample L for logistic: ||[x;1]||^2/4 + lam
        if p.kind == problems.QUADRATIC_MEAN:
            L = 1.0
        else:
            L = 0.25 * (float(x @ x) + 1.0) + p.lam
        dg = np.linalg.norm(grad(p, w, x, y) - grad(p, w2, x, y))
        assert dg <= L * np.linalg.norm(w - w2) * (1.0 + 1e-9)


def test_quadratic_optimum_gradient_is_zero():
    ds = small_dataset("quadratic", M=200)
    p = Problem.quadratic_mean(3)
    info = find_optimum(p, ds)
    g = full_gradient(p, info.w_star, ds)
    assert np.max(np.abs(g)) < 1e-12 * len(ds)


# ---------------------------------------------------------------------------
# find_optimum for logistic problems
# ---------------------------------------------------------------------------

def test_find_optimum_separable_ridge():
    X = np.array([[1.0, 1.0], [2.0, 1.5], [-1.0, -1.0], [-2.0, -0.5]])
    y = np.array([1, 1, 0, 0], dtype=np.int8)
    ds = DataSet(X=X, y=y)
    p = Problem.logistic_ridge(2, lam=0.25)
    info = find_optimum(p, ds)
    assert np.all(np.isfinite(info.w_star))
    assert np.linalg.norm(full_gradient(p, info.w_star, ds)) < 1e-4


SEPARABLE_4 = DataSet(
    X=np.array([[1.0, 1.0], [2.0, 1.5], [-1.0, -1.0], [-2.0, -0.5]]),
    y=np.array([1, 1, 0, 0], dtype=np.int8))


def test_find_optimum_ridge_certified():
    ds = small_dataset("ridge")
    p = Problem.logistic_ridge(3, lam=0.1)
    info = find_optimum(p, ds)
    assert info.exact
    assert info.grad_norm <= 1e-8
    assert info.grad_norm == np.linalg.norm(full_gradient(p, info.w_star, ds))
    assert info.F_star == objective(p, info.w_star, ds)


@pytest.mark.parametrize("ds", [SEPARABLE_4, small_dataset("plain")],
                         ids=["four-points", "small-M40"])
def test_find_optimum_plain_separable_not_certified(ds):
    p = Problem.logistic_plain(ds.dim)
    t0 = time.perf_counter()
    info = find_optimum(p, ds)
    assert time.perf_counter() - t0 < 0.5
    assert np.all(np.isfinite(info.w_star))
    assert not info.exact
    margins = (2.0 * ds.y - 1.0) * (ds.X @ info.w_star[:-1]
                                    + info.w_star[-1])
    assert np.all(margins > 0)  # w* separates the data: no finite optimum


def test_find_optimum_plain_non_separable_certified():
    ds = small_dataset("plain", M=400)
    p = Problem.logistic_plain(3)
    info = find_optimum(p, ds)
    assert info.exact
    assert info.grad_norm <= 1e-10


@pytest.fixture
def newton_log(monkeypatch):
    """Log "H" for each Newton step (one Hessian) and "F" for each objective
    evaluation: the start, one per line-search try, and find_optimum's F*."""
    log = []
    for name, tag in (("_hessian", "H"), ("objective", "F")):
        def logged(*args, _fn=getattr(problems, name), _tag=tag):
            log.append(_tag)
            return _fn(*args)
        monkeypatch.setattr(problems, name, logged)
    return log


def line_search_tries(log) -> list:
    """Objective evaluations of each Newton step's line search."""
    assert log[0] == log[-1] == "F"
    return [len(tries) for tries in "".join(log[1:-1]).split("H")[1:]]


def test_cli_optimum_halves_an_overshooting_newton_step(tmp_path, capsys,
                                                        newton_log):
    """Well separated clusters: one full Newton step on the way is rejected
    and the halved step is accepted; the solve is still certified."""
    config = {"problem": {"kind": "logistic_ridge"},
              "dataset": {"synthetic": "logistic", "M": 20, "dim": 5,
                          "seed": 1, "separation": 30, "noise": 1.5},
              "samples": {"kind": "constant", "s": 10}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["optimum", "--config", str(path)]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["exact"]
    tries = line_search_tries(newton_log)
    assert sum(t - 1 for t in tries) == 1  # halvings


# Features near 1e3 and lambda = 1e-12 put the Hessian's condition number
# near 1/eps, so rounding ends each solve before its certificate and before
# the step cap.  NO_STEP_ACCEPTED is separable (three points, four
# parameters): F falls to about 1e-10 and no step length along the last
# direction passes either test.  In NOT_DESCENT, rows 2 and 4 are one point
# with both labels; the last computed direction has g . d >= 0.
NO_STEP_ACCEPTED = DataSet(
    X=np.array([[997.0, 1001.0, 997.0], [1002.0, 1001.0, 1002.0],
                [1002.0, 1004.0, 1000.0]]),
    y=np.array([1, 0, 1], dtype=np.int8))
NOT_DESCENT = DataSet(
    X=np.array([[999.0, 1004.0], [999.0, 998.0], [1003.0, 996.0],
                [999.0, 998.0], [996.0, 1002.0], [1004.0, 1003.0]]),
    y=np.array([0, 1, 1, 0, 0, 1], dtype=np.int8))


@pytest.mark.parametrize("ds,last_tries", [
    (NO_STEP_ACCEPTED, problems._MAX_HALVINGS),  # every step length fails
    (NOT_DESCENT, 0)],  # g . d >= 0: no step is tried
    ids=["no-step-accepted", "not-a-descent-direction"])
def test_find_optimum_stops_where_rounding_wins(newton_log, ds, last_tries):
    info = find_optimum(Problem.logistic_ridge(ds.dim, lam=1e-12), ds)
    tries = line_search_tries(newton_log)
    assert len(tries) < problems._MAX_NEWTON
    assert tries[-1] == last_tries
    assert not info.exact and info.grad_norm > problems.OPTIMUM_TOL
    assert np.all(np.isfinite(info.w_star))


# ---------------------------------------------------------------------------
# the logistic kernel against its reference formula, bit for bit
# ---------------------------------------------------------------------------

def sigmoid_oracle(z: float):
    """The reference sigmoid: the arithmetic on numpy scalars."""
    if z >= 0:
        return 1.0 / (1.0 + np.exp(-z))
    e = np.exp(z)
    return e / (1.0 + e)


def grad_oracle(p: Problem, w: np.ndarray, x: np.ndarray,
                y: float) -> np.ndarray:
    """The reference logistic gradient: a matmul margin, the residual
    times x as a temporary, copied into g."""
    z = float(w[:-1] @ x + w[-1])
    sig = sigmoid_oracle(z)
    g = np.empty(p.dim)
    g[:-1] = (sig - y) * x
    g[-1] = sig - y
    if p.kind == problems.LOGISTIC_RIDGE:
        g += p.lam * w
    return g


def loss_oracle(p: Problem, w: np.ndarray, x: np.ndarray, y: float) -> float:
    z = float(w[:-1] @ x + w[-1])
    sig = min(max(sigmoid_oracle(z), problems._SIGMA_CLAMP),
              1.0 - problems._SIGMA_CLAMP)
    val = -(y * np.log(sig) + (1.0 - y) * np.log(1.0 - sig))
    if p.kind == problems.LOGISTIC_RIDGE:
        val += 0.5 * p.lam * float(w @ w)
    return float(val)


def bits(v) -> bytes:
    return np.asarray(v, dtype=float).tobytes()


def strided(x: np.ndarray, step: int) -> np.ndarray:
    """x as a view with the given element stride (1: contiguous)."""
    buf = np.zeros((len(x), step))
    buf[:, 0] = x
    return buf[:, 0] if step > 1 else buf[:, 0].copy()


entries = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def logistic_cases(draw):
    dim = draw(st.integers(2, 130))  # a9a's 123 features give dim 124
    lam = draw(st.floats(0.0, 1.0, exclude_min=True))
    p = draw(st.sampled_from([Problem.logistic_plain(dim - 1),
                              Problem.logistic_ridge(dim - 1, lam=lam)]))
    w = np.array(draw(st.lists(entries, min_size=dim, max_size=dim)))
    x = np.array(draw(st.lists(entries, min_size=dim - 1,
                               max_size=dim - 1)))
    y = float(draw(st.integers(0, 1)))
    return p, w, strided(x, draw(st.sampled_from([1, 2, 3]))), y


@settings(max_examples=300, deadline=None)
@given(logistic_cases())
def test_grad_and_loss_match_oracle_bitwise(case):
    p, w, x, y = case
    assert bits(grad(p, w, x, y)) == bits(grad_oracle(p, w, x, y))
    assert bits(loss(p, w, x, y)) == bits(loss_oracle(p, w, x, y))


@pytest.mark.parametrize("kind", [problems.LOGISTIC_PLAIN,
                                  problems.LOGISTIC_RIDGE])
@pytest.mark.parametrize("step", [1, 2])
def test_grad_matches_oracle_where_exp_underflows(kind, step):
    # margins swept through +-800 by the bias: np.exp underflows to 0
    # below -745, so the sigmoid saturates at exactly 0 or 1
    d_feat = 123
    p = Problem.logistic_plain(d_feat) if kind == problems.LOGISTIC_PLAIN \
        else Problem.logistic_ridge(d_feat, lam=0.5)
    gen = rng.stream(41, "grad-oracle")
    for z in np.linspace(-800.0, 800.0, 161):
        w = gen.uniform(-1.0, 1.0, size=d_feat + 1)
        x = strided(gen.uniform(-1.0, 1.0, size=d_feat), step)
        w[-1] = z - float(w[:-1] @ x)
        for y in (0.0, 1.0):
            assert bits(grad(p, w, x, y)) == bits(grad_oracle(p, w, x, y))
            assert bits(loss(p, w, x, y)) == bits(loss_oracle(p, w, x, y))
