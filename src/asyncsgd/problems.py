"""Objective functions, per-sample gradients and curvature constants.

Three problem kinds are supported:

* ``logistic_plain`` -- binary logistic regression (plain convex),
* ``logistic_ridge`` -- the same plus (lambda/2)||w||^2 (strongly convex),
* ``quadratic_mean`` -- f(w; xi) = 0.5 ||w - xi||^2, a synthetic problem
  with exact optimum (the sample mean), mu = L = 1 and exact variance
  constant N; used by the convergence-rate acceptance tests.

The per-sample loss f(w; xi) is normalized so the full objective is the
mean over the data set; the ridge term is part of every per-sample loss so
that gradients and finite differences agree sample by sample.  For logistic
problems the model vector is w = (w_bar, bias): the feature vector is
implicitly augmented with a trailing 1, and the regularizer applies to the
full concatenated vector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOGISTIC_PLAIN = "logistic_plain"
LOGISTIC_RIDGE = "logistic_ridge"
QUADRATIC_MEAN = "quadratic_mean"

_SIGMA_CLAMP = 1e-12  # loss only; gradients need no clamp

OPTIMUM_TOL = 1e-10   # ||grad F(w*)|| at or below this certifies w*
_ARMIJO = 1e-4        # sufficient-decrease constant of the line search
_MAX_HALVINGS = 40    # smallest step tried is 2^-39 of the Newton step
_ROUNDING = 16 * np.finfo(float).eps  # relative change of F lost to rounding
_MAX_NEWTON = 100     # safety cap: a solve stops at its certificate first


@dataclass(frozen=True)
class Problem:
    kind: str
    dim: int           # model dimension (d_feat + 1 for logistic)
    mu: float
    lam: float = 0.0

    @staticmethod
    def logistic_plain(d_feat: int) -> "Problem":
        return Problem(kind=LOGISTIC_PLAIN, dim=d_feat + 1, mu=0.0)

    @staticmethod
    def logistic_ridge(d_feat: int, lam: float) -> "Problem":
        if lam <= 0:
            raise ValueError("ridge problems need lambda > 0")
        return Problem(kind=LOGISTIC_RIDGE, dim=d_feat + 1, mu=lam, lam=lam)

    @staticmethod
    def quadratic_mean(dim: int) -> "Problem":
        return Problem(kind=QUADRATIC_MEAN, dim=dim, mu=1.0)


@dataclass
class OptimumInfo:
    """Optimum location w*, value F*, the variance constant N at w*, and
    the certificate ||grad F(w*)||."""

    w_star: np.ndarray
    F_star: float
    N: float
    grad_norm: float
    exact: bool = False       # certified: grad_norm <= OPTIMUM_TOL

    def to_dict(self) -> dict:
        return {"w_star": self.w_star.tolist(), "F_star": self.F_star,
                "N": self.N, "grad_norm": self.grad_norm, "exact": self.exact}


def _sigmoid(z: float) -> float:
    # math.exp (libm), not np.exp, whose last bit depends on the SIMD loop
    # numpy dispatches: its AVX512F exp differs from libm's on about 5% of
    # arguments.  exp never sees a positive argument, so it cannot overflow;
    # the rest is Python float arithmetic, the IEEE operations of np.float64
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def check_features(p: Problem, width: int) -> None:
    """Raise ValueError unless samples of `width` features fit p's model."""
    if p.kind == QUADRATIC_MEAN:
        if width != p.dim:
            raise ValueError(f"feature dim {width} != model dim {p.dim}")
    elif width + 1 != p.dim:
        raise ValueError(f"feature dim {width} + 1 != model dim {p.dim}")


def kernel(p: Problem, w: np.ndarray, g: np.ndarray):
    """The per-sample gradient bound to a model buffer w and an output g.

    Returns step(x, y), which writes grad f(w; xi) at w's current contents
    into g; `grad` is this kernel on a fresh g.  w and g are bound once:
    change their contents in place between calls, never the arrays.  Both
    must be contiguous float64 vectors: the logistic kernel reads and
    writes their last entries through memoryviews.  The width of x is not
    checked (see check_features).
    """
    if p.kind == QUADRATIC_MEAN:
        subtract = np.subtract

        def quadratic(x, _y):
            subtract(w, x, g)
        return quadratic
    w_bar, g_bar, multiply, add = w[:-1], g[:-1], np.multiply, np.add
    w_mv, g_mv, last = memoryview(w), memoryview(g), p.dim - 1
    ridge, ridge_term = p.kind == LOGISTIC_RIDGE, np.empty(p.dim)
    # r and lambda as stride-0 vectors, r written through its one cell:
    # array-array ufunc calls convert no Python scalar
    cell = np.empty(1)
    r_cell, r_v = memoryview(cell), np.broadcast_to(cell, (last,))
    lam_v = np.broadcast_to(np.array(p.lam, dtype=float), (p.dim,))

    def logistic(x, y):
        # ndarray.dot reaches the same BLAS ddot as the matmul ufunc, in
        # fewer dispatches; the residual scales x straight into g
        r_cell[0] = r = _sigmoid(float(w_bar.dot(x)) + w_mv[last]) - y
        multiply(x, r_v, g_bar)
        g_mv[last] = r
        if ridge:
            multiply(w, lam_v, ridge_term)
            add(g, ridge_term, g)
    return logistic


def grad(p: Problem, w: np.ndarray, x: np.ndarray, y: float) -> np.ndarray:
    """Per-sample gradient of f(w; xi)."""
    check_features(p, x.shape[0])
    g = np.empty(p.dim)
    kernel(p, np.ascontiguousarray(w, dtype=float), g)(x, y)
    return g


def loss(p: Problem, w: np.ndarray, x: np.ndarray, y: float) -> float:
    """Per-sample loss f(w; xi)."""
    if p.kind == QUADRATIC_MEAN:
        d = w - x
        return 0.5 * float(d @ d)
    z = float(w[:-1] @ x + w[-1])
    sig = min(max(_sigmoid(z), _SIGMA_CLAMP), 1.0 - _SIGMA_CLAMP)
    val = -(y * np.log(sig) + (1.0 - y) * np.log(1.0 - sig))
    if p.kind == LOGISTIC_RIDGE:
        val += 0.5 * p.lam * float(w @ w)
    return float(val)


def _sigmoids(w: np.ndarray, X: np.ndarray) -> tuple:
    """Margins z = X~ w of every sample and their sigmoids 1/(1 + e^-z)."""
    z = X @ w[:-1] + w[-1]
    with np.errstate(over="ignore"):  # e^-z = inf gives the sigmoid 0
        return z, 1.0 / (1.0 + np.exp(-z))


def objective(p: Problem, w: np.ndarray, dataset):
    """Mean per-sample loss over the data set (the F(w) form).

    Vectorized; equivalent to the mean of loss() over all samples.  A
    (C, dim) stack of models gives C values, each with the bits of the
    one-model call.  The quadratic uses F(w) = F(x_bar) + ||w - x_bar||^2/2
    exactly, x_bar the sample mean: O(dim) per model, with no cancellation.
    """
    X, y = dataset.X, dataset.y
    W = np.atleast_2d(w)
    if p.kind == QUADRATIC_MEAN:
        x_bar = X.mean(axis=0)
        diff = x_bar - X
        D = W - x_bar
        F = float(0.5 * np.mean(np.einsum("ij,ij->i", diff, diff))) \
            + 0.5 * np.einsum("ij,ij->i", D, D)
    else:
        F = np.empty(len(W))
        for j, v in enumerate(W):
            sig = np.clip(_sigmoids(v, X)[1], _SIGMA_CLAMP, 1.0 - _SIGMA_CLAMP)
            F[j] = np.mean(-(y * np.log(sig) + (1.0 - y) * np.log(1.0 - sig)))
            if p.kind == LOGISTIC_RIDGE:
                F[j] += 0.5 * p.lam * float(v @ v)
    return F if w.ndim == 2 else float(F[0])


def full_gradient(p: Problem, w: np.ndarray, dataset) -> np.ndarray:
    """Gradient of the mean objective F."""
    X, y = dataset.X, dataset.y
    if p.kind == QUADRATIC_MEAN:
        return w - X.mean(axis=0)
    r = _sigmoids(w, X)[1] - y
    g = np.empty(p.dim)
    g[:-1] = X.T @ r / len(y)
    g[-1] = float(np.mean(r))
    if p.kind == LOGISTIC_RIDGE:
        g += p.lam * w
    return g


def variance_constant(p: Problem, w: np.ndarray, dataset) -> float:
    """N = 2 * mean_i ||grad f(w; xi_i)||^2 over the data set."""
    X, y = dataset.X, dataset.y
    if p.kind == QUADRATIC_MEAN:
        diff = w[None, :] - X
        return 2.0 * float(np.mean(np.einsum("ij,ij->i", diff, diff)))
    r = _sigmoids(w, X)[1] - y
    G = np.concatenate([X * r[:, None], r[:, None]], axis=1)
    if p.kind == LOGISTIC_RIDGE:
        G = G + p.lam * w[None, :]
    return 2.0 * float(np.mean(np.einsum("ij,ij->i", G, G)))


def smoothness_constants(p: Problem, dataset) -> tuple:
    """(mu, L) bounds: logistic L = max ||[x;1]||^2 / 4 + lambda."""
    if p.kind == QUADRATIC_MEAN:
        return 1.0, 1.0
    X = dataset.X
    max_sq = float(np.max(np.einsum("ij,ij->i", X, X))) + 1.0  # + bias coord
    L = 0.25 * max_sq + p.lam
    return p.lam, L


def _hessian(p: Problem, w: np.ndarray, dataset) -> np.ndarray:
    """Hessian of F for logistic problems: X~^T diag(s) X~ / M + lambda I.

    X~ is X with the bias column of ones; the blocks are formed from X
    directly, so no augmented copy of the data is made.
    """
    X = dataset.X
    sig = _sigmoids(w, X)[1]
    s = sig * (1.0 - sig)
    Xs = X * s[:, None]
    H = np.empty((p.dim, p.dim))
    H[:-1, :-1] = X.T @ Xs
    H[-1, :-1] = H[:-1, -1] = Xs.sum(axis=0)
    H[-1, -1] = s.sum()
    H /= len(dataset)
    H[np.diag_indices(p.dim)] += p.lam
    return H


def _newton(p: Problem, dataset) -> np.ndarray:
    """Damped Newton from w = 0 with an Armijo backtracking line search.

    Stops when ||grad F|| <= OPTIMUM_TOL or when no step length along the
    Newton direction is accepted (_MAX_NEWTON steps are a safety cap); a
    direction that does not descend fails its line search.  Where a step
    changes F by no more than rounding, Armijo cannot tell steps apart, so
    the step is accepted only if it lowers the gradient norm.  Two such
    steps in a row that move w by the same bits start a walk, which would
    repeat that last-bit move one Newton step at a time while ||grad F||
    falls: the second step goes instead to the multiple of the move that
    the secant of grad F along it puts nearest to zero, where that lowers
    the gradient norm.
    """
    w = np.zeros(p.dim)
    F = objective(p, w, dataset)
    g = full_gradient(p, w, dataset)
    g_norm = float(np.linalg.norm(g))
    last = None  # the last step, if it changed F by no more than rounding
    for _ in range(_MAX_NEWTON):
        if g_norm <= OPTIMUM_TOL:
            break
        d = np.linalg.lstsq(_hessian(p, w, dataset), -g, rcond=None)[0]
        slope = float(g @ d)
        alpha = 1.0
        for _ in range(_MAX_HALVINGS):
            w_new = w + alpha * d
            F_new = objective(p, w_new, dataset)
            g_new = full_gradient(p, w_new, dataset)
            g_new_norm = float(np.linalg.norm(g_new))
            flat = abs(F_new - F) <= _ROUNDING * abs(F)
            if flat:
                if g_new_norm < g_norm:
                    break
            elif F_new <= F + _ARMIJO * alpha * slope:
                break
            alpha *= 0.5
        else:
            break
        step = w_new - w
        if flat and last is not None and np.array_equal(step, last):
            dg = g_new - g
            w_far = w + round(-float(g @ dg) / float(dg @ dg)) * step
            g_far = full_gradient(p, w_far, dataset)
            g_far_norm = float(np.linalg.norm(g_far))
            if g_far_norm < g_new_norm:
                w_new, g_new, g_new_norm = w_far, g_far, g_far_norm
                F_new = objective(p, w_far, dataset)
        last = step if flat else None
        w, F, g, g_norm = w_new, F_new, g_new, g_new_norm
    return w


def find_optimum(p: Problem, dataset) -> OptimumInfo:
    """Solve for the optimum w*, with F*, N and a gradient-norm certificate.

    quadratic_mean has the closed form w* = sample mean.  Logistic problems
    run damped Newton from w = 0.  `exact` is true when ||grad F(w*)|| <=
    OPTIMUM_TOL.  Plain logistic regression on linearly separable data has
    no finite minimizer: when every sample has a positive margin at the
    returned point, `exact` is false whatever the certificate says.  A
    non-finite F(w*) (data too large for double precision) is a ValueError.
    """
    if p.kind == QUADRATIC_MEAN:
        w = dataset.X.mean(axis=0)
    else:
        w = _newton(p, dataset)
    F = objective(p, w, dataset)
    if not np.isfinite(F):
        raise ValueError("objective is non-finite at the optimum")
    g_norm = float(np.linalg.norm(full_gradient(p, w, dataset)))
    exact = g_norm <= OPTIMUM_TOL
    if exact and p.kind == LOGISTIC_PLAIN:
        margins = (2.0 * dataset.y - 1.0) * _sigmoids(w, dataset.X)[0]
        exact = not bool(np.all(margins > 0.0))
    return OptimumInfo(w_star=w, F_star=F, N=variance_constant(p, w, dataset),
                       grad_norm=g_norm, exact=exact)
