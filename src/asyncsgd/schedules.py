"""Delay functions, sample-size sequences and round step-size sequences.

The three objects built here drive the whole simulator:

* ``DelayFunction`` -- tau(x) = M1 + ((x + M0) / gamma(x + M0))**(1/g),
  the maximum staleness the recursion tolerates at iteration x.
* ``SampleSchedule`` -- the per-round total sample sizes {s_i}.
* ``StepSchedule`` -- the per-round step sizes {eta_bar_i} (or the
  per-iteration families they are derived from).

All arithmetic is double precision; ceilings are taken after a 1e-12
relative nudge so that representation error cannot flip an exact integer
boundary (the strongly convex schedule must give s_0 = 16 exactly).

Each closed form, s_i and tau, is written once and runs on one round
(with math.log) or on a numpy array of rounds (with np.log).  The prefix
sums of {s_i} have one writer: a walk over blocks of rounds (64 at first,
doubling up to 65,536), each one numpy pass of that formula text with the
nudge in array form.  numpy's log and pow may differ from libm in the last
bit, so a value whose nudged value lies within a relative 1e-9 of an
integer, and any value that is non-finite or above 2**63 - 1, is left to
the scalar ``sample_size`` (a power law with c = 0 or 1 calls no pow, so
only the last two are), in round order and for no round past the first
one whose sum reaches the budget.  Every s_i and every ScheduleError is
therefore the scalar code's.
"""
from __future__ import annotations

import bisect
import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

_CEIL_EPS = 1e-12
# An array value within this relative distance of an integer, or within
# 1e-6 below 1000, is recomputed by the scalar code (see _near_int).
_NEAR_INT = 1e-9
_INT64_MAX = 2 ** 63 - 1
_FIRST_BLOCK, _MAX_BLOCK = 64, 2 ** 16  # rounds per pass of _walk


class ScheduleError(ValueError):
    """Raised for invalid schedule parameters or a formula out of domain."""


def _ceil(x: float) -> int:
    """Ceiling with a relative epsilon nudge against float representation."""
    return math.ceil(x - _CEIL_EPS * max(1.0, abs(x)))


def _near_int(y: np.ndarray) -> np.ndarray:
    """True where y lies within 1e-6 of an integer (a relative 1e-9 from
    1000 on), and where it is NaN or inf: there numpy's log and pow, which
    may differ from libm in the last bit, could give another floor or ceil
    than the scalar code, and such values are the scalar ones bit for bit."""
    return ~(np.abs(y - np.rint(y)) > _NEAR_INT * np.maximum(np.abs(y), 1e3))


# ---------------------------------------------------------------------------
# Delay functions
# ---------------------------------------------------------------------------

GAMMA_ONE = "one"          # gamma(z) = 1
GAMMA_FOUR_LOG = "four_log"  # gamma(z) = 4 ln z


@dataclass(frozen=True)
class DelayFunction:
    """tau(x) = M1 + ((x + M0) / gamma(x + M0))**(1/g), g > 1."""

    g: float
    M0: float
    M1: float
    gamma: str = GAMMA_ONE

    def __post_init__(self) -> None:
        if self.g <= 1:
            raise ScheduleError(f"exponent g must be > 1, got {self.g}")
        if self.M0 < 0 or self.M1 < 0:
            raise ScheduleError("M0 and M1 must be non-negative")
        if self.gamma not in (GAMMA_ONE, GAMMA_FOUR_LOG):
            raise ScheduleError(f"unknown gamma kind {self.gamma!r}")
        if self.gamma == GAMMA_FOUR_LOG and self.M0 <= 1:
            # 4 ln(x + M0) at x = 0 must be positive
            raise ScheduleError(f"four_log needs M0 > 1, got {self.M0}")


def eval_delay(df: DelayFunction, x):
    """Evaluate tau(x) = M1 + ((x + M0) / gamma(x + M0))**(1/g).

    x may be an array: the same formula is then one numpy pass, with the
    domain checked at its smallest x, and every value near an integer
    (see _near_int) is recomputed by the scalar code.  So floor and ceil
    of each element, and with them every comparison of tau with an
    integer, are those of the scalar evaluation.
    """
    array = isinstance(x, np.ndarray)
    if array:
        x = np.asarray(x, dtype=float)
        lo, log = (x.min() if x.size else math.inf), np.log
    else:
        lo, log = x, math.log
    if lo < 0:
        raise ScheduleError(f"delay function evaluated at negative x={lo}")
    z = x + df.M0
    # z / 1.0 is z exactly; 4 ln z > 0, since M0 > 1 for four_log
    gam = 1.0 if df.gamma == GAMMA_ONE else 4.0 * log(z)
    tau = df.M1 + (z / gam) ** (1.0 / df.g)
    if array:
        for j in np.flatnonzero(_near_int(tau)).tolist():
            tau[j] = eval_delay(df, float(x[j]))
    return tau


# ---------------------------------------------------------------------------
# Sample-size schedules
# ---------------------------------------------------------------------------

CONSTANT = "constant"
POWER_LAW = "power_law"      # s_i = ceil(a * i**c + b)
MATCHED_POWER = "matched_power"  # ceil((1/(d+1)) * ((m+i+1)/(d+1) * (g-1)/g)**(1/(g-1)))
MATCHED_LOG = "matched_log"      # ceil((m+i+1)/(16(d+1)^2) / ln((m+i+1)/(2(d+1))))
EXPLICIT = "explicit"


@dataclass
class SampleSchedule:
    """Per-round total sample sizes {s_i}.  Immutable after construction."""

    kind: str
    s: int = 0
    a: float = 0.0
    b: float = 0.0
    c: float = 1.0
    g: float = 2.0
    m: int = 0
    d: int = 0
    values: Optional[tuple] = None
    _cum: list = field(default_factory=lambda: [0], repr=False, compare=False)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(s: int) -> "SampleSchedule":
        if s < 1:
            raise ScheduleError(f"constant sample size must be >= 1, got {s}")
        return SampleSchedule(kind=CONSTANT, s=int(s))

    @staticmethod
    def power_law(a: float, b: float = 0.0,
                  c: float = 1.0) -> "SampleSchedule":
        # Note: with b = 0 round 0 is empty (s_0 = 0); the first non-empty
        # round is i = 1, matching the a*i^c + b family evaluated literally.
        if a < 0 or b < 0 or c < 0:
            raise ScheduleError("power-law a, b and c must be non-negative")
        if a == 0 and b == 0:
            raise ScheduleError("power-law schedule is identically zero")
        return SampleSchedule(kind=POWER_LAW, a=a, b=b, c=c)

    @staticmethod
    def matched_power(g: float, m: int = 0, d: int = 0) -> "SampleSchedule":
        if g <= 1:
            raise ScheduleError(f"matched_power requires g > 1, got {g}")
        if m < 0 or d < 0:
            raise ScheduleError("m and d must be non-negative integers")
        return SampleSchedule(kind=MATCHED_POWER, g=g, m=int(m), d=int(d))

    @staticmethod
    def matched_log(m: int, d: int = 0) -> "SampleSchedule":
        if m < 0 or d < 0:
            raise ScheduleError("m and d must be non-negative integers")
        # Require strict log positivity with margin: (m+1)/(2(d+1)) >= e.
        if (m + 1) / (2 * (d + 1)) < math.e:
            raise ScheduleError(
                f"matched_log needs (m+1)/(2(d+1)) >= e; got m={m}, d={d}")
        return SampleSchedule(kind=MATCHED_LOG, m=int(m), d=int(d))

    @staticmethod
    def explicit(values: list) -> "SampleSchedule":
        vals = tuple(values)
        if not vals or any(isinstance(v, bool) or not isinstance(
                v, numbers.Integral) or v < 1 for v in vals):
            raise ScheduleError("explicit schedule needs integer values >= 1")
        return SampleSchedule(kind=EXPLICIT, values=tuple(map(int, vals)))

    # -- evaluation ---------------------------------------------------------

    def prefix_sum(self, i: int) -> int:
        """Sum of s_j for j < i (so prefix_sum(0) == 0)."""
        _walk(self, i, math.inf)
        return self._cum[i]

    def prefix_sums(self, rounds: int) -> list:
        """[prefix_sum(i) for i in 0..rounds], from the cache that evaluates
        each s_i once; a ScheduleError if the sum leaves the int64 range."""
        if self.prefix_sum(rounds) > _INT64_MAX:
            raise ScheduleError(f"sum of the first {rounds} sample sizes "
                                f"exceeds 2**63 - 1")
        return self._cum[:rounds + 1]


def sample_size(sched: SampleSchedule, i: int) -> int:
    """Evaluate s_i for the schedule's closed form; a ScheduleError if s_i
    leaves the float range or exceeds 2**63 - 1, which no table holds."""
    if i < 0:
        raise ScheduleError(f"round index must be non-negative, got {i}")
    try:
        s = _closed_form(sched, i)
    except OverflowError:
        s = math.inf
    if s > 2 ** 63 - 1:
        raise ScheduleError(f"sample size s_{i} exceeds 2**63 - 1")
    return s


def _closed_form(sched: SampleSchedule, i: int) -> int:
    if sched.kind == CONSTANT:
        return sched.s
    if sched.kind == EXPLICIT:
        if i >= len(sched.values):
            raise ScheduleError(f"explicit schedule has no round {i}: its "
                                "values sum to less than K")
        return sched.values[i]
    # a float power, as on the array: an int i ** c could be exact or huge
    return _ceil(_formula(sched, float(i) if sched.kind == POWER_LAW else i,
                          math.log))


def _formula(sched: SampleSchedule, i, log):
    """s_i before the ceiling for the three formula kinds, on the round i
    with log = math.log or on the float array of rounds i with np.log; a
    ScheduleError for a kind without a formula.  With an int i the matched
    forms' i + (m + 1) is exact."""
    if sched.kind == POWER_LAW:
        return sched.a * i ** sched.c + sched.b
    g, m, d = sched.g, sched.m, sched.d
    if sched.kind == MATCHED_POWER:
        base = (i + (m + 1)) / (d + 1) * (g - 1) / g
        return base ** (1.0 / (g - 1)) / (d + 1)
    if sched.kind == MATCHED_LOG:
        arg = (i + (m + 1)) / (2 * (d + 1))  # >= e, as matched_log requires
        return (i + (m + 1)) / (16 * (d + 1) ** 2) / log(arg)
    raise ScheduleError(f"unknown sample schedule kind {sched.kind!r}")


def verify_delay_compatibility(sched: SampleSchedule, df: DelayFunction,
                               d: int, i_max: int):
    """Check tau(sum_{j<=i} s_j) >= 1 + sum_{j=i-d}^{i} s_j for i in [d, i_max].

    Returns (True, None) if the inequality holds everywhere (also when
    i_max < d leaves no round to check), otherwise (False, first violating i).
    """
    P = np.array(sched.prefix_sums(i_max + 1))
    bad = np.flatnonzero(~delay_windows(df, P, d, first=d)[1])
    return (True, None) if len(bad) == 0 else (False, d + int(bad[0]))


def delay_windows(df: DelayFunction, P: np.ndarray, d: int, first: int = 0):
    """tau(sum_{j<=i} s_j) for the rounds i >= first (<= d) of the prefix sums
    P, and for the rounds i >= d whether it is >= 1 + sum_{j=i-d}^{i} s_j."""
    tau = eval_delay(df, P[first + 1:])
    total = P[d + 1:]
    return tau, tau[d - first:] >= 1 + (total - P[:len(total)])


# ---------------------------------------------------------------------------
# Step-size schedules
# ---------------------------------------------------------------------------

STEP_CONSTANT = "constant"
INVERSE_T = "inverse_t"            # eta0 / (1 + beta * t)
INVERSE_SQRT_T = "inverse_sqrt_t"  # eta0 / (1 + beta * sqrt(t))
STRONGLY_CONVEX_ROUND = "strongly_convex_round"

PER_ROUND = "per_round"          # diminishing_2: one step size per round
PER_ITERATION = "per_iteration"  # diminishing_1: step size per iteration


@dataclass(frozen=True)
class StepSchedule:
    """Round step sizes {eta_bar_i}, or the iteration family behind them."""

    kind: str
    eta: float = 0.0
    eta0: float = 0.0
    beta: float = 0.0
    mu: float = 0.0
    M0: float = 0.0
    M1: float = 0.0
    mode: str = PER_ROUND

    def __post_init__(self) -> None:
        if self.mode not in (PER_ROUND, PER_ITERATION):
            raise ScheduleError(f"unknown mode {self.mode!r}; use "
                                f"{PER_ROUND!r} or {PER_ITERATION!r}")

    @staticmethod
    def constant(eta: float) -> "StepSchedule":
        if eta <= 0:
            raise ScheduleError("constant step size must be positive")
        return StepSchedule(kind=STEP_CONSTANT, eta=eta)

    @staticmethod
    def inverse_t(eta0: float, beta: float, mode: str = PER_ROUND) -> "StepSchedule":
        if eta0 <= 0 or beta <= 0:
            raise ScheduleError("eta0 and beta must be positive")
        return StepSchedule(kind=INVERSE_T, eta0=eta0, beta=beta, mode=mode)

    @staticmethod
    def inverse_sqrt_t(eta0: float, beta: float,
                       mode: str = PER_ROUND) -> "StepSchedule":
        if eta0 <= 0 or beta <= 0:
            raise ScheduleError("eta0 and beta must be positive")
        return StepSchedule(kind=INVERSE_SQRT_T, eta0=eta0, beta=beta, mode=mode)

    @staticmethod
    def strongly_convex_round(mu: float, M0: float,
                              M1: float) -> "StepSchedule":
        if mu <= 0:
            raise ScheduleError("mu must be positive")
        if M0 <= 1:  # ln(M0 + t) at t = 0 must be positive
            raise ScheduleError(f"M0 must be > 1, got {M0}")
        if M1 < 0:
            raise ScheduleError(f"M1 must be non-negative, got {M1}")
        return StepSchedule(kind=STRONGLY_CONVEX_ROUND, mu=mu, M0=M0, M1=M1,
                            mode=PER_ROUND)


def per_iteration_step(sched: StepSchedule, t: int) -> float:
    """Step size at global iteration t for the iteration-level families."""
    if sched.kind == STEP_CONSTANT:
        return sched.eta
    if sched.kind == INVERSE_T:
        return sched.eta0 / (1.0 + sched.beta * t)
    if sched.kind == INVERSE_SQRT_T:
        return sched.eta0 / (1.0 + sched.beta * math.sqrt(t))
    raise ScheduleError(
        f"{sched.kind} is defined per round only, not per iteration")


def round_step(sched: StepSchedule, sample_sched: SampleSchedule, i: int) -> float:
    """Round step size eta_bar_i, evaluated at t = sum_{j<i} s_j."""
    if i < 0:
        raise ScheduleError(f"round index must be non-negative, got {i}")
    t = sample_sched.prefix_sum(i)
    if sched.kind == STRONGLY_CONVEX_ROUND:
        z = sched.M0 + t
        denom = t + 2.0 * sched.M1 + math.sqrt(z / math.log(z))
        return 12.0 / sched.mu / denom
    return per_iteration_step(sched, t)


def make_strongly_convex_schedules(mu: float, L: float, d: int, m: int):
    """Build the (tau, {s_i}, {eta_bar_i}) triple for strongly convex problems.

    tau has g = 2 and gamma(z) = 4 ln z; M0 = (m+1)^2/4;
    M1 = max{d+2, 72 L/mu, s_0/2}.
    """
    if mu <= 0:
        raise ScheduleError("mu must be positive")
    if L < mu:
        raise ScheduleError("L must be >= mu")
    samples = SampleSchedule.matched_log(m=m, d=d)  # validates m, d, log domain
    M0 = (m + 1) ** 2 / 4.0
    M1 = max(d + 2.0, 72.0 * L / mu, sample_size(samples, 0) / 2.0)
    df = DelayFunction(g=2.0, M0=M0, M1=M1, gamma=GAMMA_FOUR_LOG)
    steps = StepSchedule.strongly_convex_round(mu=mu, M0=M0, M1=M1)
    return df, samples, steps


def _block_sizes(sched: SampleSchedule, start: int, stop: int):
    """(sizes, scalar): s_i for i in [start, stop) as ints from one array
    pass of _formula, and the offsets j whose s_{start+j} is left to the
    scalar sample_size (sizes[j] is 0 there): rounds past an explicit list,
    values above 2**63 - 1, every round of a kind without a formula, and
    formula values that are non-finite or whose nudged value lies near an
    integer (for a power law with c = 0 or 1, which calls no pow, only
    those non-finite or too large).  Raises nothing."""
    n = stop - start
    if sched.kind == CONSTANT:
        return [sched.s] * n, [] if sched.s <= _INT64_MAX else list(range(n))
    if sched.kind == EXPLICIT:
        vals = sched.values[start:stop]
        past = list(range(len(vals), n))
        return ([v if v <= _INT64_MAX else 0 for v in vals] + [0] * len(past),
                [j for j, v in enumerate(vals) if v > _INT64_MAX] + past)
    i = np.arange(start, stop, dtype=float)
    with np.errstate(all="ignore"):
        try:  # NaN for a parameter beyond the float range or another kind
            x = _formula(sched, i, np.log)
        except (OverflowError, ScheduleError):
            x = np.full(n, np.nan)
        y = x - _CEIL_EPS * np.maximum(1.0, np.abs(x))
        if sched.kind == POWER_LAW and sched.c in (0, 1):
            # i**0 and i**1 are exact: the scalar code's float ops, bit for
            # bit; False for NaN, inf and every ceil above 2**63 - 1
            kept = np.abs(y) < 2.0 ** 63
        else:
            kept = ~_near_int(y)  # False for NaN, inf and every |y| >= 5e8
        sizes = np.where(kept, np.ceil(y), 0.0).astype(np.int64)
    return sizes.tolist(), np.flatnonzero(~kept).tolist()


def rounds_for_budget(sched: SampleSchedule, K: int) -> int:
    """Smallest T with sum_{j=0}^{T} s_j >= K; the prefix sums are cached
    up to round T.  Rounds that hold a sample each from round 1 on reach K
    by round K, so rounds 0..K short of K samples are a ScheduleError."""
    if K < 1:
        raise ScheduleError("budget K must be positive")
    _walk(sched, K + 1, K)
    if sched._cum[-1] < K:
        raise ScheduleError(f"rounds 0..{K} hold fewer than K={K} samples")
    return bisect.bisect_left(sched._cum, K) - 1


def _walk(sched: SampleSchedule, rounds: int, K) -> None:
    """Extend the prefix sums to index `rounds` or to the first sum >= K."""
    cum = sched._cum
    block = _FIRST_BLOCK
    while len(cum) <= rounds and cum[-1] < K:
        i = len(cum) - 1
        sizes, scalar = _block_sizes(sched, i, min(i + block, rounds))
        block = min(2 * block, _MAX_BLOCK)
        total, done = cum[-1], 0
        for j in scalar:
            total += sum(sizes[done:j])  # the samples of rounds before i + j
            if total >= K:
                break
            sizes[j] = sample_size(sched, i + j)
            done = j
        # Python ints: an int64 cumsum would wrap silently
        sums = list(itertools.accumulate(sizes, initial=cum[-1]))
        cum.extend(sums[1:bisect.bisect_left(sums, K, 1) + 1])
