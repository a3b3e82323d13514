"""Schedule construction and the delay-compatibility properties."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from asyncsgd import harness, schedules
from asyncsgd.schedules import (DelayFunction, SampleSchedule,
                                ScheduleError, StepSchedule, eval_delay,
                                sample_size, round_step, per_iteration_step,
                                verify_delay_compatibility,
                                make_strongly_convex_schedules,
                                rounds_for_budget)


# ---------------------------------------------------------------------------
# eval_delay
# ---------------------------------------------------------------------------

def test_eval_delay_perfect_square():
    df = DelayFunction(g=2.0, M0=1.0, M1=3.0)
    assert eval_delay(df, 3.0) == 5.0


def test_eval_delay_zero_case():
    df = DelayFunction(g=2.0, M0=0.0, M1=0.0)
    assert eval_delay(df, 0.0) == 0.0


def test_eval_delay_strongly_convex_constants():
    # M0 = (m+1)^2/4 with m=7747; value frozen from an independent
    # evaluation of M1 + sqrt(M0 / (4 ln M0))
    m = 7747
    M0 = (m + 1) ** 2 / 4.0
    df = DelayFunction(g=2.0, M0=M0, M1=72.0,
                       gamma=schedules.GAMMA_FOUR_LOG)
    expected = 72.0 + math.sqrt(M0 / (4.0 * math.log(M0)))
    assert eval_delay(df, 0.0) == pytest.approx(548.5087737416342, rel=1e-12)
    assert eval_delay(df, 0.0) == pytest.approx(expected, rel=1e-12)


def test_eval_delay_domain_errors():
    df = DelayFunction(g=2.0, M0=1.0, M1=0.0)
    with pytest.raises(ScheduleError):
        eval_delay(df, -1.0)
    df_log = DelayFunction(g=2.0, M0=0.5, M1=0.0,
                           gamma=schedules.GAMMA_FOUR_LOG)
    with pytest.raises(ScheduleError):
        eval_delay(df_log, 0.0)  # z = 0.5 <= 1


def test_delay_constructor_rejects_bad_params():
    with pytest.raises(ScheduleError):
        DelayFunction(g=1.0, M0=0.0, M1=0.0)
    with pytest.raises(ScheduleError):
        DelayFunction(g=2.0, M0=-1.0, M1=0.0)


# ---------------------------------------------------------------------------
# sample_size
# ---------------------------------------------------------------------------

def test_matched_log_s0_is_16():
    sched = SampleSchedule.matched_log(m=7747, d=1)
    assert sample_size(sched, 0) == 16


def test_matched_power_first_values():
    # g=2, d=0, m=0 reduces to ceil((i+1)/2)
    sched = SampleSchedule.matched_power(g=2.0, m=0, d=0)
    assert [sample_size(sched, i) for i in range(5)] == [1, 1, 2, 2, 3]


def test_power_law_linear():
    sched = SampleSchedule.power_law(a=50.0, b=0.0, c=1.0)
    assert sample_size(sched, 3) == 150
    assert sample_size(sched, 0) == 0  # first non-empty round is i=1


def test_sample_size_beyond_int64_is_schedule_error():
    sched = SampleSchedule.power_law(a=1.0, c=1000.0)
    assert sample_size(sched, 1) == 1
    # s_2 = 2**1000 is a float but no int64; 3.0**1000 overflows the float
    # range itself
    for i in (2, 3):
        with pytest.raises(ScheduleError, match=f"s_{i} exceeds 2\\*\\*63"):
            sample_size(sched, i)
    assert sample_size(SampleSchedule.constant(2 ** 63 - 1), 0) == 2 ** 63 - 1
    with pytest.raises(ScheduleError):
        sample_size(SampleSchedule.constant(2 ** 63), 0)


def test_round_index_must_be_non_negative():
    sched = SampleSchedule.constant(5)
    with pytest.raises(ScheduleError, match="round index must be "
                                            "non-negative, got -1"):
        sample_size(sched, -1)
    with pytest.raises(ScheduleError, match="round index must be "
                                            "non-negative, got -1"):
        round_step(StepSchedule.constant(0.1), sched, -1)


def test_unknown_sample_schedule_kind():
    with pytest.raises(ScheduleError,
                       match="unknown sample schedule kind 'bogus'"):
        sample_size(SampleSchedule(kind="bogus"), 0)


def test_explicit_and_constant():
    sched = SampleSchedule.explicit([5, 7])
    assert sample_size(sched, 0) == 5 and sample_size(sched, 1) == 7
    with pytest.raises(ScheduleError):
        sample_size(sched, 2)
    assert sample_size(SampleSchedule.constant(100), 12345) == 100


def test_prefix_sum():
    sched = SampleSchedule.explicit([3, 4, 5])
    assert [sched.prefix_sum(i) for i in range(4)] == [0, 3, 7, 12]
    assert sched.prefix_sums(3) == [0, 3, 7, 12]


def test_prefix_sums_beyond_int64_is_schedule_error():
    sched = SampleSchedule.constant(2 ** 62)
    assert sched.prefix_sums(1) == [0, 2 ** 62]
    with pytest.raises(ScheduleError, match="2\\*\\*63"):
        sched.prefix_sums(2)


def test_matched_log_domain_rejected():
    with pytest.raises(ScheduleError):
        SampleSchedule.matched_log(m=2, d=1)  # (m+1)/(2(d+1)) < e


@pytest.mark.parametrize("kind,params", [
    ("matched_power", dict(g=2.0, m=0, d=1)),
    ("matched_log", dict(m=7747, d=1)),
])
def test_matched_schedules_nondecreasing(kind, params):
    sched = getattr(SampleSchedule, kind)(**params)
    vals = [sample_size(sched, i) for i in range(500)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("what,spec,expected", [
    ("samples", {"kind": "constant", "s": 7}, SampleSchedule.constant(7)),
    ("samples", {"kind": "power_law", "a": 2.0, "b": 1.0},
     SampleSchedule.power_law(2.0, 1.0)),
    ("samples", {"kind": "power_law", "a": 50, "c": 0.5},
     SampleSchedule.power_law(50.0, c=0.5)),
    ("samples", {"kind": "matched_power", "g": 3.0, "m": 4, "d": 2},
     SampleSchedule.matched_power(3.0, m=4, d=2)),
    ("samples", {"kind": "matched_log", "m": 100, "d": 1},
     SampleSchedule.matched_log(m=100, d=1)),
    ("samples", {"kind": "explicit", "values": [1, 2, 3]},
     SampleSchedule.explicit([1, 2, 3])),
    ("steps", {"kind": "constant", "eta": 0.1}, StepSchedule.constant(0.1)),
    ("steps", {"kind": "inverse_t", "eta0": 0.1, "beta": 0.01},
     StepSchedule.inverse_t(0.1, 0.01)),
    ("steps", {"kind": "inverse_sqrt_t", "eta0": 0.1, "beta": 0.01,
               "mode": "per_iteration"},
     StepSchedule.inverse_sqrt_t(0.1, 0.01, schedules.PER_ITERATION)),
    ("steps", {"kind": "strongly_convex_round", "mu": 1.0, "M0": 100.0,
               "M1": 5.0},
     StepSchedule.strongly_convex_round(1.0, 100.0, 5.0)),
    ("delay", {"g": 2.0, "M0": 3.0, "M1": 1.0, "gamma": "four_log"},
     DelayFunction(g=2.0, M0=3.0, M1=1.0, gamma=schedules.GAMMA_FOUR_LOG)),
    ("delay", {"g": 2, "M0": 0, "M1": 1}, DelayFunction(2.0, 0.0, 1.0)),
])
def test_json_spec_builds_constructor_object(what, spec, expected):
    builders = {"samples": harness.SAMPLES, "steps": harness.STEPS,
                "delay": harness.DELAYS}[what]
    key = None if what == "delay" else "kind"
    built = harness.build_spec(what, builders, json.loads(json.dumps(spec)),
                               key=key)
    assert built == expected
    if what == "samples":
        assert [sample_size(built, i) for i in range(3)] == \
            [sample_size(expected, i) for i in range(3)]


# ---------------------------------------------------------------------------
# verify_delay_compatibility
# ---------------------------------------------------------------------------

def test_compat_matched_power_sweep():
    sched = SampleSchedule.matched_power(g=2.0, m=0, d=0)
    df = DelayFunction(g=2.0, M0=0.25, M1=2.0)
    ok, bad = verify_delay_compatibility(sched, df, d=0, i_max=10 ** 4)
    assert ok and bad is None
    # spot value at i=4: tau(9) = 2 + sqrt(9.25) >= 1 + s_4
    assert eval_delay(df, 9.0) == pytest.approx(2.0 + math.sqrt(9.25))
    assert eval_delay(df, 9.0) >= 1 + sample_size(sched, 4)


def test_compat_constant_with_sqrt_delay_fails():
    sched = SampleSchedule.constant(100)
    df = DelayFunction(g=2.0, M0=0.0, M1=0.0)  # tau(x) = sqrt(x)
    ok, bad = verify_delay_compatibility(sched, df, d=1, i_max=10)
    assert not ok
    assert bad == 1  # tau(200) ~ 14.1 < 201


def test_compat_explicit_single_term():
    sched = SampleSchedule.explicit([1])
    df = DelayFunction(g=2.0, M0=4.0, M1=1.0)  # tau(1) = 1 + sqrt(5) >= 2
    ok, _bad = verify_delay_compatibility(sched, df, d=0, i_max=0)
    assert ok


def verify_oracle(sched, df, d, i_max):
    """The round-by-round scalar check the array version replaced."""
    total, window = 0, []
    for i in range(i_max + 1):
        s_i = sample_size(sched, i)
        total += s_i
        window = (window + [s_i])[-(d + 1):]
        if i >= d and eval_delay(df, float(total)) < 1 + sum(window):
            return False, i
    return True, None


@pytest.mark.parametrize("sched", [
    SampleSchedule.constant(5), SampleSchedule.power_law(a=2.0, c=1.0),
    SampleSchedule.power_law(a=0.5, c=1.5, b=3.0),
    SampleSchedule.matched_power(g=2.0, m=0, d=0),
    SampleSchedule.matched_log(m=7747, d=1)])
@pytest.mark.parametrize("df", [
    DelayFunction(g=2.0, M0=0.0, M1=0.0),
    DelayFunction(g=2.0, M0=0.0, M1=12.0),
    DelayFunction(g=1.5, M0=3.0, M1=40.0),
    DelayFunction(g=2.0, M0=100.0, M1=9.0, gamma=schedules.GAMMA_FOUR_LOG)])
@pytest.mark.parametrize("d", [0, 1, 3])
def test_verify_delay_compatibility_matches_scalar_loop(sched, df, d):
    assert verify_delay_compatibility(sched, df, d, i_max=400) == \
        verify_oracle(sched, df, d, i_max=400)


samples_schedules = st.one_of(
    st.builds(SampleSchedule.constant, st.integers(1, 40)),
    st.builds(SampleSchedule.power_law, st.floats(0.5, 5.0),
              st.floats(0.0, 5.0), st.floats(0.0, 2.0)),
    st.builds(SampleSchedule.matched_power, st.floats(1.2, 4.0),
              st.integers(0, 20), st.integers(0, 3)),
    st.builds(SampleSchedule.matched_log, st.integers(16, 400),
              st.integers(0, 2)))
delay_functions = st.one_of(
    st.builds(DelayFunction, st.floats(1.1, 4.0), st.floats(0.0, 50.0),
              st.floats(0.0, 60.0)),
    st.builds(DelayFunction, st.floats(1.1, 4.0), st.floats(2.0, 5000.0),
              st.floats(0.0, 60.0), st.just(schedules.GAMMA_FOUR_LOG)))


# tau(4) = 3 + sqrt(4) = 1 + s_0 holds with equality, which passes; rounds
# 1..10 of the second pair fail, and with i_max < d no round is checked
@settings(max_examples=300, deadline=None)
@given(sched=samples_schedules, df=delay_functions, d=st.integers(0, 6),
       i_max=st.integers(0, 40))
@example(sched=SampleSchedule.constant(4),
         df=DelayFunction(2.0, 0.0, 3.0), d=0, i_max=5)
@example(sched=SampleSchedule.constant(100),
         df=DelayFunction(2.0, 0.0, 0.0), d=11, i_max=10)
@example(sched=SampleSchedule.constant(100),
         df=DelayFunction(2.0, 0.0, 0.0), d=10 ** 30, i_max=10)
def test_verify_delay_compatibility_property(sched, df, d, i_max):
    """Any schedule, delay function, d and i_max, also i_max < d, gets the
    verdict of the round-by-round scalar loop."""
    assert verify_delay_compatibility(sched, df, d, i_max) == \
        verify_oracle(sched, df, d, i_max)


def delay_range(df, x_max):
    xs = np.arange(x_max + 1, dtype=float)
    scalar = np.array([eval_delay(df, x) for x in xs.tolist()])
    return eval_delay(df, xs), scalar


# The strongly convex delay function of the sc-quad and audit-tau-wide
# benchmark workloads (quadratic, mu = L = 1, d = 1, m = 7747) over every
# t of their tables, and two gamma = 1 functions over the same range.
SC_DELAY = make_strongly_convex_schedules(1.0, 1.0, 1, 7747)[0]


@pytest.mark.parametrize("df", [
    SC_DELAY, DelayFunction(g=2.0, M0=0.0, M1=3.0),
    DelayFunction(g=3.0, M0=0.0, M1=1.0)])
def test_eval_delay_array_has_the_scalar_floor_and_ceil(df):
    sched = SampleSchedule.matched_log(m=7747, d=1)
    rows = rounds_for_budget(sched, 10 ** 5) + 1 + 6
    array, scalar = delay_range(df, sched.prefix_sum(rows))
    # tau is compared only with integers, and such a verdict can differ
    # only if an integer lies between the two values
    assert np.array_equal(np.floor(array), np.floor(scalar))
    assert np.array_equal(np.ceil(array), np.ceil(scalar))
    # values near an integer are the scalar ones, bit for bit
    near = np.abs(array - np.rint(array)) <= 1e-6
    assert near.any()
    assert np.array_equal(array[near], scalar[near])


def test_eval_delay_array_domain_errors():
    with pytest.raises(ScheduleError):
        eval_delay(DelayFunction(g=2.0, M0=1.0, M1=0.0), np.array([3.0, -1.0]))
    df_log = DelayFunction(g=2.0, M0=0.5, M1=0.0,
                           gamma=schedules.GAMMA_FOUR_LOG)
    with pytest.raises(ScheduleError):
        eval_delay(df_log, np.array([0.0, 5.0]))
    assert eval_delay(df_log, np.array([])).shape == (0,)


@pytest.mark.parametrize("g", [2.0, 3.0])
@pytest.mark.parametrize("d", [0, 1, 2])
@pytest.mark.parametrize("m", [0, 10])
def test_matched_power_window_grid(g, d, m):
    """The power schedule and its companion delay satisfy the window
    inequality on the whole grid, up to i = 10^4."""
    sched = SampleSchedule.matched_power(g=g, m=m, d=d)
    M0 = ((m + 1) * (g - 1) / g) ** (g / (g - 1))
    df = DelayFunction(g=g, M0=M0, M1=float(d + 2))
    ok, bad = verify_delay_compatibility(sched, df, d=d, i_max=10 ** 4)
    assert ok, f"violated at i={bad}"


def test_strongly_convex_schedule_compat_10k():
    df, sched, _steps = make_strongly_convex_schedules(mu=1.0, L=1.0,
                                                       d=1, m=7747)
    ok, bad = verify_delay_compatibility(sched, df, d=1, i_max=10 ** 4)
    assert ok, f"violated at i={bad}"


# ---------------------------------------------------------------------------
# make_strongly_convex_schedules
# ---------------------------------------------------------------------------

def test_strongly_convex_constants():
    df, sched, steps = make_strongly_convex_schedules(mu=1.0, L=1.0,
                                                      d=1, m=7747)
    assert df.M1 == 72.0  # max of {3, 72, 8}
    assert df.M0 == (7747 + 1) ** 2 / 4.0
    assert sample_size(sched, 0) == 16
    assert round_step(steps, sched, 0) == pytest.approx(
        0.010938749364155474, rel=1e-14)


def test_strongly_convex_M1_dominated_by_L():
    df, _sched, _steps = make_strongly_convex_schedules(mu=1.0, L=1000.0,
                                                        d=1, m=7747)
    assert df.M1 == 72000.0


def test_strongly_convex_rejects_small_m():
    with pytest.raises(ScheduleError):
        make_strongly_convex_schedules(mu=1.0, L=1.0, d=1, m=3)


@pytest.mark.parametrize("mu,L,d,match", [
    (0.0, 1.0, 1, "mu must be positive"),
    (2.0, 1.0, 1, "L must be >= mu"),
    (1.0, 1.0, -1, "m and d must be non-negative integers")])
def test_strongly_convex_rejects_bad_constants(mu, L, d, match):
    with pytest.raises(ScheduleError, match=match):
        make_strongly_convex_schedules(mu=mu, L=L, d=d, m=7747)


# ---------------------------------------------------------------------------
# round_step / per_iteration_step
# ---------------------------------------------------------------------------

def test_round_step_inverse_t_linear_samples():
    steps = StepSchedule.inverse_t(eta0=0.01, beta=0.001)
    sched = SampleSchedule.power_law(a=50.0)
    # t = s_0 + s_1 = 0 + 50
    assert round_step(steps, sched, 2) == pytest.approx(
        0.009523809523809523, rel=1e-15)


def test_round_step_constant_and_sqrt():
    sched = SampleSchedule.constant(100)
    assert round_step(StepSchedule.constant(0.0025), sched, 17) == 0.0025
    st = StepSchedule.inverse_sqrt_t(eta0=0.1, beta=0.01)
    assert round_step(st, sched, 0) == 0.1


def test_per_iteration_step_values():
    st = StepSchedule.inverse_t(eta0=0.1, beta=0.001)
    assert per_iteration_step(st, 0) == 0.1
    assert per_iteration_step(st, 1000) == pytest.approx(0.05)
    st2 = StepSchedule.inverse_sqrt_t(eta0=0.1, beta=0.01)
    assert per_iteration_step(st2, 10000) == pytest.approx(0.05)
    sc = StepSchedule.strongly_convex_round(1.0, 100.0, 5.0)
    with pytest.raises(ScheduleError):
        per_iteration_step(sc, 0)


@pytest.mark.parametrize("make_steps,make_samples", [
    (lambda: StepSchedule.inverse_t(0.1, 0.001),
     lambda: SampleSchedule.constant(10)),
    (lambda: StepSchedule.inverse_sqrt_t(0.1, 0.01),
     lambda: SampleSchedule.power_law(5.0, b=1.0)),
    (lambda: make_strongly_convex_schedules(1.0, 1.0, 1, 7747)[2],
     lambda: make_strongly_convex_schedules(1.0, 1.0, 1, 7747)[1]),
])
def test_step_monotonicity(make_steps, make_samples):
    steps, samples = make_steps(), make_samples()
    vals = [round_step(steps, samples, i) for i in range(0, 10 ** 4, 37)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_step_delay_ratio_bound():
    """alpha_t = eta_t * mu * (t + 2 tau(t)) stays within [12, 36] for the
    strongly convex round schedule over the first 100 rounds."""
    df, sched, steps = make_strongly_convex_schedules(mu=1.0, L=1.0,
                                                      d=1, m=7747)
    for i in range(101):
        t = sched.prefix_sum(i)
        eta = round_step(steps, sched, i)
        alpha = eta * 1.0 * (t + 2.0 * eval_delay(df, float(t)))
        assert 12.0 - 1e-9 <= alpha <= 36.0 + 1e-9, (i, alpha)


# ---------------------------------------------------------------------------
# rounds_for_budget
# ---------------------------------------------------------------------------

def test_rounds_for_budget():
    assert rounds_for_budget(SampleSchedule.constant(100), 20000) == 199
    assert rounds_for_budget(SampleSchedule.power_law(50.0), 20000) == 28
    assert rounds_for_budget(SampleSchedule.explicit([5]), 5) == 0


def test_rounds_for_budget_rejects_empty_budget():
    with pytest.raises(ScheduleError, match="budget K must be positive"):
        rounds_for_budget(SampleSchedule.constant(5), 0)


def test_rounds_for_budget_brute_force():
    sched = SampleSchedule.power_law(50.0)
    T = rounds_for_budget(sched, 20000)
    assert sum(sample_size(sched, j) for j in range(T + 1)) >= 20000
    assert sum(sample_size(sched, j) for j in range(T)) < 20000


@pytest.mark.parametrize("K", [10 ** 3, 10 ** 5, 10 ** 7])
def test_communication_sublinearity(K):
    a = 50.0
    T = rounds_for_budget(SampleSchedule.power_law(a), K)
    assert T <= 2.0 * math.sqrt(2.0 * K / a)


def test_growth_rates():
    power = SampleSchedule.matched_power(g=2.0, m=0, d=0)
    ratios = [sample_size(power, i) / i for i in range(1000, 10001, 1000)]
    assert max(ratios) / min(ratios) < 1.05

    log_sched = SampleSchedule.matched_log(m=7747, d=1)
    vals = [sample_size(log_sched, i) * math.log(i) / i
            for i in range(10 ** 5, 10 ** 6 + 1, 10 ** 5)]
    assert max(vals) / min(vals) < 1.2
