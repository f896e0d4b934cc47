from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cgflow.schedule import (
    Schedule,
    ScheduleError,
    action_steps,
    k_of_t,
    kappa,
    step_time,
    t_end_step,
    t_gen,
    t_local,
    t_local_from_steps,
)


class TestKOfT:
    def test_zero_time(self, fig2_sched):
        assert k_of_t(step_time(0, fig2_sched), fig2_sched, 4) == 0

    def test_midpoint(self, fig2_sched):
        # floor(0.5 / 0.2) + 1 = 3
        assert k_of_t(step_time(10, fig2_sched), fig2_sched, 4) == 3

    def test_endpoint_capped(self, fig2_sched):
        assert k_of_t(step_time(20, fig2_sched), fig2_sched, 4) == 4

    def test_non_decreasing_and_complete(self, fig2_sched):
        values = [k_of_t(step_time(s, fig2_sched), fig2_sched, 4) for s in range(21)]
        assert values == sorted(values)
        assert values[-1] == 4


class TestTGen:
    def test_first_component_at_origin(self, sched):
        assert t_gen(1, sched).step_index == 0

    def test_third_component_lambda_02(self, fig2_sched):
        assert t_gen(3, fig2_sched).value == pytest.approx(0.4, abs=0)

    def test_third_component_lambda_03(self, sched):
        assert t_gen(3, sched).value == pytest.approx(0.6, abs=0)

    def test_out_of_range(self, sched):
        with pytest.raises(ScheduleError):
            t_gen(4, sched)
        with pytest.raises(ScheduleError):
            t_gen(0, sched)


class TestTLocal:
    def test_interior(self, fig2_sched):
        # (0.5 - 0.2) / 0.4 = 0.75
        v = t_local(step_time(10, fig2_sched), step_time(4, fig2_sched), fig2_sched)
        assert v == 0.75

    def test_clip_low(self, fig2_sched):
        assert t_local(step_time(2, fig2_sched), step_time(4, fig2_sched), fig2_sched) == 0.0

    def test_clip_high(self, fig2_sched):
        assert t_local(step_time(18, fig2_sched), step_time(4, fig2_sched), fig2_sched) == 1.0


class TestKappa:
    def test_window_interior(self):
        s = Schedule(lam=0.2, t_window=0.4, n_steps=20, max_components=4)
        # min(0.4 - 0.1, 0.05) / 0.4
        assert kappa(2, 8, s) == pytest.approx(0.125, abs=0)

    def test_remaining_below_dt(self):
        # same clamp value as with dt=0.05 and 0.02 remaining, on a grid that
        # actually contains t=0.38
        s = Schedule(lam=0.2, t_window=0.4, n_steps=50, max_components=4)
        assert kappa(19, 20, s) == pytest.approx(0.05)

    def test_past_window_is_zero(self):
        s = Schedule(lam=0.2, t_window=0.4, n_steps=20, max_components=4)
        assert kappa(9, 8, s) == 0.0
        assert kappa(8, 8, s) == 0.0

    def test_step_never_exceeds_grid_spacing(self, fig2_sched):
        for s in range(fig2_sched.n_steps):
            for end in range(0, fig2_sched.n_steps + fig2_sched.window_steps):
                rate = kappa(s, end, fig2_sched)
                assert rate * fig2_sched.t_window <= fig2_sched.dt + 1e-15


class TestActionSteps:
    def test_default_config(self):
        s = Schedule(lam=0.3, t_window=1.0, n_steps=20, max_components=3)
        assert action_steps(s) == [0, 6, 12]

    def test_small_grid(self):
        s = Schedule(lam=0.2, t_window=1.0, n_steps=10, max_components=4)
        assert action_steps(s) == [0, 2, 4, 6]

    def test_off_grid_lambda_rejected(self):
        with pytest.raises(ScheduleError):
            Schedule(lam=0.15, t_window=1.0, n_steps=10, max_components=3)

    def test_lambda_too_large_for_components(self):
        with pytest.raises(ScheduleError):
            Schedule(lam=0.3, t_window=1.0, n_steps=20, max_components=4)


class TestScheduleInvariants:
    def test_fig2_local_time_reconstruction(self, fig2_sched):
        # clip((t - 0.2*(i-1)) / 0.4) at t in {0.1, 0.3, 0.5, 0.7, 0.9}
        expected = {
            2: (0.25, 0.0, 0.0, 0.0),
            6: (0.75, 0.25, 0.0, 0.0),
            10: (1.0, 0.75, 0.25, 0.0),
            14: (1.0, 1.0, 0.75, 0.25),
            18: (1.0, 1.0, 1.0, 0.75),
        }
        for step, values in expected.items():
            got = tuple(
                t_local(step_time(step, fig2_sched), t_gen(i, fig2_sched), fig2_sched)
                for i in range(1, 5)
            )
            assert got == values

    def test_t_local_matches_exact_rational_clip(self, fig2_sched):
        for step in range(fig2_sched.n_steps + 1):
            for i in range(1, 5):
                gen = t_gen(i, fig2_sched)
                frac = Fraction(step - gen.step_index, fig2_sched.window_steps)
                frac = min(max(frac, Fraction(0)), Fraction(1))
                assert t_local(step_time(step, fig2_sched), gen, fig2_sched) == float(frac)

    @given(
        step=st.integers(min_value=0, max_value=20),
        gen=st.integers(min_value=0, max_value=16),
    )
    def test_t_local_monotone_unit_slope(self, step, gen):
        s = Schedule(lam=0.2, t_window=0.4, n_steps=20, max_components=4)
        u0 = t_local_from_steps(step, gen, s)
        if step < s.n_steps:
            u1 = t_local_from_steps(step + 1, gen, s)
            assert u1 >= u0
            # interior slope is exactly dt / t_window per step
            if gen < step < step + 1 <= gen + s.window_steps:
                assert u1 - u0 == pytest.approx(s.dt / s.t_window)

    def test_k_of_t_brackets_generation_times(self, fig2_sched):
        for i in range(1, 5):
            gen = t_gen(i, fig2_sched)
            assert k_of_t(gen, fig2_sched, 4) >= i - 1
            nxt = step_time(gen.step_index + 1, fig2_sched)
            assert k_of_t(nxt, fig2_sched, 4) >= i

    def test_t_end_step(self, fig2_sched):
        assert t_end_step(t_gen(1, fig2_sched).step_index, fig2_sched) == 8
        assert t_end_step(t_gen(4, fig2_sched).step_index, fig2_sched) == 20
