"""Time arithmetic for the joint flow on an exact integer step grid.

Global time runs over [0, 1] in ``n_steps`` Euler steps.  Every time value
used by the sampler and the trainers is ``k * dt`` for an integer ``k``, so
action-firing tests ("is this an action step?") and window-end comparisons
are exact integer operations rather than floating-point ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

INTEGRATOR_MODES = ("paper", "rectified")


class ScheduleError(ValueError):
    """Raised when a schedule's parameters violate the grid invariants."""


def _as_exact_steps(value: float, n_steps: int, what: str) -> int:
    steps = value * n_steps
    rounded = round(steps)
    if abs(steps - rounded) > 1e-9 or rounded < 1:
        raise ScheduleError(
            f"{what}={value} does not land on the step grid (n_steps={n_steps}, "
            f"{what}*n_steps={steps})"
        )
    return int(rounded)


@dataclass(frozen=True)
class Schedule:
    """Timing of compositional actions and per-component interpolation windows.

    ``lam`` is the time fraction between consecutive compositional actions,
    ``t_window`` the duration over which one component's continuous state is
    interpolated.  Both must be integer multiples of ``dt = 1/n_steps``.
    """

    lam: float = 0.3
    t_window: float = 1.0
    n_steps: int = 20
    max_components: int = 3
    integrator_mode: str = "paper"

    lam_steps: int = field(init=False)
    window_steps: int = field(init=False)

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ScheduleError(f"n_steps must be positive, got {self.n_steps}")
        if self.max_components < 1:
            raise ScheduleError(f"max_components must be positive, got {self.max_components}")
        if not 0.0 < self.lam <= 1.0:
            raise ScheduleError(f"lambda must lie in (0, 1], got {self.lam}")
        if not 0.0 < self.t_window <= 1.0:
            raise ScheduleError(f"t_window must lie in (0, 1], got {self.t_window}")
        if self.integrator_mode not in INTEGRATOR_MODES:
            raise ScheduleError(f"integrator_mode must be one of {INTEGRATOR_MODES}")
        object.__setattr__(self, "lam_steps", _as_exact_steps(self.lam, self.n_steps, "lambda"))
        object.__setattr__(self, "window_steps", _as_exact_steps(self.t_window, self.n_steps, "t_window"))
        # lambda <= 1 / max_components, checked exactly on the grid: it keeps
        # every generation time at or below 1 - lambda.
        if self.lam_steps * self.max_components > self.n_steps:
            raise ScheduleError(
                f"lambda={self.lam} too large for max_components={self.max_components}: "
                f"need lambda <= 1/{self.max_components}"
            )

    @property
    def dt(self) -> float:
        return 1.0 / self.n_steps


@dataclass(frozen=True, order=True)
class StepTime:
    """A grid time ``step_index / n_steps`` held exactly as integers."""

    step_index: int
    n_steps: int

    def __post_init__(self) -> None:
        if not 0 <= self.step_index <= self.n_steps:
            raise ScheduleError(
                f"step_index {self.step_index} outside [0, {self.n_steps}]"
            )

    @property
    def value(self) -> float:
        return self.step_index / self.n_steps


def step_time(step_index: int, sched: Schedule) -> StepTime:
    return StepTime(step_index, sched.n_steps)


def k_of_t(t: StepTime, sched: Schedule, n: int) -> int:
    """Number of components present at time ``t`` for an ``n``-component object.

    Zero at t=0, otherwise ``min(floor(t/lambda) + 1, n)``.
    """
    if n > sched.max_components:
        raise ScheduleError(f"n={n} exceeds max_components={sched.max_components}")
    if t.step_index == 0:
        return 0
    return min(t.step_index // sched.lam_steps + 1, n)


def t_gen(i: int, sched: Schedule) -> StepTime:
    """Generation time lambda * (i - 1) of the i-th component (1-based)."""
    if not 1 <= i <= sched.max_components:
        raise ScheduleError(f"component index {i} outside [1, {sched.max_components}]")
    return StepTime((i - 1) * sched.lam_steps, sched.n_steps)


def t_gen_step(i: int, sched: Schedule) -> int:
    return t_gen(i, sched).step_index


def t_end_step(t_gen_step_index: int, sched: Schedule) -> int:
    """Step index at which a component's interpolation window closes.

    May exceed ``n_steps`` when the window runs past t=1 (the "till end"
    regime with t_window close to 1).
    """
    return t_gen_step_index + sched.window_steps


def t_local(t: StepTime, t_gen_i: StepTime, sched: Schedule) -> float:
    """Clipped per-component progress ``clip((t - t_gen) / t_window)``.

    Exactly 0 for a component whose generation time has not been reached
    (which doubles as the "not initialized" marker) and exactly 1 once the
    window has fully elapsed.
    """
    return t_local_from_steps(t.step_index, t_gen_i.step_index, sched)


def t_local_from_steps(step_index: int, t_gen_step_index: int, sched: Schedule) -> float:
    delta = step_index - t_gen_step_index
    if delta <= 0:
        return 0.0
    if delta >= sched.window_steps:
        return 1.0
    return delta / sched.window_steps


def kappa(step_index: int, t_end_steps: int, sched: Schedule) -> float:
    """Euler step rate ``min(t_end - t, dt) / t_window`` at grid step
    ``step_index``; zero past the window."""
    remaining = t_end_steps - step_index
    if remaining <= 0:
        return 0.0
    return min(remaining, 1) * sched.dt / sched.t_window


def action_steps(sched: Schedule) -> list[int]:
    """Ascending step indices at which compositional actions may fire.

    Multiples of ``lambda * n_steps`` strictly below ``n_steps``, truncated to
    ``max_components`` entries.
    """
    steps = list(range(0, sched.n_steps, sched.lam_steps))
    return steps[: sched.max_components]
