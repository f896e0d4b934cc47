"""State flow: interpolation targets, the clean-state predictor, integration.

Training data interpolates each generated component's coordinates between
its seeded prior state and its target, on the component's clipped local
clock, with Gaussian noise applied throughout.  Sampling integrates the
predicted vector field (clean estimate minus current state) with one of two
rate conventions:

* ``paper``: step fraction ``kappa * dt`` with ``kappa = min(t_end - t,
  dt) / t_window``; a component landing past its window end is snapped
  exactly onto its predicted clean state, which is what actually completes
  the interpolation in this mode.
* ``rectified``: step fraction ``min(1, dt / (t_end - t))``, which tracks
  the linear interpolant and reaches the clean state at the window end
  without relying on the snap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .compstate import (
    ComposedObject,
    PlanStep,
    SynthonLibrary,
    decompose,
    replay_actions,
)
from .errors import InvariantError, NumericalError
from .nn import Eval, ParamStore, Tape, adam_step, mlp_apply, register_mlp
from .schedule import Schedule, kappa, t_end_step, t_local_from_steps
from .seeding import rng_from

HIDDEN = 64


# ---------------------------------------------------------------------------
# Featurization (shared with the policy model)
# ---------------------------------------------------------------------------


def feature_dim(sched: Schedule) -> int:
    # coords(2) + self-cond coords(2) + local time(1) + attachment flag(1)
    # + component one-hot + synthon klass summary(2)
    return 8 + sched.max_components


def featurize_points(
    x: ComposedObject, t_step: int, sched: Schedule, library: SynthonLibrary
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Per-point feature matrix and (offset, length) slices per component.

    The attachment flag is signed by klass (+1 alpha, -1 beta, 0 plain) and
    the klass summary carries the owning synthon's attachment-klass counts,
    so a point's role is decodable locally rather than only through pooling.
    Those columns and the component one-hot depend only on the components,
    so they are built once per component tuple (``_static_features``); each
    call copies them and fills in the states, self-conditioning and local
    time.
    """
    static, slices = _static_features(x, sched, library)
    feats = static.copy()
    for (offset, m), comp, states, cond in zip(slices, x.components, x.states, x.self_cond):
        rows = feats[offset : offset + m]
        rows[:, 0:2] = states
        rows[:, 2:4] = cond
        rows[:, 4] = t_local_from_steps(t_step, comp.t_gen_step, sched)
    return feats, list(slices)


def _static_features(
    x: ComposedObject, sched: Schedule, library: SynthonLibrary
) -> tuple[np.ndarray, tuple[tuple[int, int], ...]]:
    """The read-only attachment-flag, component one-hot and klass-summary
    columns of ``x`` (the rest zero) and its slices, memoised on the
    library."""
    mc = sched.max_components
    key = (mc, x.components)
    hit = library.static_features.get(key)
    if hit is not None:
        return hit
    roles = library.point_roles
    try:
        blocks = [roles[comp.synthon_id] for comp in x.components]
    except KeyError as exc:
        raise InvariantError(f"unknown synthon id {exc.args[0]!r}") from None
    static = np.zeros((sum(b.shape[0] for b in blocks), feature_dim(sched)))
    slices = []
    offset = 0
    for i, block in enumerate(blocks):
        m = block.shape[0]
        rows = static[offset : offset + m]
        rows[:, 5] = block[:, 0]
        rows[:, 6 + min(i, mc - 1)] = 1.0
        rows[:, 6 + mc : 8 + mc] = block[:, 1:]
        slices.append((offset, m))
        offset += m
    static.flags.writeable = False
    hit = library.static_features[key] = (static, tuple(slices))
    return hit


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


@dataclass
class StateFlowModel:
    """Per-point MLP encoder, mean-pooled set context, per-point 2D head."""

    store: ParamStore
    sched: Schedule
    library: SynthonLibrary

    @classmethod
    def create(
        cls, sched: Schedule, library: SynthonLibrary, seed: int
    ) -> "StateFlowModel":
        store = ParamStore()
        rng = rng_from(seed, "stateflow-init")
        f = feature_dim(sched)
        register_mlp(store, "sf.enc", [f, HIDDEN, HIDDEN], rng)
        register_mlp(store, "sf.head", [2 * HIDDEN, HIDDEN, 2], rng)
        return cls(store=store, sched=sched, library=library)

    def forward(self, ops, feats: np.ndarray):
        """Per-point clean-state estimates; ``ops`` is a Tape or an Eval."""
        h = ops.silu(mlp_apply(ops, "sf.enc", ops.const(feats), 2))
        hc = ops.concat_cols(h, ops.broadcast_rows(ops.mean_rows(h), feats.shape[0]))
        return mlp_apply(ops, "sf.head", hc, 2)

    def predict(self, x: ComposedObject, t_step: int) -> list[np.ndarray]:
        """Clean-state estimates per component (tape-free)."""
        feats, slices = featurize_points(x, t_step, self.sched, self.library)
        out = self.forward(Eval(self.store), feats)
        return [out[o : o + m] for o, m in slices]


# ---------------------------------------------------------------------------
# Interpolation (training-data construction)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoisySample:
    x_t: ComposedObject
    t_step: int
    t_locals: tuple[float, ...]
    targets: tuple[np.ndarray, ...]


def interpolate(
    plan: list[PlanStep],
    t_step: int,
    sigma: float,
    sched: Schedule,
    library: SynthonLibrary,
    rng: np.random.Generator | None = None,
    sample_seed: int | None = None,
) -> NoisySample:
    """Noisy object state at grid time ``t_step`` along a construction plan.

    A component exists strictly after its generation time.  Its state is
    ``N(u * S1 + (1 - u) * S0, sigma^2)`` with ``u`` its local time and
    ``S0`` drawn through the size-based seed rule, so the prior coordinates
    here match the ones the sampler would draw for the same prefix.
    """
    if sample_seed is None:
        if rng is None:
            raise InvariantError("interpolate needs an rng or an explicit sample_seed")
        sample_seed = int(rng.integers(1 << 63))
    if sigma > 0 and rng is None:
        raise InvariantError("sigma > 0 requires an rng")

    k = sum(1 for i in range(len(plan)) if i * sched.lam_steps < t_step)
    x = replay_actions([s.action for s in plan[:k]], library, sched, sample_seed)
    states = []
    t_locals = []
    targets = []
    for i in range(k):
        u = t_local_from_steps(t_step, i * sched.lam_steps, sched)
        s0 = x.states[i]
        s1 = plan[i].s1
        mean = u * s1 + (1.0 - u) * s0
        if sigma > 0:
            mean = mean + rng.normal(0.0, sigma, size=mean.shape)
        states.append(mean)
        t_locals.append(u)
        targets.append(s1.copy())
    x_t = x.with_states(states, self_cond=[s.copy() for s in states]) if k else x
    return NoisySample(x_t=x_t, t_step=t_step, t_locals=tuple(t_locals), targets=tuple(targets))


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------


def state_loss(model: StateFlowModel, tape: Tape, batch: list[NoisySample]) -> int:
    """Mean over the batch of summed squared clean-state errors."""
    if not batch:
        raise InvariantError("state_loss on an empty batch")
    total: int | None = None
    for sample in batch:
        if not sample.targets:
            continue
        feats, _ = featurize_points(sample.x_t, sample.t_step, model.sched, model.library)
        pred = model.forward(tape, feats)
        target = tape.const(np.concatenate(sample.targets, axis=0))
        diff = tape.sub(pred, target)
        sq = tape.sum_all(tape.mul(diff, diff))
        total = sq if total is None else tape.add(total, sq)
    if total is None:
        raise InvariantError("state_loss batch has no generated components")
    return tape.scale(total, 1.0 / len(batch))


# ---------------------------------------------------------------------------
# Euler integration
# ---------------------------------------------------------------------------


def euler_rollout(
    x: ComposedObject,
    model: StateFlowModel,
    sched: Schedule,
    from_step: int,
    to_step: int,
    snap: bool = True,
    cache: dict | None = None,
) -> ComposedObject:
    """Integrate states from ``from_step`` to ``to_step`` (grid indices).

    Each step predicts clean states (stored as the new self-conditioning),
    advances every generated component at its schedule rate, then snaps any
    component whose window has closed onto its prediction.  No compositional
    action may fire strictly inside the interval.

    ``cache`` is a caller-owned dict of earlier rollouts under this same
    frozen ``model`` and ``sched``.  Its key is the whole input (components,
    interval, ``snap`` and the bytes of the states and self-conditioning),
    so a hit is exactly the object a fresh integration returns.  Cached
    objects are shared between callers, so their arrays are read-only.
    """
    if not from_step <= to_step <= sched.n_steps:
        raise InvariantError(f"invalid rollout interval [{from_step}, {to_step}]")
    if cache is None:
        return _integrate(x, model, sched, from_step, to_step, snap)
    key = (
        x.components,
        from_step,
        to_step,
        snap,
        b"".join(s.tobytes() for s in x.states),
        b"".join(c.tobytes() for c in x.self_cond),
    )
    out = cache.get(key)
    if out is None:
        out = _integrate(x, model, sched, from_step, to_step, snap)
        for arr in out.states + out.self_cond:
            arr.flags.writeable = False
        cache[key] = out
    return out


def _integrate(
    x: ComposedObject,
    model: StateFlowModel,
    sched: Schedule,
    from_step: int,
    to_step: int,
    snap: bool,
) -> ComposedObject:
    # Kept apart from euler_rollout so a cache miss integrates without
    # re-entering the public function.
    if not x.components:
        return x
    ends = [t_end_step(comp.t_gen_step, sched) for comp in x.components]
    paper = sched.integrator_mode == "paper"
    dt = sched.dt
    for s in range(from_step, to_step):
        preds = tuple(np.array(p, dtype=np.float64) for p in model.predict(x, s))
        for i, p in enumerate(preds):
            if not np.isfinite(p).all():
                raise NumericalError(
                    f"state-flow prediction not finite at step {s}, component {i}"
                )
        new_states = []
        for state, pred, end in zip(x.states, preds, ends):
            if paper:
                state = state + (pred - state) * (kappa(s, end, sched) * dt)
            else:
                remaining = end - s
                if remaining > 0:
                    state = state + (pred - state) * min(1.0, 1.0 / remaining)
            if snap and s + 1 >= end:
                state = pred
            new_states.append(state)
        x = ComposedObject(
            components=x.components,
            states=tuple(new_states),
            self_cond=preds,
            open_attachments=x.open_attachments,
        )
    return x


# ---------------------------------------------------------------------------
# Trainer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StateFlowHyper:
    sigma: float = 0.05
    sigma_data: float = 0.05
    batch: int = 64
    iters: int = 2000
    lr: float = 5e-3
    self_cond_prob: float = 0.5

    def lr_at(self, it: int) -> float:
        # cosine decay to lr/10: fast early fit, low steady-state noise late
        frac = it / max(1, self.iters - 1)
        return self.lr * (0.1 + 0.9 * 0.5 * (1.0 + np.cos(np.pi * frac)))


def _with_predicted_self_cond(
    model: StateFlowModel, sample: NoisySample
) -> NoisySample:
    preds = model.predict(sample.x_t, sample.t_step)
    x2 = sample.x_t.with_states(sample.x_t.states, self_cond=preds)
    return replace(sample, x_t=x2)


def train_stateflow(
    dataset: list[ComposedObject],
    sched: Schedule,
    library: SynthonLibrary,
    hyper: StateFlowHyper,
    run_seed: int,
) -> tuple[StateFlowModel, list[dict]]:
    """Simulation-free minibatch Adam on the clean-state regression loss.

    Self-conditioning scheme: with probability ``self_cond_prob`` per batch,
    a no-gradient forward pass supplies the conditioning estimates;
    otherwise the noisy states themselves are fed back.
    """
    if not dataset:
        raise InvariantError("empty dataset")
    model = StateFlowModel.create(sched, library, seed=run_seed)
    rng = rng_from(run_seed, "train-stateflow")
    metrics: list[dict] = []
    recent: list[float] = []
    for it in range(hyper.iters):
        t0 = time.perf_counter()
        batch = []
        for _ in range(hyper.batch):
            obj = dataset[int(rng.integers(len(dataset)))]
            plan = decompose(obj, library, rng=rng)
            t_step = int(rng.integers(1, sched.n_steps + 1))
            sample_seed = int(rng.integers(1 << 63))
            batch.append(
                interpolate(plan, t_step, hyper.sigma, sched, library, rng, sample_seed)
            )
        if rng.random() < hyper.self_cond_prob:
            batch = [_with_predicted_self_cond(model, s) for s in batch]
        tape = Tape(model.store)
        loss_node = state_loss(model, tape, batch)
        grads = tape.backward(loss_node)
        lr = hyper.lr_at(it)
        adam_step(model.store, grads, lr=lr)
        loss = float(tape.value(loss_node))
        recent.append(loss)
        if len(recent) > 100:
            recent.pop(0)
        row = {
            "iter": it,
            "loss": loss,
            "running_loss": float(np.mean(recent)),
            "lr": lr,
            "wall_ms": (time.perf_counter() - t0) * 1000.0,
        }
        metrics.append(row)
    return model, metrics
