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
from typing import Sequence

import numpy as np

from .compstate import (
    ComposedObject,
    PlanStep,
    SynthonLibrary,
    decompose,
    replay_actions,
    row_layout,
)
from .errors import InvariantError, NumericalError
from .nn import Eval, ParamStore, Spans, Tape, adam_step, mlp_apply, register_mlp, stack_rows
from .schedule import Schedule, kappa, t_end_step, t_local_from_steps
from .seeding import rng_from

HIDDEN = 64

# Most point rows :func:`integrate_packed` stacks into one forward.  Larger
# packs cut per-call overhead but grow the per-step matrices and row tables:
# on the oracle-wide benchmark 512 was faster than 256, 1024 and unbounded
# packs, and unbounded ones peaked 11 MB higher than 512 (BENCH_14.json).
PACK_ROWS = 512


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
    call copies them and fills in the states, self-conditioning and per-row
    local time in one block each.
    """
    static, slices = _static_features(x, sched, library)
    if x.states.shape[0] != static.shape[0]:
        raise InvariantError(f"states hold {x.states.shape[0]} rows, want {static.shape[0]} (1 per point)")
    feats = static.copy()
    t_local = [t_local_from_steps(t_step, comp.t_gen_step, sched) for comp in x.components]
    _set_dynamic(feats, x.states, x.self_cond, np.asarray(t_local)[row_layout(x.components, library).owner])
    return feats, list(slices)


def _set_dynamic(rows: np.ndarray, states, cond, t_local) -> None:
    """Fill the coordinate, self-conditioning and local-time columns."""
    rows[:, 0:2] = states
    rows[:, 2:4] = cond
    rows[:, 4] = t_local


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

    def forward(self, ops, feats: np.ndarray, spans: Spans):
        """Per-point clean-state estimates for the stacked point rows of one
        or more objects, ``spans`` holding each object's (offset, rows);
        ``ops`` is a Tape or an Eval.

        The 64-column layers run on the whole stack: their rows come out
        bitwise equal to one object's own product.  The set context (a mean
        over each object's slice) and the 64->2 output layer do not, so they
        run per object."""
        h = ops.silu(mlp_apply(ops, "sf.enc", ops.const(feats), 2))
        hc = ops.concat_cols(h, ops.broadcast_rows(ops.segment_mean(h, spans), spans))
        h = ops.silu(mlp_apply(ops, "sf.head", hc, 1))
        return ops.segment_affine(h, ops.param("sf.head.1.w"), ops.param("sf.head.1.b"), spans)

    def predict_packed(self, feats: np.ndarray, spans: Spans) -> np.ndarray:
        """Tape-free :meth:`forward`: the (rows, 2) clean-state estimates."""
        return self.forward(Eval(self.store), feats, spans)

    def predict(self, x: ComposedObject, t_step: int) -> list[np.ndarray]:
        """Clean-state estimates per component (tape-free)."""
        feats, slices = featurize_points(x, t_step, self.sched, self.library)
        out = self.predict_packed(feats, ((0, feats.shape[0]),))
        return [out[o : o + m] for o, m in slices]


# ---------------------------------------------------------------------------
# Interpolation (training-data construction)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoisySample:
    x_t: ComposedObject
    t_step: int
    t_locals: tuple[float, ...]  # one per generated component
    targets: np.ndarray  # (P, 2) clean states of the generated components


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
    targets = plan_targets(plan[:k])
    t_locals, states = interpolant(x, targets, t_step, sched, library)
    if sigma > 0:
        states = states + rng.normal(0.0, sigma, size=states.shape)
    x_t = x.with_states(states, self_cond=states) if k else x
    return NoisySample(x_t=x_t, t_step=t_step, t_locals=tuple(t_locals), targets=targets)


def plan_targets(steps: Sequence[PlanStep]) -> np.ndarray:
    """The (P, 2) clean states of ``steps``, stacked in plan order."""
    return np.concatenate([s.s1 for s in steps]) if steps else np.zeros((0, 2))


def interpolant(
    x: ComposedObject, targets: np.ndarray, t_step: int, sched: Schedule, library: SynthonLibrary
) -> tuple[list[float], np.ndarray]:
    """Local times ``u`` and noise-free states ``u * S1 + (1 - u) * S0`` at
    ``t_step`` of the components of ``x``, the object that the first steps
    of a plan build, with its prior states S0; S1 is the first rows of
    ``targets`` (:func:`plan_targets` of the plan).  The states are one
    (P, 2) matrix, each row at its component's ``u``."""
    t_locals = [t_local_from_steps(t_step, i * sched.lam_steps, sched) for i in range(len(x.components))]
    u = np.asarray(t_locals)[row_layout(x.components, library).owner][:, None]
    return t_locals, u * targets[: len(u)] + (1.0 - u) * x.states


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------


def state_loss(model: StateFlowModel, tape: Tape, batch: list[NoisySample]) -> int:
    """Mean over the batch of summed squared clean-state errors: one taped
    forward over the stacked point rows of every sample, each sample's
    predictions bitwise what it gets alone."""
    if not batch:
        raise InvariantError("state_loss on an empty batch")
    live = [s for s in batch if len(s.targets)]
    if not live:
        raise InvariantError("state_loss batch has no generated components")
    feats, spans = stack_rows(
        [featurize_points(s.x_t, s.t_step, model.sched, model.library)[0] for s in live]
    )
    pred = model.forward(tape, feats, spans)
    diff = tape.sub(pred, tape.const(np.concatenate([s.targets for s in live])))
    return tape.scale(tape.sum_all(tape.mul(diff, diff)), 1.0 / len(batch))


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
    """Integrate the states of one object from ``from_step`` to ``to_step``
    (grid indices); :func:`integrate_packed` over ``(x,)``.

    ``cache`` is a caller-owned dict of earlier rollouts under this same
    frozen ``model`` and ``sched``, keyed by :func:`rollout_key`, so a hit
    is exactly the object a fresh integration returns.
    """
    if cache is None:
        return integrate_packed((x,), model, sched, from_step, to_step, snap)[0]
    key = rollout_key(x, from_step, to_step, snap)
    out = cache.get(key)
    if out is None:
        # integrate_packed, not euler_rollout: a miss must not re-enter the
        # public function, which a tracer may have rebound
        out = cache[key] = integrate_packed((x,), model, sched, from_step, to_step, snap)[0]
    return out


def rollout_key(x: ComposedObject, from_step: int, to_step: int, snap: bool) -> tuple:
    """Rollout-cache key of integrating ``x`` over ``[from_step, to_step)``:
    the whole input (components, interval, ``snap`` and the bytes of the
    states and self-conditioning).  :func:`integrate_packed` gives each
    object the bits it gets alone, so a packed result may fill the entry."""
    return (x.components, from_step, to_step, snap, x.states.tobytes(), x.self_cond.tobytes())


def integrate_packed(
    xs: Sequence[ComposedObject],
    model: StateFlowModel,
    sched: Schedule,
    from_step: int,
    to_step: int,
    snap: bool = True,
) -> list[ComposedObject]:
    """Integrate the states of several objects over one interval together.

    Each step predicts clean states (stored as the new self-conditioning),
    advances every generated component at its schedule rate, then snaps any
    component whose window has closed onto its prediction.  No compositional
    action may fire strictly inside the interval.

    The objects go in consecutive packs of at most :data:`PACK_ROWS` point
    rows (an object with more rows goes alone; none is split).  A pack's
    points are stacked into one matrix, so a step is one model forward and
    one vectorised update; the static feature columns are built once per
    pack, and the result is split back into per-object matrices once, at
    the end.  Those matrices are read-only row views of the last step's
    matrices, which a pack's objects share.  Each object comes out bitwise
    as it would alone.  An object without components, or a zero-length
    interval, returns the input object itself.
    """
    if not from_step <= to_step <= sched.n_steps:
        raise InvariantError(f"invalid rollout interval [{from_step}, {to_step}]")
    out = list(xs)
    live = [j for j, x in enumerate(xs) if x.components] if to_step > from_step else []
    packs: list[list[int]] = []
    rows = 0
    for j in live:
        m = xs[j].states.shape[0]
        if not packs or rows + m > PACK_ROWS:
            packs.append([])
            rows = 0
        packs[-1].append(j)
        rows += m
    for pack in packs:
        rolled = _integrate_pack([xs[j] for j in pack], pack, model, sched, from_step, to_step, snap)
        for j, x in zip(pack, rolled):
            out[j] = x
    return out


def _integrate_pack(
    live: list[ComposedObject],
    index: list[int],
    model: StateFlowModel,
    sched: Schedule,
    from_step: int,
    to_step: int,
    snap: bool,
) -> list[ComposedObject]:
    """:func:`integrate_packed` on one pack of objects with components;
    ``index`` holds their positions among the inputs, for error messages."""
    statics, spans, counts, gens, ends, last_ends = [], [], [], [], [], []
    offset = 0
    for x in live:
        static, slices = _static_features(x, sched, model.library)
        statics.append(static)
        spans.append((offset, static.shape[0]))
        offset += static.shape[0]
        for (_, m), comp in zip(slices, x.components):
            counts.append(m)
            gens.append(comp.t_gen_step)
            ends.append(t_end_step(comp.t_gen_step, sched))
        last_ends.append(max(ends[-len(slices):]))
    feats = np.concatenate(statics)
    state = np.concatenate([x.states for x in live])
    cond = np.concatenate([x.self_cond for x in live])
    # per-step row tables, built once: local time, steps left in each window
    grid = range(from_step, to_step)
    t_local = np.repeat([[t_local_from_steps(s, g, sched) for g in gens] for s in grid], counts, axis=1)
    remaining = (np.repeat(ends, counts)[None, :] - np.arange(from_step, to_step)[:, None])[..., None]
    first_end = min(ends)
    if sched.integrator_mode == "paper":
        # every open window steps at the same kappa; closed rows step by 0
        rate = np.where(remaining > 0, kappa(from_step, from_step + 1, sched) * sched.dt, 0.0)
        first_masked = to_step
    else:
        # min(1, 1/remaining) on open rows; closed rows are masked out rather
        # than stepped by 0, so their bits (-0.0 too) stay as they are
        rate = 1.0 / np.maximum(remaining, 1)
        first_masked = first_end
    first_snap = first_end - 1 if snap else to_step
    for i, s in enumerate(grid):
        _set_dynamic(feats, state, cond, t_local[i])
        pred = np.asarray(model.predict_packed(feats, spans), dtype=np.float64)
        if not np.isfinite(pred).all():
            j, c = _first_non_finite(pred, live, model.library)
            raise NumericalError(
                f"state-flow prediction not finite at step {s}, component {c} of object {index[j]}"
            )
        stepped = state + (pred - state) * rate[i]
        state = np.where(remaining[i] > 0, stepped, state) if s >= first_masked else stepped
        if s >= first_snap:
            state = np.where(remaining[i] <= 1, pred, state)
        cond = pred
    state.flags.writeable = cond.flags.writeable = False
    return list(_split(live, state, cond, [snap and end <= to_step for end in last_ends]))


def _split(live: list[ComposedObject], state: np.ndarray, cond: np.ndarray, snapped: list[bool]):
    """The objects again, their states and self-conditioning now row views
    of the stacked matrices.  An object whose every window closed by the
    last step was snapped whole: its state and self-conditioning rows are
    equal, so it gets one view for both."""
    offset = 0
    for x, whole in zip(live, snapped):
        m = x.states.shape[0]
        conds = cond[offset : offset + m]
        yield ComposedObject(
            components=x.components,
            states=conds if whole else state[offset : offset + m],
            self_cond=conds,
            open_attachments=x.open_attachments,
        )
        offset += m


def _first_non_finite(pred: np.ndarray, live: list[ComposedObject], library: SynthonLibrary) -> tuple[int, int]:
    """(object, component) owning the first stacked row with a non-finite value."""
    row = int(np.flatnonzero(~np.isfinite(pred).all(axis=1))[0])
    ends = np.cumsum([x.states.shape[0] for x in live])
    j = int(np.searchsorted(ends, row, side="right"))
    return j, int(row_layout(live[j].components, library).owner[row - (ends[j] - live[j].states.shape[0])])


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
    model: StateFlowModel, batch: list[NoisySample]
) -> list[NoisySample]:
    """The batch with each sample's self-conditioning set to the model's
    clean-state estimates, from one tape-free forward over the stacked
    samples (bitwise each sample's own ``predict``)."""
    feats, spans = stack_rows([featurize_points(s.x_t, s.t_step, model.sched, model.library)[0] for s in batch])
    pred = model.predict_packed(feats, spans)
    return [
        replace(s, x_t=s.x_t.with_states(s.x_t.states, self_cond=pred[o : o + m]))
        for s, (o, m) in zip(batch, spans)
    ]


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
            batch = _with_predicted_self_cond(model, batch)
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
