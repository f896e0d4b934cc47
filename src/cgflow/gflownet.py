"""Compositional-flow policy, trajectory sampling, and the two objectives.

The policy scores actions with a factorized head: the masked legal actions
are embedded by a shared MLP, the current object is encoded with the same
per-point featurization as the state-flow model and mean-pooled, and each
logit is the inner product of a per-action-type head applied to the state
embedding with the action embedding.  The learned scalar ``log_Z`` closes
the trajectory-balance objective; the backward policy is identically one
because construction is autoregressive, so the objective reduces to
``(log_Z + sum(log P_F) - log R)^2`` per trajectory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .compstate import (
    ActionRef,
    AddSynthon,
    ComposedObject,
    EMPTY_OBJECT,
    FirstSynthon,
    SynthonLibrary,
    Trajectory,
    TrajectoryStep,
    decompose,
    transition,
)
from .domain import RewardParams, RuleSet, action_space, log_reward, reward
from .nn import ParamStore, Tape, adam_step, register_mlp
from .schedule import Schedule, action_steps
from .seeding import rng_from
from .stateflow import (
    HIDDEN,
    StateFlowModel,
    euler_rollout,
    feature_dim,
    featurize_points,
    interpolate,
)


class PolicyError(ValueError):
    pass


class DataPipelineError(RuntimeError):
    """A dataset-derived ground-truth action is not in the legal set."""


KLASS_PAIRS = (("alpha", "alpha"), ("alpha", "beta"), ("beta", "alpha"), ("beta", "beta"))


def action_feature_dim(library: SynthonLibrary, sched: Schedule) -> int:
    # synthon one-hot + kind flag + klass-pair one-hot + parent component
    # one-hot + parent attachment slot one-hot
    return len(library) + 1 + 4 + sched.max_components + 2


def action_features(
    x: ComposedObject,
    actions: list[ActionRef],
    library: SynthonLibrary,
    sched: Schedule,
) -> np.ndarray:
    feats = np.zeros((len(actions), action_feature_dim(library, sched)))
    base = len(library)
    for r, action in enumerate(actions):
        synthon = library.get(action.synthon_id)
        feats[r, library.index_of(action.synthon_id)] = 1.0
        feats[r, base] = 1.0 if synthon.kind == "brick" else 0.0
        if isinstance(action, AddSynthon):
            parent = library.get(x.components[action.parent_component].synthon_id)
            pair = (
                parent.attachments[action.parent_attachment].klass,
                synthon.attachments[action.child_attachment].klass,
            )
            feats[r, base + 1 + KLASS_PAIRS.index(pair)] = 1.0
            feats[r, base + 5 + min(action.parent_component, sched.max_components - 1)] = 1.0
            feats[r, base + 5 + sched.max_components + action.parent_attachment] = 1.0
    return feats


@dataclass
class PolicyModel:
    """Factorized action scorer over the masked legal set, plus log_Z."""

    store: ParamStore
    sched: Schedule
    library: SynthonLibrary

    @classmethod
    def create(cls, sched: Schedule, library: SynthonLibrary, seed: int) -> "PolicyModel":
        store = ParamStore()
        rng = rng_from(seed, "policy-init")
        f = feature_dim(sched)
        g = action_feature_dim(library, sched)
        register_mlp(store, "pol.enc", [f, HIDDEN, HIDDEN], rng)
        register_mlp(store, "pol.head_first", [HIDDEN, HIDDEN, HIDDEN], rng)
        register_mlp(store, "pol.head_add", [HIDDEN, HIDDEN, HIDDEN], rng)
        register_mlp(store, "pol.act", [g, HIDDEN, HIDDEN], rng)
        store.register("log_Z", np.zeros(()))
        return cls(store=store, sched=sched, library=library)

    @property
    def log_z(self) -> float:
        return float(self.store.get("log_Z"))

    def _head_prefix(self, x: ComposedObject) -> str:
        return "pol.head_first" if x.is_empty else "pol.head_add"

    def logits_tape(
        self, tape: Tape, x: ComposedObject, t_step: int, actions: list[ActionRef]
    ) -> int:
        feats, _ = featurize_points(x, t_step, self.sched, self.library)
        if feats.shape[0] == 0:
            pooled = tape.const(np.zeros(HIDDEN))
        else:
            h = tape.const(feats)
            h = tape.silu(tape.affine(h, tape.param("pol.enc.0.w"), tape.param("pol.enc.0.b")))
            h = tape.silu(tape.affine(h, tape.param("pol.enc.1.w"), tape.param("pol.enc.1.b")))
            pooled = tape.mean_rows(h)
        hp = self._head_prefix(x)
        q = tape.silu(tape.affine(pooled, tape.param(f"{hp}.0.w"), tape.param(f"{hp}.0.b")))
        q = tape.affine(q, tape.param(f"{hp}.1.w"), tape.param(f"{hp}.1.b"))
        a = tape.const(action_features(x, actions, self.library, self.sched))
        a = tape.silu(tape.affine(a, tape.param("pol.act.0.w"), tape.param("pol.act.0.b")))
        a = tape.affine(a, tape.param("pol.act.1.w"), tape.param("pol.act.1.b"))
        return tape.rowdot(a, q)

    def logits_np(self, x: ComposedObject, t_step: int, actions: list[ActionRef]) -> np.ndarray:
        s = self.store

        def dense(v, prefix):
            return v @ s.get(f"{prefix}.w") + s.get(f"{prefix}.b")

        def silu(v):
            return v * (1.0 / (1.0 + np.exp(-v)))

        feats, _ = featurize_points(x, t_step, self.sched, self.library)
        if feats.shape[0] == 0:
            pooled = np.zeros(HIDDEN)
        else:
            h = silu(dense(feats, "pol.enc.0"))
            h = silu(dense(h, "pol.enc.1"))
            pooled = h.mean(axis=0)
        hp = self._head_prefix(x)
        q = dense(silu(dense(pooled, f"{hp}.0")), f"{hp}.1")
        a = action_features(x, actions, self.library, self.sched)
        a = dense(silu(dense(a, "pol.act.0")), "pol.act.1")
        return a @ q


def policy_distribution(
    model: PolicyModel,
    x: ComposedObject,
    t_step: int,
    actions: list[ActionRef],
    tape: Tape | None = None,
) -> tuple[np.ndarray, np.ndarray, int | None]:
    """Softmax over legal-action logits: (probs, log-probs, log-prob node)."""
    if not actions:
        raise PolicyError("policy_distribution requires a non-empty action list")
    if tape is not None:
        logits_node = model.logits_tape(tape, x, t_step, actions)
        logp_node = tape.log_softmax(logits_node)
        logp = tape.value(logp_node)
        return np.exp(logp), logp, logp_node
    logits = model.logits_np(x, t_step, actions)
    shifted = logits - logits.max()
    logp = shifted - np.log(np.exp(shifted).sum())
    return np.exp(logp), logp, None


# ---------------------------------------------------------------------------
# Trajectory sampling (Algorithm: interleave actions and state integration)
# ---------------------------------------------------------------------------


@dataclass
class SampledTrajectory:
    trajectory: Trajectory
    logp_nodes: list[tuple[int, int]]  # (log-prob vector node, chosen index)
    log_reward: float


def next_decision_step(x: ComposedObject, rules: RuleSet, sched: Schedule) -> int:
    """Grid step of the next compositional action on ``x``, else ``n_steps``.

    Actions fire at consecutive action steps while the object is open and
    shorter than ``max_len``, so an object built by ``k`` actions takes its
    next one at ``action_steps(sched)[k]``.  The state flow integrates each
    segment between two decision steps with no action inside it.
    """
    firing = action_steps(sched)
    k = len(x.components)
    if x.is_terminal or k >= len(firing) or k >= rules.max_len:
        return sched.n_steps
    return firing[k]


def sample_trajectory(
    policy: PolicyModel,
    state_model: StateFlowModel,
    sched: Schedule,
    rules: RuleSet,
    library: SynthonLibrary,
    reward_params: RewardParams,
    global_seed: int,
    traj_seed: int,
    eps_random: float = 0.0,
    tape: Tape | None = None,
    forced_actions: list[ActionRef] | None = None,
    rollout_cache: dict | None = None,
) -> SampledTrajectory:
    """Roll one trajectory over the step grid.

    At each action step the policy (or, with probability ``eps_random``, a
    uniform draw over the legal set) picks a component; between action steps
    the state flow integrates, one segment per call.  Recorded log-probs are
    always the policy's own, so exploration does not bias the balance
    objective.  With ``forced_actions`` the action choices are replayed
    instead of sampled, which is how the oracle and the evaluator
    reconstruct trajectories.  ``rollout_cache`` is handed to
    :func:`euler_rollout`; it must belong to this ``state_model``.
    """
    rng = rng_from(traj_seed, "trajectory")
    x = EMPTY_OBJECT
    step = 0
    steps: list[TrajectoryStep] = []
    nodes: list[tuple[int, int]] = []
    while True:
        stop = next_decision_step(x, rules, sched)
        if stop > step:
            x = euler_rollout(x, state_model, sched, step, stop, cache=rollout_cache)
            step = stop
        if step == sched.n_steps:
            break
        actions = action_space(x, rules, library)
        probs, logp, logp_node = policy_distribution(policy, x, step, actions, tape=tape)
        if forced_actions is not None:
            idx = actions.index(forced_actions[len(steps)])
        elif eps_random > 0 and rng.random() < eps_random:
            idx = int(rng.integers(len(actions)))
        else:
            idx = int(rng.choice(len(actions), p=probs / probs.sum()))
        steps.append(TrajectoryStep(step_index=step, action=actions[idx], log_prob=float(logp[idx])))
        if tape is not None:
            nodes.append((logp_node, idx))
        x = transition(x, actions[idx], library, sched, global_seed, p_max=rules.p_max)
    if not x.is_terminal:
        raise PolicyError("trajectory ended on a non-terminal object")
    log_r = log_reward(x, reward_params, library)
    traj = Trajectory(
        actions=tuple(steps),
        terminal_object=x,
        reward=float(np.exp(log_r)),
        log_z_used=policy.log_z,
    )
    return SampledTrajectory(trajectory=traj, logp_nodes=nodes, log_reward=log_r)


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------


def tb_loss_node(tape: Tape, sampled: SampledTrajectory) -> int:
    """(log_Z + sum log P_F - log R)^2 for one taped trajectory."""
    if not np.isfinite(sampled.log_reward):
        raise PolicyError(f"trajectory balance requires finite log-reward, got {sampled.log_reward}")
    total = tape.param("log_Z")
    for logp_node, idx in sampled.logp_nodes:
        total = tape.add(total, tape.pick(logp_node, idx))
    resid = tape.sub(total, tape.const(sampled.log_reward))
    return tape.mul(resid, resid)


def tb_loss_value(traj: Trajectory, log_z: float) -> float:
    total = log_z + sum(s.log_prob for s in traj.actions)
    return float((total - np.log(traj.reward)) ** 2)


def ce_batch(
    dataset: list[ComposedObject],
    policy: PolicyModel,
    rules: RuleSet,
    library: SynthonLibrary,
    sched: Schedule,
    rng: np.random.Generator,
    batch: int,
) -> list[tuple[ComposedObject, int, list[ActionRef], int]]:
    """(x_t, t_step, legal actions, truth index) tuples for the CE objective.

    Conditioning states are built with sigma=0 interpolation in the stored
    absolute frame with oracle self-conditioning (the targets themselves),
    over re-rooted construction orders whenever one exists.
    """
    items = []
    for _ in range(batch):
        obj = dataset[int(rng.integers(len(dataset)))]
        plan = decompose(obj, library, rng=rng, exclude_recorded=True, canonicalize=False)
        sample_seed = int(rng.integers(1 << 63))
        for i in range(len(plan)):
            t_step = i * sched.lam_steps
            ns = interpolate(plan, t_step, 0.0, sched, library, sample_seed=sample_seed)
            x_t = ns.x_t
            if x_t.components:
                x_t = x_t.with_states(x_t.states, self_cond=[p.s1.copy() for p in plan[: len(x_t.components)]])
            actions = action_space(x_t, rules, library)
            truth = plan[i].action
            try:
                idx = actions.index(truth)
            except ValueError as exc:
                raise DataPipelineError(
                    f"ground-truth action {truth} not in legal set at step {i}"
                ) from exc
            items.append((x_t, t_step, actions, idx))
    return items


def ce_loss_node(
    tape: Tape,
    policy: PolicyModel,
    items: list[tuple[ComposedObject, int, list[ActionRef], int]],
) -> int:
    """Mean negative log-probability of the ground-truth actions."""
    if not items:
        raise PolicyError("ce_loss on an empty batch")
    total = None
    for x_t, t_step, actions, idx in items:
        _, _, logp_node = policy_distribution(policy, x_t, t_step, actions, tape=tape)
        picked = tape.pick(logp_node, idx)
        total = picked if total is None else tape.add(total, picked)
    return tape.scale(total, -1.0 / len(items))


def uniform_ce_baseline(
    items: list[tuple[ComposedObject, int, list[ActionRef], int]]
) -> float:
    """Exact uniform-policy NLL, log K averaged over the same steps."""
    return float(np.mean([np.log(len(actions)) for _, _, actions, _ in items]))


# ---------------------------------------------------------------------------
# Trainers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolicyHyper:
    batch: int = 64
    iters: int = 1500
    lr: float = 1e-4
    lr_log_z: float = 1e-3
    eps_random: float = 0.05
    objective: str = "tb"


def train_policy_tb(
    state_model: StateFlowModel,
    sched: Schedule,
    rules: RuleSet,
    library: SynthonLibrary,
    reward_params: RewardParams,
    hyper: PolicyHyper,
    run_seed: int,
    policy: PolicyModel | None = None,
    tv_probe=None,
    tv_every: int = 50,
    on_metrics=None,
) -> tuple[PolicyModel, list[dict]]:
    """On-policy trajectory-balance training against a frozen state flow.

    The state flow stays frozen for the whole run, so one rollout cache
    serves every trajectory of every iteration.
    """
    if policy is None:
        policy = PolicyModel.create(sched, library, seed=run_seed)
    lr_map = {"log_Z": hyper.lr_log_z}
    rollout_cache: dict = {}
    metrics: list[dict] = []
    for it in range(hyper.iters):
        t0 = time.perf_counter()
        tape = Tape(policy.store)
        loss_total = None
        rewards = []
        lengths = []
        for b in range(hyper.batch):
            sampled = sample_trajectory(
                policy,
                state_model,
                sched,
                rules,
                library,
                reward_params,
                global_seed=run_seed,
                traj_seed=rng_from(run_seed, "tb-traj", it, b).integers(1 << 62),
                eps_random=hyper.eps_random,
                tape=tape,
                rollout_cache=rollout_cache,
            )
            node = tb_loss_node(tape, sampled)
            loss_total = node if loss_total is None else tape.add(loss_total, node)
            rewards.append(sampled.trajectory.reward)
            lengths.append(sampled.trajectory.length)
        loss_node = tape.scale(loss_total, 1.0 / hyper.batch)
        grads = tape.backward(loss_node)
        adam_step(policy.store, grads, lr=hyper.lr, lr_overrides=lr_map)
        row = {
            "iter": it,
            "tb_loss": float(tape.value(loss_node)),
            "mean_reward": float(np.mean(rewards)),
            "mean_len": float(np.mean(lengths)),
            "log_Z": policy.log_z,
            "wall_ms": (time.perf_counter() - t0) * 1000.0,
        }
        if tv_probe is not None and (it % tv_every == 0 or it == hyper.iters - 1):
            row["tv_vs_oracle"] = float(tv_probe(policy))
        metrics.append(row)
        if on_metrics is not None:
            on_metrics(row)
    return policy, metrics


def train_policy_ce(
    dataset: list[ComposedObject],
    sched: Schedule,
    rules: RuleSet,
    library: SynthonLibrary,
    hyper: PolicyHyper,
    run_seed: int,
    policy: PolicyModel | None = None,
    on_metrics=None,
) -> tuple[PolicyModel, list[dict]]:
    """Maximum-likelihood training of the policy on decomposed dataset objects."""
    if policy is None:
        policy = PolicyModel.create(sched, library, seed=run_seed)
    rng = rng_from(run_seed, "train-ce")
    metrics: list[dict] = []
    for it in range(hyper.iters):
        t0 = time.perf_counter()
        items = ce_batch(dataset, policy, rules, library, sched, rng, hyper.batch)
        tape = Tape(policy.store)
        loss_node = ce_loss_node(tape, policy, items)
        grads = tape.backward(loss_node)
        adam_step(policy.store, grads, lr=hyper.lr, lr_overrides={"log_Z": hyper.lr_log_z})
        row = {
            "iter": it,
            "ce_loss": float(tape.value(loss_node)),
            "uniform_baseline": uniform_ce_baseline(items),
            "wall_ms": (time.perf_counter() - t0) * 1000.0,
        }
        metrics.append(row)
        if on_metrics is not None:
            on_metrics(row)
    return policy, metrics
