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
    SynthonLibrary,
    Trajectory,
    TrajectoryStep,
    decompose,
    transition,
)
from .domain import RewardParams, RuleSet, action_space, log_reward
from .errors import ConfigError, InvariantError, NumericalError
from .nn import Eval, ParamStore, Tape, adam_step, mlp_apply, register_mlp, stack_rows
from .schedule import Schedule, action_steps
from .seeding import rng_from
from .stateflow import (
    HIDDEN,
    StateFlowModel,
    euler_rollout,
    feature_dim,
    featurize_points,
    interpolant,
    plan_targets,
)


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

    def forward(
        self, ops, decisions: list[tuple[ComposedObject, int, list[ActionRef]]]
    ) -> tuple[object, list[tuple[int, int]]]:
        """Legal-action log-probabilities of a list of decisions ``(x,
        t_step, actions)``: one vector of all their blocks, and each
        decision's (offset, count) in it.  ``ops`` is a Tape or an Eval.

        ``pol.enc`` and ``pol.act`` have 64 output columns, so each runs once
        on the stacked rows of every decision, and every row keeps the bits
        it has alone.  The pooling, the head (one vector-matrix product per
        pooled row, as for a single decision; a stacked product would change
        the bits), the row-dot and the log-softmax run per decision.  So each
        decision's log-probabilities are bitwise what it gets alone.
        """
        first = [j for j, (x, _, _) in enumerate(decisions) if not x.components]
        n_first = len(first)
        order = None
        if 0 < n_first < len(decisions):
            # empty objects take the first-action head on a zero context; they
            # go first, so each head runs once, over its own block of rows
            order = first + [j for j, (x, _, _) in enumerate(decisions) if x.components]
            decisions = [decisions[j] for j in order]
        heads = []
        if n_first:
            heads.append(_head(ops, "pol.head_first", ops.const(np.zeros((n_first, HIDDEN))), n_first))
        if n_first < len(decisions):
            feats, spans = stack_rows(
                [featurize_points(x, t, self.sched, self.library)[0] for x, t, _ in decisions[n_first:]]
            )
            h = ops.silu(mlp_apply(ops, "pol.enc", ops.const(feats), 2))
            heads.append(_head(ops, "pol.head_add", ops.segment_mean(h, spans), len(spans)))
        q = heads[0] if len(heads) == 1 else ops.concat_rows(*heads)
        acts, spans = stack_rows(
            [action_features(x, actions, self.library, self.sched) for x, _, actions in decisions]
        )
        e = mlp_apply(ops, "pol.act", ops.const(acts), 2)
        logp = ops.log_softmax(ops.rowdot(e, q, spans), spans)
        if order is not None:
            spans = [span for _, span in sorted(zip(order, spans))]
        return logp, spans


def _head(ops, prefix: str, pooled, n: int):
    # one product per pooled row: a one-row product is numpy's vector-matrix
    # product, the one a single decision's pooled vector gets, while a
    # stacked product would change the bits (one row needs no spans)
    return mlp_apply(ops, prefix, pooled, 2, spans=None if n == 1 else [(j, 1) for j in range(n)])


def policy_distribution(
    model: PolicyModel,
    x: ComposedObject,
    t_step: int,
    actions: list[ActionRef],
    tape: Tape | None = None,
) -> tuple[np.ndarray, np.ndarray, int | None]:
    """Softmax over legal-action logits: (probs, log-probs, log-prob node);
    :meth:`PolicyModel.forward` on one decision.

    Without a tape the same definition runs on an :class:`Eval`, and the
    node is None.
    """
    if not actions:
        raise InvariantError("policy_distribution requires a non-empty action list")
    ops = Eval(model.store) if tape is None else tape
    logp_node, _ = model.forward(ops, [(x, t_step, actions)])
    logp = ops.value(logp_node)
    return np.exp(logp), logp, None if tape is None else logp_node


# ---------------------------------------------------------------------------
# Trajectory sampling (Algorithm: interleave actions and state integration)
# ---------------------------------------------------------------------------


@dataclass
class SampledTrajectory:
    trajectory: Trajectory
    logp_nodes: list[tuple[int, int]]  # (log-prob vector node, chosen index)
    log_reward: float


def choice_cdf(probs: np.ndarray) -> np.ndarray:
    """The CDF that ``Generator.choice(len(probs), p=probs / probs.sum())``
    draws from, built as numpy builds it, so that :func:`draw_from_cdf`
    picks the index ``choice`` picks and advances the stream as far.  Raises
    ``NumericalError`` unless it is finite."""
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    if not np.isfinite(cdf).all():
        raise NumericalError(f"action probabilities give a non-finite CDF: {probs}")
    return cdf


def draw_from_cdf(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """One index drawn from a :func:`choice_cdf`: one ``rng.random()``."""
    return int(cdf.searchsorted(rng.random(), side="right"))


@dataclass
class PrefixNode:
    """What a frozen state flow fixes at one action prefix.

    ``child`` is the object right after the prefix's last transition, before
    its segment is integrated; its matrices are read-only, as every object's
    are, so trajectories share it.  ``actions`` (the legal list at the next
    decision state) and, at a leaf, ``log_reward`` are filled the first time
    a trajectory gets there.
    """

    child: ComposedObject
    actions: list[ActionRef] | None = None
    log_reward: float | None = None


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
    node_memo: dict | None = None,
    policy_table: dict | None = None,
) -> SampledTrajectory:
    """Roll one trajectory over the step grid.

    At each action step the policy (or, with probability ``eps_random``, a
    uniform draw over the legal set) picks a component; between action steps
    the state flow integrates, one segment per call.  Recorded log-probs are
    always the policy's own, so exploration does not bias the balance
    objective.  With ``forced_actions`` the action choices are replayed
    instead of sampled.  ``rollout_cache`` is handed to
    :func:`euler_rollout`; it must belong to this ``state_model``.

    ``node_memo`` and ``policy_table`` are caller-owned dicts keyed on the
    tuple of chosen action indices so far.  ``node_memo`` maps a prefix to
    its :class:`PrefixNode`; it is valid for one frozen ``state_model``,
    ``global_seed``, ``rules``, ``library`` and ``sched``.  ``policy_table``
    maps a prefix to its decision's log-probabilities, log-prob node and
    :func:`choice_cdf`; it is valid only while the policy parameters and
    ``tape`` stay fixed.  Either left out, a fresh dict serves this one
    trajectory.
    """
    memo = {} if node_memo is None else node_memo
    table = {} if policy_table is None else policy_table
    rng = rng_from(traj_seed, "trajectory")
    prefix: tuple[int, ...] = ()
    node = memo.setdefault(prefix, PrefixNode(EMPTY_OBJECT))
    x = node.child
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
        if node.actions is None:
            node.actions = action_space(x, rules, library)
        actions = node.actions
        out = table.get(prefix)
        if out is None:
            probs, logp, logp_node = policy_distribution(policy, x, step, actions, tape=tape)
            out = table[prefix] = (logp, logp_node, choice_cdf(probs))
        logp, logp_node, cdf = out
        if forced_actions is not None:
            idx = actions.index(forced_actions[len(steps)])
        elif eps_random > 0 and rng.random() < eps_random:
            idx = int(rng.integers(len(actions)))
        else:
            idx = draw_from_cdf(cdf, rng)
        steps.append(TrajectoryStep(step_index=step, action=actions[idx], log_prob=float(logp[idx])))
        if tape is not None:
            nodes.append((logp_node, idx))
        prefix += (idx,)
        node = memo.get(prefix)
        if node is None:
            child = transition(x, actions[idx], library, sched, global_seed, p_max=rules.p_max)
            node = memo[prefix] = PrefixNode(child)
        x = node.child
    if not x.is_terminal:
        raise InvariantError("trajectory ended on a non-terminal object")
    if node.log_reward is None:
        node.log_reward = log_reward(x, reward_params, library)
    log_r = node.log_reward
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
        raise NumericalError(f"trajectory balance requires finite log-reward, got {sampled.log_reward}")
    total = tape.param("log_Z")
    for logp_node, idx in sampled.logp_nodes:
        total = tape.add(total, tape.pick(logp_node, idx))
    resid = tape.sub(total, tape.const(sampled.log_reward))
    return tape.mul(resid, resid)


def ce_batch(
    dataset: list[ComposedObject],
    rules: RuleSet,
    library: SynthonLibrary,
    sched: Schedule,
    rng: np.random.Generator,
    batch: int,
) -> list[tuple[ComposedObject, int, list[ActionRef], int]]:
    """(x_t, t_step, legal actions, truth index) tuples for the CE objective.

    Conditioning states are built with sigma=0 interpolation in the stored
    absolute frame with oracle self-conditioning (the targets themselves),
    over re-rooted construction orders whenever one exists.  Each object
    grows along its plan one transition per step, so step ``i`` sees the
    object and prior states that ``interpolate`` would replay for it.
    """
    items = []
    for _ in range(batch):
        obj = dataset[int(rng.integers(len(dataset)))]
        plan = decompose(obj, library, rng=rng, exclude_recorded=True, canonicalize=False)
        sample_seed = int(rng.integers(1 << 63))
        targets = plan_targets(plan)
        x = EMPTY_OBJECT
        for i, step in enumerate(plan):
            t_step = i * sched.lam_steps
            x_t = x
            if x.components:
                _, states = interpolant(x, targets, t_step, sched, library)
                x_t = x.with_states(states, self_cond=targets[: len(states)])
            actions = action_space(x_t, rules, library)
            try:
                idx = actions.index(step.action)
            except ValueError as exc:
                raise InvariantError(
                    f"ground-truth action {step.action} not in legal set at step {i}"
                ) from exc
            items.append((x_t, t_step, actions, idx))
            if i + 1 < len(plan):
                x = transition(x, step.action, library, sched, sample_seed)
    return items


def ce_loss_node(
    tape: Tape,
    policy: PolicyModel,
    items: list[tuple[ComposedObject, int, list[ActionRef], int]],
) -> int:
    """Mean negative log-probability of the ground-truth actions: one taped
    policy forward over the whole batch."""
    if not items:
        raise InvariantError("ce_loss on an empty batch")
    logp, spans = policy.forward(tape, [(x_t, t_step, actions) for x_t, t_step, actions, _ in items])
    truth = [offset + idx for (offset, _), (*_, idx) in zip(spans, items)]
    return tape.scale(tape.sum_all(tape.pick(logp, truth)), -1.0 / len(items))


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

    def __post_init__(self) -> None:
        if self.objective not in ("tb", "ce"):
            raise ConfigError(f"objective must be tb or ce, got {self.objective!r}")


def train_policy_tb(
    state_model: StateFlowModel,
    sched: Schedule,
    rules: RuleSet,
    library: SynthonLibrary,
    reward_params: RewardParams,
    hyper: PolicyHyper,
    run_seed: int,
    tv_probe=None,
    rollout_cache: dict | None = None,
) -> tuple[PolicyModel, list[dict]]:
    """On-policy trajectory-balance training against a frozen state flow.

    The state flow stays frozen for the whole run, so one rollout cache and
    one prefix-node memo serve every trajectory of every iteration.  The
    cache is ``rollout_cache`` when given (it must belong to
    ``state_model``, like the one the oracle table for the TV probe
    filled), else a fresh dict.  The parameters are fixed within an
    iteration, so each iteration's policy table lives with its tape: every
    distinct decision state gets one taped forward, and each trajectory
    picks from that node.
    """
    policy = PolicyModel.create(sched, library, seed=run_seed)
    lr_map = {"log_Z": hyper.lr_log_z}
    if rollout_cache is None:
        rollout_cache = {}
    node_memo: dict = {}
    metrics: list[dict] = []
    for it in range(hyper.iters):
        t0 = time.perf_counter()
        tape = Tape(policy.store)
        policy_table: dict = {}
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
                node_memo=node_memo,
                policy_table=policy_table,
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
        if tv_probe is not None and (it % 50 == 0 or it == hyper.iters - 1):
            row["tv_vs_oracle"] = float(tv_probe(policy))
        metrics.append(row)
    return policy, metrics


def train_policy_ce(
    dataset: list[ComposedObject],
    sched: Schedule,
    rules: RuleSet,
    library: SynthonLibrary,
    hyper: PolicyHyper,
    run_seed: int,
) -> tuple[PolicyModel, list[dict]]:
    """Maximum-likelihood training of the policy on decomposed dataset objects."""
    policy = PolicyModel.create(sched, library, seed=run_seed)
    rng = rng_from(run_seed, "train-ce")
    metrics: list[dict] = []
    for it in range(hyper.iters):
        t0 = time.perf_counter()
        items = ce_batch(dataset, rules, library, sched, rng, hyper.batch)
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
    return policy, metrics
