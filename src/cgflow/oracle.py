"""Exact brute-force reference distributions over compositional sequences.

Deterministic transitions plus a frozen state-flow model make every action
sequence map to exactly one terminal object, so the full sequence space can
be enumerated and exact model/target distributions compared.  The sequence
SET is enumerated twice, both passes breadth-first: once with state
rollouts, each tree level integrated in a few packed calls, and once
symbolically (states never integrated); the two must agree.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .compstate import (
    ActionRef,
    ComposedObject,
    EMPTY_OBJECT,
    SynthonLibrary,
    grow,
    sequence_key,
    transition,
)
from .domain import RewardParams, RuleSet, action_space, log_reward
from .errors import InvariantError
from .gflownet import PolicyModel, next_decision_step, policy_distribution
from .schedule import Schedule
from .stateflow import StateFlowModel, integrate_packed, rollout_key


@dataclass(frozen=True)
class SequenceRecord:
    key: str
    actions: tuple[ActionRef, ...]
    prefix: tuple[int, ...]  # index of each action in its decision's legal list
    terminal_object: ComposedObject
    log_reward: float
    log_uniform: float  # log-probability under the uniform-over-legal-actions policy


@dataclass(frozen=True)
class Decision:
    state: ComposedObject  # integrated up to ``step``
    step: int
    actions: tuple[ActionRef, ...]


@dataclass(frozen=True)
class SequenceTable:
    """The sequence tree: one record per leaf, one decision per inner node,
    the latter keyed on the action-index prefix that reaches it."""

    records: tuple[SequenceRecord, ...]
    decisions: dict[tuple[int, ...], Decision]

    def __len__(self) -> int:
        return len(self.records)

    def log_rewards(self) -> np.ndarray:
        return np.array([r.log_reward for r in self.records])

    def z_exact(self) -> float:
        return float(np.exp(self.log_rewards()).sum())

    def log_z_exact(self) -> float:
        log_r = self.log_rewards()
        peak = log_r.max()
        return float(peak + np.log(np.exp(log_r - peak).sum()))


def _enumerate_bfs_keys(
    rules: RuleSet, sched: Schedule, library: SynthonLibrary, cap: int
) -> set[str]:
    """Symbolic enumeration of action sequences: compositions only, no
    states drawn or integrated."""
    queue: deque[tuple[ComposedObject, tuple[ActionRef, ...]]] = deque([(EMPTY_OBJECT, ())])
    done: set[str] = set()
    while queue:
        x, actions = queue.popleft()
        if x.is_terminal:
            done.add(sequence_key(actions))
            if len(done) > cap:
                raise InvariantError(f"sequence enumeration exceeded {cap}")
            continue
        for action in action_space(x, rules, library):
            queue.append((grow(x, action, library, sched, rules.p_max), actions + (action,)))
    return done


def enumerate_sequences(
    rules: RuleSet,
    sched: Schedule,
    state_model: StateFlowModel,
    library: SynthonLibrary,
    reward_params: RewardParams,
    global_seed: int,
    cap: int = 100_000,
    rollout_cache: dict | None = None,
) -> SequenceTable:
    """Breadth-first walk over the action space with deterministic state
    rollouts, one tree level at a time: all children of a level that
    integrate over the same interval go through one packed call.

    Every decision point is stored once, keyed on its action-index prefix,
    with its integrated object and its legal-action list, so policy
    probabilities can be re-scored exactly without re-running the state
    flow.  Each record also carries its uniform-policy log-probability,
    summed in depth order along the way.  Records are sorted by key.

    Every pending child leads to at least one sequence, so a level whose
    children would take the count past ``cap`` is refused before it is
    integrated.

    With ``rollout_cache`` (a :func:`stateflow.euler_rollout` cache for
    ``state_model``), each integrated child is stored under its
    :func:`stateflow.rollout_key`, so a sampler started from the cache
    integrates no segment of the tree again.
    """
    records: list[SequenceRecord] = []
    decisions: dict[tuple[int, ...], Decision] = {}
    # (integrated object, step, prefix, actions, uniform log-probability)
    level = [(EMPTY_OBJECT, 0, (), (), 0.0)]
    while level:
        pending = []  # (child, from step, to step, prefix, actions, log_u)
        for x, step, prefix, actions, log_u in level:
            if x.is_terminal:
                log_r = log_reward(x, reward_params, library)
                records.append(SequenceRecord(sequence_key(actions), actions, prefix, x, log_r, log_u))
                continue
            space = tuple(action_space(x, rules, library))
            if not space:
                raise InvariantError("non-terminal state with empty action space")
            decisions[prefix] = Decision(x, step, space)
            child_log_u = log_u + float(-np.log(len(space)))
            for idx, action in enumerate(space):
                child = transition(x, action, library, sched, global_seed, p_max=rules.p_max)
                nxt = next_decision_step(child, rules, sched)
                pending.append((child, step, nxt, prefix + (idx,), actions + (action,), child_log_u))
        if len(records) + len(pending) > cap:
            raise InvariantError(f"sequence enumeration exceeded {cap}")
        groups: dict[tuple[int, int], list[int]] = {}
        for i, (_, start, stop, _, _, _) in enumerate(pending):
            groups.setdefault((start, stop), []).append(i)
        children = [p[0] for p in pending]
        for (start, stop), members in groups.items():
            rolled = integrate_packed([children[i] for i in members], state_model, sched, start, stop)
            for i, child in zip(members, rolled):
                if rollout_cache is not None:
                    rollout_cache[rollout_key(children[i], start, stop, snap=True)] = child
                children[i] = child
        level = [(child, stop, prefix, actions, log_u)
                 for child, (_, _, stop, prefix, actions, log_u) in zip(children, pending)]
    records.sort(key=lambda r: r.key)

    symbolic_keys = _enumerate_bfs_keys(rules, sched, library, cap)
    rollout_keys = {r.key for r in records}
    if symbolic_keys != rollout_keys:
        raise InvariantError(
            "rollout/symbolic enumeration mismatch: "
            f"{sorted(rollout_keys ^ symbolic_keys)[:5]} differ"
        )
    return SequenceTable(records=tuple(records), decisions=decisions)


def target_distribution(table: SequenceTable) -> np.ndarray:
    """Reward-proportional target p_i = R_i / sum R_j (log-domain); the
    reward ``R = exp(log_reward)`` already carries the exponent ``beta``."""
    log_r = table.log_rewards()
    log_r -= log_r.max()
    w = np.exp(log_r)
    return w / w.sum()


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise InvariantError(f"TV distance over mismatched supports: {p.shape} vs {q.shape}")
    return float(0.5 * np.abs(p - q).sum())


def _sum_along_prefixes(
    table: SequenceTable, log_probs: dict[tuple[int, ...], np.ndarray]
) -> np.ndarray:
    """Per-record sum, in depth order, of the log-probability each decision
    on its path gives the action taken; ``log_probs`` maps a decision's
    prefix to the log-probabilities of its legal actions."""
    out = np.zeros(len(table.records))
    for i, rec in enumerate(table.records):
        total = 0.0
        for depth, idx in enumerate(rec.prefix):
            total += float(log_probs[rec.prefix[:depth]][idx])
        out[i] = total
    return out


def sequence_log_probs(policy: PolicyModel, table: SequenceTable) -> np.ndarray:
    """Exact per-sequence log-likelihood under the policy: one forward per
    decision of the table, on its stored snapshot."""
    return _sum_along_prefixes(table, {
        prefix: policy_distribution(policy, d.state, d.step, list(d.actions))[1]
        for prefix, d in table.decisions.items()
    })


def model_distribution(
    policy: PolicyModel, table: SequenceTable, tol: float = 1e-6
) -> np.ndarray:
    """Exact sequence probabilities under the policy; must cover the space."""
    probs = np.exp(sequence_log_probs(policy, table))
    total = probs.sum()
    if abs(total - 1.0) > tol:
        raise InvariantError(
            f"model distribution sums to {total!r}; masking does not cover the space"
        )
    return probs


def uniform_policy_distribution(table: SequenceTable) -> np.ndarray:
    """Sequence probabilities under the uniform-over-legal-actions policy,
    from the log-probabilities the enumeration stored per record: O(n)."""
    return np.exp(np.array([r.log_uniform for r in table.records]))
