"""Exact brute-force reference distributions over compositional sequences.

Deterministic transitions plus a frozen state-flow model make every action
sequence map to exactly one terminal object, so the full sequence space can
be enumerated and exact model/target distributions compared.  The sequence
SET is enumerated twice, by depth-first search with rollouts and by an
independent breadth-first symbolic pass, and the two must agree.
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
    sequence_key,
    transition,
)
from .domain import RewardParams, RuleSet, action_space, log_reward
from .errors import InvariantError
from .gflownet import PolicyModel, next_decision_step, policy_distribution
from .schedule import Schedule
from .stateflow import StateFlowModel, integrate_packed


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
    """Symbolic enumeration of action sequences (states never integrated)."""
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
            child = transition(x, action, library, sched, global_seed=0, p_max=rules.p_max)
            queue.append((child, actions + (action,)))
    return done


def enumerate_sequences(
    rules: RuleSet,
    sched: Schedule,
    state_model: StateFlowModel,
    library: SynthonLibrary,
    reward_params: RewardParams,
    global_seed: int,
    cap: int = 100_000,
) -> SequenceTable:
    """DFS over the action space with deterministic state rollouts, all
    children of a decision that stop at the same next step integrated in one
    packed call.

    Every decision point is stored once, with its integrated object and its
    legal-action list, so policy probabilities can be re-scored exactly
    without re-running the state flow.  Each record also carries its
    uniform-policy log-probability, summed in depth order along the way.
    """
    records: list[SequenceRecord] = []
    decisions: dict[tuple[int, ...], Decision] = {}

    def dfs(x, step, prefix, actions, log_u):
        if x.is_terminal:
            log_r = log_reward(x, reward_params, library)
            records.append(SequenceRecord(sequence_key(actions), actions, prefix, x, log_r, log_u))
            if len(records) > cap:
                raise InvariantError(f"sequence enumeration exceeded {cap}")
            return
        space = tuple(action_space(x, rules, library))
        if not space:
            raise InvariantError("non-terminal state with empty action space")
        decisions[prefix] = Decision(x, step, space)
        child_log_u = log_u + float(-np.log(len(space)))
        # every child integrates from this step: those that also stop at the
        # same next decision share one packed integration
        children = [transition(x, a, library, sched, global_seed, p_max=rules.p_max) for a in space]
        stops = [next_decision_step(c, rules, sched) for c in children]
        groups: dict[int, list[int]] = {}
        for idx, nxt in enumerate(stops):
            groups.setdefault(nxt, []).append(idx)
        for nxt, members in groups.items():
            rolled = integrate_packed([children[i] for i in members], state_model, sched, step, nxt)
            for i, child in zip(members, rolled):
                children[i] = child
        for idx, action in enumerate(space):
            dfs(children[idx], stops[idx], prefix + (idx,), actions + (action,), child_log_u)

    dfs(EMPTY_OBJECT, 0, (), (), 0.0)
    records.sort(key=lambda r: r.key)

    bfs_keys = _enumerate_bfs_keys(rules, sched, library, cap)
    dfs_keys = {r.key for r in records}
    if bfs_keys != dfs_keys:
        raise InvariantError(
            "DFS/BFS enumeration mismatch: "
            f"{sorted(dfs_keys ^ bfs_keys)[:5]} differ"
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
