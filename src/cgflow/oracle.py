"""Exact brute-force reference distributions over compositional sequences.

Deterministic transitions plus a frozen state-flow model make every action
sequence map to exactly one terminal object, so the full sequence space can
be enumerated and exact model/target distributions compared.  The sequence
SET is enumerated twice, by depth-first search with rollouts and by an
independent breadth-first symbolic pass, and the two must agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compstate import (
    ActionRef,
    ComposedObject,
    EMPTY_OBJECT,
    SynthonLibrary,
    action_key,
    transition,
)
from .domain import RewardParams, RuleSet, action_space, log_reward
from .gflownet import PolicyModel, next_decision_step, policy_distribution
from .schedule import Schedule
from .stateflow import StateFlowModel, euler_rollout


class OracleError(RuntimeError):
    pass


@dataclass(frozen=True)
class SequenceRecord:
    key: str
    actions: tuple[ActionRef, ...]
    terminal_object: ComposedObject
    reward: float
    log_reward: float
    decision_states: tuple[ComposedObject, ...]
    decision_steps: tuple[int, ...]
    decision_spaces: tuple[tuple[ActionRef, ...], ...]
    decision_indices: tuple[int, ...]


@dataclass(frozen=True)
class SequenceTable:
    records: tuple[SequenceRecord, ...]
    global_seed: int

    def __len__(self) -> int:
        return len(self.records)

    def rewards(self, beta: float = 1.0) -> np.ndarray:
        return np.exp(beta * np.array([r.log_reward for r in self.records]))

    def z_exact(self, beta: float = 1.0) -> float:
        return float(self.rewards(beta).sum())

    def log_z_exact(self, beta: float = 1.0) -> float:
        log_r = beta * np.array([r.log_reward for r in self.records])
        peak = log_r.max()
        return float(peak + np.log(np.exp(log_r - peak).sum()))


def _enumerate_bfs_keys(
    rules: RuleSet, sched: Schedule, library: SynthonLibrary, cap: int
) -> set[str]:
    """Symbolic enumeration of action sequences (states never integrated)."""
    queue: list[tuple[ComposedObject, tuple[str, ...]]] = [(EMPTY_OBJECT, ())]
    done: set[str] = set()
    while queue:
        x, keys = queue.pop(0)
        if x.is_terminal:
            done.add(";".join(keys))
            if len(done) > cap:
                raise OracleError(f"sequence enumeration exceeded {cap}")
            continue
        for action in action_space(x, rules, library):
            child = transition(x, action, library, sched, global_seed=0, p_max=rules.p_max)
            queue.append((child, keys + (action_key(action),)))
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
    """DFS over the action space with deterministic state rollouts.

    Every decision point stores the integrated object snapshot and its
    legal-action list, so policy probabilities can be re-scored exactly
    without re-running the state flow.
    """
    records: list[SequenceRecord] = []

    def dfs(x, step, actions, states, steps, spaces, indices):
        if x.is_terminal:
            log_r = log_reward(x, reward_params, library)
            records.append(
                SequenceRecord(
                    key=";".join(action_key(a) for a in actions),
                    actions=tuple(actions),
                    terminal_object=x,
                    reward=float(np.exp(log_r)),
                    log_reward=log_r,
                    decision_states=tuple(states),
                    decision_steps=tuple(steps),
                    decision_spaces=tuple(tuple(s) for s in spaces),
                    decision_indices=tuple(indices),
                )
            )
            if len(records) > cap:
                raise OracleError(f"sequence enumeration exceeded {cap}")
            return
        space = action_space(x, rules, library)
        if not space:
            raise OracleError("non-terminal state with empty action space")
        for idx, action in enumerate(space):
            child = transition(x, action, library, sched, global_seed, p_max=rules.p_max)
            nxt = next_decision_step(child, rules, sched)
            rolled = euler_rollout(child, state_model, sched, step, nxt)
            dfs(
                rolled,
                nxt,
                actions + [action],
                states + [x],
                steps + [step],
                spaces + [space],
                indices + [idx],
            )

    dfs(EMPTY_OBJECT, 0, [], [], [], [], [])
    records.sort(key=lambda r: r.key)

    bfs_keys = _enumerate_bfs_keys(rules, sched, library, cap)
    dfs_keys = {r.key for r in records}
    if bfs_keys != dfs_keys:
        raise OracleError(
            "DFS/BFS enumeration mismatch: "
            f"{sorted(dfs_keys ^ bfs_keys)[:5]} differ"
        )
    return SequenceTable(records=tuple(records), global_seed=global_seed)


def target_distribution(table: SequenceTable, beta: float = 1.0) -> np.ndarray:
    """Reward-proportional target p_i = R_i^beta / sum R_j^beta (log-domain)."""
    log_r = beta * np.array([r.log_reward for r in table.records])
    log_r -= log_r.max()
    w = np.exp(log_r)
    return w / w.sum()


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise OracleError(f"TV distance over mismatched supports: {p.shape} vs {q.shape}")
    return float(0.5 * np.abs(p - q).sum())


def sequence_log_probs(policy: PolicyModel, table: SequenceTable) -> np.ndarray:
    """Exact per-sequence log-likelihood under the policy via stored snapshots."""
    out = np.zeros(len(table.records))
    for i, rec in enumerate(table.records):
        total = 0.0
        for x, step, space, idx in zip(
            rec.decision_states, rec.decision_steps, rec.decision_spaces, rec.decision_indices
        ):
            _, logp, _ = policy_distribution(policy, x, step, list(space))
            total += float(logp[idx])
        out[i] = total
    return out


def model_distribution(
    policy: PolicyModel, table: SequenceTable, tol: float = 1e-6
) -> np.ndarray:
    """Exact sequence probabilities under the policy; must cover the space."""
    probs = np.exp(sequence_log_probs(policy, table))
    total = probs.sum()
    if abs(total - 1.0) > tol:
        raise OracleError(
            f"model distribution sums to {total!r}; masking does not cover the space"
        )
    return probs


def uniform_policy_distribution(table: SequenceTable) -> np.ndarray:
    """Sequence probabilities under the uniform-over-legal-actions policy."""
    out = np.zeros(len(table.records))
    for i, rec in enumerate(table.records):
        logp = -sum(np.log(len(space)) for space in rec.decision_spaces)
        out[i] = np.exp(logp)
    return out


def length_distribution(table: SequenceTable, probs: np.ndarray) -> dict[int, float]:
    out: dict[int, float] = {}
    for rec, p in zip(table.records, probs):
        out[len(rec.actions)] = out.get(len(rec.actions), 0.0) + float(p)
    return out
