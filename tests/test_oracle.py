from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

import cgflow.oracle as oracle_mod
import cgflow.stateflow as sfmod
from cgflow.compstate import (
    EMPTY_OBJECT,
    AddSynthon,
    AttachmentPoint,
    ComposedObject,
    FirstSynthon,
    Synthon,
    SynthonLibrary,
    component_states,
    replay_actions,
    sequence_key,
    transition,
)
from cgflow.domain import RuleSet, action_space, validate_library
from cgflow.errors import InvariantError
from cgflow.gflownet import PolicyModel, next_decision_step, policy_distribution, sample_trajectory
from cgflow.nn import ParamStore, stack_rows
from cgflow.oracle import (
    _enumerate_bfs_keys,
    enumerate_sequences,
    model_distribution,
    sequence_log_probs,
    target_distribution,
    tv_distance,
    uniform_policy_distribution,
)
from cgflow.schedule import Schedule, kappa, t_end_step
from cgflow.stateflow import StateFlowModel


@pytest.fixture(scope="module")
def frozen(library, sched, rules, reward_params):
    state_model = StateFlowModel.create(sched, library, seed=55)
    policy = PolicyModel.create(sched, library, seed=56)
    table = enumerate_sequences(rules, sched, state_model, library, reward_params, 9)
    return state_model, policy, table


def table_at_beta(frozen, library, sched, rules, reward_params, beta):
    """The ``frozen`` sequence table enumerated with reward exponent ``beta``."""
    state_model, _, _ = frozen
    params = dataclasses.replace(reward_params, beta=beta)
    return enumerate_sequences(rules, sched, state_model, library, params, 9)


class TestEnumerate:
    def test_default_library_count(self, frozen):
        # 4 first bricks x (2 terminal bricks + 2 linkers x 2 bricks)
        _, _, table = frozen
        assert len(table) == 24

    def test_reduced_library_hand_count(self, sched, rules, reward_params):
        # one alpha brick, one beta brick, one linker: from either root the
        # choices are (other brick) or (linker then other brick) -> 2+2 = 4
        lib = SynthonLibrary(
            synthons=(
                Synthon("a", "brick", ((0.0, 0.0), (1.0, 0.0)),
                        (AttachmentPoint(1, "alpha", (1.0, 0.0)),)),
                Synthon("b", "brick", ((0.0, 0.0), (1.0, 0.0)),
                        (AttachmentPoint(0, "beta", (-1.0, 0.0)),)),
                Synthon("l", "linker", ((0.0, 0.0), (1.0, 0.0)),
                        (AttachmentPoint(0, "beta", (-1.0, 0.0)),
                         AttachmentPoint(1, "alpha", (1.0, 0.0)))),
            )
        )
        validate_library(lib, rules, sched)
        sf = StateFlowModel.create(sched, lib, seed=1)
        table = enumerate_sequences(rules, sched, sf, lib, reward_params, 1)
        assert len(table) == 4

    def test_repeatable(self, library, sched, rules, reward_params):
        sf = StateFlowModel.create(sched, library, seed=55)
        t1 = enumerate_sequences(rules, sched, sf, library, reward_params, 9)
        t2 = enumerate_sequences(rules, sched, sf, library, reward_params, 9)
        assert [r.key for r in t1.records] == [r.key for r in t2.records]
        for a, b in zip(t1.records, t2.records):
            assert a.log_reward == b.log_reward
            assert a.terminal_object.states.tobytes() == b.terminal_object.states.tobytes()

    def test_one_decision_per_nonterminal_prefix(self, frozen):
        # gate 9 counts the same 13 reachable nonterminal states
        _, _, table = frozen
        assert len(table.decisions) == 13
        inner = {rec.prefix[:depth] for rec in table.records for depth in range(len(rec.prefix))}
        assert set(table.decisions) == inner
        for rec in table.records:
            for depth, idx in enumerate(rec.prefix):
                decision = table.decisions[rec.prefix[:depth]]
                assert decision.actions[idx] == rec.actions[depth]
                assert not decision.state.is_terminal

    def test_completeness_replay_and_terminality(self, frozen, library, sched, rules):
        _, _, table = frozen
        for rec in table.records:
            x = replay_actions(rec.actions, library, sched, 9, p_max=rules.p_max)
            assert x.is_terminal
            assert rec.terminal_object.is_terminal

    def test_explosion_guard(self, library, sched, rules, reward_params):
        sf = StateFlowModel.create(sched, library, seed=55)
        with pytest.raises(InvariantError):
            enumerate_sequences(rules, sched, sf, library, reward_params, 9, cap=10)
        # levels: 4 first bricks; 16 two-component children; 8 leaves there
        # plus 16 three-component children.  The cap is checked on a level's
        # pending children, so the level that crosses it is never integrated
        for cap, deepest in [(10, 1), (23, 2)]:
            model = DepthCountingModel(sf)
            with pytest.raises(InvariantError, match=f"exceeded {cap}"):
                enumerate_sequences(rules, sched, model, library, reward_params, 9, cap=cap)
            assert max(model.depths) == deepest
        model = DepthCountingModel(sf)
        assert len(enumerate_sequences(rules, sched, model, library, reward_params, 9, cap=24)) == 24
        assert max(model.depths) == 3


class DepthCountingModel:
    """A frozen state flow that records, per packed forward, the most
    components any packed object has (read off the component one-hot
    feature columns)."""

    def __init__(self, model):
        self.model, self.library, self.depths = model, model.library, []

    def predict_packed(self, feats, spans):
        mc = self.model.sched.max_components
        self.depths.append(int(feats[:, 6 : 6 + mc].any(axis=0).sum()))
        return self.model.predict_packed(feats, spans)


def reference_rollout(x, model, sched, from_step, to_step):
    """The Euler loop one component at a time, on one object's own forward."""
    ends = [t_end_step(comp.t_gen_step, sched) for comp in x.components]
    for s in range(from_step, to_step):
        preds = tuple(np.array(p) for p in model.predict(x, s))
        states = []
        for i, (pred, end) in enumerate(zip(preds, ends)):
            state = component_states(x, i, model.library)
            if sched.integrator_mode == "paper":
                state = state + (pred - state) * (kappa(s, end, sched) * sched.dt)
            elif end - s > 0:
                state = state + (pred - state) * min(1.0, 1.0 / (end - s))
            states.append(pred if s + 1 >= end else state)
        x = ComposedObject(x.components, np.concatenate(states), np.concatenate(preds), x.open_attachments)
    return x


def reference_tree(rules, sched, model, library, seed):
    """The DFS one child and one segment at a time: prefix -> (object, step)
    for every decision, prefix -> object for every leaf."""
    decisions, leaves = {}, {}

    def dfs(x, step, prefix):
        if x.is_terminal:
            leaves[prefix] = x
            return
        decisions[prefix] = (x, step)
        for idx, action in enumerate(action_space(x, rules, library)):
            child = transition(x, action, library, sched, seed, p_max=rules.p_max)
            nxt = next_decision_step(child, rules, sched)
            dfs(reference_rollout(child, model, sched, step, nxt), nxt, prefix + (idx,))

    dfs(EMPTY_OBJECT, 0, ())
    return decisions, leaves


def state_digest(x):
    return hashlib.sha256(x.states.tobytes() + x.self_cond.tobytes()).hexdigest()


class TestPackedEnumeration:
    @pytest.mark.parametrize("mode, t_window", [("paper", 0.4), ("rectified", 0.2)])
    def test_tree_matches_per_segment_reference(self, library, reward_params, mode, t_window):
        sched = Schedule(lam=0.1, t_window=t_window, n_steps=20, max_components=5, integrator_mode=mode)
        rules = RuleSet(max_len=5, p_max=14)
        model = StateFlowModel.create(sched, library, seed=21)
        table = enumerate_sequences(rules, sched, model, library, reward_params, 9)
        decisions, leaves = reference_tree(rules, sched, model, library, 9)
        assert len(table) == len(leaves) == 120
        assert {p: (state_digest(d.state), d.step) for p, d in table.decisions.items()} == {
            p: (state_digest(x), step) for p, (x, step) in decisions.items()
        }
        assert {r.prefix: state_digest(r.terminal_object) for r in table.records} == {
            p: state_digest(x) for p, x in leaves.items()
        }

    @pytest.mark.parametrize("mode, t_window", [("paper", 0.4), ("rectified", 0.2)])
    def test_tree_matches_reference_across_pack_boundaries(
        self, library, reward_params, monkeypatch, mode, t_window
    ):
        # a 12-row budget splits most levels' groups into several packs
        packs, calls = [], []
        pack, packed = sfmod._integrate_pack, oracle_mod.integrate_packed
        monkeypatch.setattr(sfmod, "PACK_ROWS", 12)
        monkeypatch.setattr(sfmod, "_integrate_pack", lambda xs, *a: packs.append(1) or pack(xs, *a))
        monkeypatch.setattr(oracle_mod, "integrate_packed", lambda *a: calls.append(1) or packed(*a))
        self.test_tree_matches_per_segment_reference(library, reward_params, mode, t_window)
        assert len(packs) > 2 * len(calls)


class TestTargetDistribution:
    def test_equal_rewards_give_uniform(self, frozen):
        _, _, table = frozen
        flat = dataclasses.replace(
            table,
            records=tuple(dataclasses.replace(r, log_reward=np.log(0.5)) for r in table.records),
        )
        p = target_distribution(flat)
        assert np.allclose(p, 1.0 / len(flat.records), atol=1e-15)

    def test_sums_to_one(self, frozen):
        _, _, table = frozen
        assert target_distribution(table).sum() == pytest.approx(1.0, abs=1e-12)

    def test_large_beta_concentrates(self, frozen, library, sched, rules, reward_params):
        # mass collapses onto the argmax reward tier (the two linkers give
        # near-tied rewards, so the tier can hold more than one sequence)
        _, _, table = frozen
        hot = table_at_beta(frozen, library, sched, rules, reward_params, 32.0)
        assert [r.key for r in hot.records] == [r.key for r in table.records]
        p = target_distribution(hot)
        log_r = np.array([r.log_reward for r in table.records])
        tier = log_r >= log_r.max() - 0.2
        assert p[tier].sum() > 0.95
        assert p.max() > target_distribution(table).max()
        # exact ratio identity: p_i / p_j = exp(beta * (log R_i - log R_j))
        i, j = int(np.argmax(log_r)), int(np.argmin(log_r))
        assert np.log(p[i] / p[j]) == pytest.approx(32.0 * (log_r[i] - log_r[j]), rel=1e-9)


class TestTV:
    def test_identical(self):
        p = np.array([0.25, 0.75])
        assert tv_distance(p, p) == 0.0

    def test_disjoint(self):
        assert tv_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_half(self):
        assert tv_distance(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == 0.5

    def test_mismatched_support(self):
        with pytest.raises(InvariantError):
            tv_distance(np.array([1.0]), np.array([0.5, 0.5]))


class TestModelDistribution:
    def test_sums_to_one(self, frozen):
        _, policy, table = frozen
        p = model_distribution(policy, table)
        assert abs(p.sum() - 1.0) <= 1e-9

    def test_uniform_policy_product_by_hand(self, frozen, library, sched, rules):
        _, _, table = frozen
        u = uniform_policy_distribution(table)
        assert u.sum() == pytest.approx(1.0, abs=1e-12)
        # hand product for one traced sequence: 4 first bricks, then 4 legal
        # second actions; a length-2 sequence has probability 1/16
        two = [r for r in table.records if len(r.actions) == 2]
        assert all(np.isclose(u[i], 1 / 16) for i, r in enumerate(table.records) if len(r.actions) == 2)
        three = [u[i] for i, r in enumerate(table.records) if len(r.actions) == 3]
        assert all(np.isclose(v, 1 / 32) for v in three)

    def test_matches_sampling_frequencies(self, frozen, library, sched, rules, reward_params):
        state_model, policy, table = frozen
        p = model_distribution(policy, table)
        counts = dict.fromkeys([r.key for r in table.records], 0)
        # frozen models: one rollout cache, node memo and policy table serve
        # every draw, which leaves the draws bitwise unchanged (TestPrefixMemo)
        memo = {"rollout_cache": {}, "node_memo": {}, "policy_table": {}}
        n = 4000
        for j in range(n):
            out = sample_trajectory(
                policy, state_model, sched, rules, library, reward_params,
                global_seed=9, traj_seed=j, **memo,
            )
            counts[sequence_key(s.action for s in out.trajectory.actions)] += 1
        emp = np.array([counts[r.key] for r in table.records]) / n
        assert tv_distance(emp, p) <= 0.05

    def test_sequence_log_probs_consistent(self, frozen):
        _, policy, table = frozen
        lp = sequence_log_probs(policy, table)
        assert np.allclose(np.exp(lp), model_distribution(policy, table), atol=1e-15)

    def test_sequence_log_probs_scores_each_record_exactly(self, frozen):
        # reference: one forward per decision of every record, no sharing
        _, policy, table = frozen
        want = []
        for rec in table.records:
            total = 0.0
            for depth, idx in enumerate(rec.prefix):
                d = table.decisions[rec.prefix[:depth]]
                total += float(policy_distribution(policy, d.state, d.step, list(d.actions))[1][idx])
            want.append(total)
        assert sequence_log_probs(policy, table).tobytes() == np.array(want).tobytes()

    def test_uniform_matches_per_record_formula_bitwise(self, frozen):
        # reference: minus the sum of log |legal actions| along each record
        _, _, table = frozen
        want = [
            np.exp(-sum(np.log(len(table.decisions[rec.prefix[:depth]].actions))
                        for depth in range(len(rec.prefix))))
            for rec in table.records
        ]
        assert uniform_policy_distribution(table).tobytes() == np.array(want).tobytes()

    def test_bfs_keys_match_recursive_walk(self, library, sched, rules):
        def walk(x, actions):
            if x.is_terminal:
                yield sequence_key(actions)
                return
            for a in action_space(x, rules, library):
                child = transition(x, a, library, sched, global_seed=0, p_max=rules.p_max)
                yield from walk(child, actions + (a,))

        want = list(walk(EMPTY_OBJECT, ()))
        assert len(want) == len(set(want)) == 24
        assert _enumerate_bfs_keys(rules, sched, library, cap=100) == set(want)
        with pytest.raises(InvariantError):
            _enumerate_bfs_keys(rules, sched, library, cap=23)


class TestLengthDistribution:
    def test_uniform_policy_lengths(self, frozen):
        _, _, table = frozen
        u = uniform_policy_distribution(table)
        lengths = np.array([len(r.actions) for r in table.records])
        assert u[lengths == 2].sum() == pytest.approx(0.5)
        assert u[lengths == 3].sum() == pytest.approx(0.5)


def recorded_actions(x):
    """The action sequence that built ``x``, read back from its components."""
    return [
        AddSynthon(c.parent_component, c.parent_attachment, c.synthon_id, c.child_attachment)
        if i else FirstSynthon(c.synthon_id)
        for i, c in enumerate(x.components)
    ]


class TabularPolicy:
    """Exact per-prefix conditional distribution, keyed by action history."""

    def __init__(self, conditionals):
        self.conditionals = conditionals  # prefix key -> {action: prob}
        self.store = ParamStore()  # no parameters: logits come from the table

    def forward(self, ops, decisions):
        logits, spans = stack_rows([
            np.log(np.array([self.conditionals[sequence_key(recorded_actions(x))][a] for a in actions]))
            for x, _, actions in decisions
        ])
        return ops.log_softmax(ops.const(logits), spans), spans


class TestTBFixedPoint:
    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_tabular_target_policy_balances_all_trajectories(
        self, frozen, library, sched, rules, reward_params, beta
    ):
        # driving TB loss to ~0 on every trajectory pins the sequence
        # distribution to R/Z with R = exp(log_reward): instantiate the
        # unique balancing policy and check both statements
        table = table_at_beta(frozen, library, sched, rules, reward_params, beta)
        target = target_distribution(table)

        prefix_mass: dict[str, float] = {}
        edge_mass: dict[tuple[str, object], float] = {}
        for rec, p in zip(table.records, target):
            for k in range(len(rec.actions)):
                prefix = sequence_key(rec.actions[:k])
                prefix_mass[prefix] = prefix_mass.get(prefix, 0.0) + float(p)
                edge = (prefix, rec.actions[k])
                edge_mass[edge] = edge_mass.get(edge, 0.0) + float(p)
        conditionals: dict[str, dict] = {}
        for (prefix, action), mass in edge_mass.items():
            conditionals.setdefault(prefix, {})[action] = mass / prefix_mass[prefix]

        policy = TabularPolicy(conditionals)
        log_z = table.log_z_exact()
        log_probs = sequence_log_probs(policy, table)
        residuals = log_z + log_probs - np.array([r.log_reward for r in table.records])
        assert float((residuals**2).max()) < 1e-10

        p_model = model_distribution(policy, table)
        assert np.abs(p_model - target).max() < 1e-5
