from __future__ import annotations

import numpy as np
import pytest

from cgflow.compstate import EMPTY_OBJECT, AddSynthon, FirstSynthon, replay_actions, transition
from cgflow.domain import RuleSet, action_space, generate_dataset
from cgflow.gflownet import (
    DataPipelineError,
    PolicyHyper,
    PolicyModel,
    SampledTrajectory,
    ce_batch,
    ce_loss_node,
    next_decision_step,
    policy_distribution,
    sample_trajectory,
    tb_loss_node,
    tb_loss_value,
    train_policy_ce,
    train_policy_tb,
    uniform_ce_baseline,
)
from cgflow.nn import Tape, finite_difference_check
from cgflow.schedule import Schedule, action_steps
from cgflow.seeding import mix64, rng_from
from cgflow.stateflow import StateFlowModel, euler_rollout


@pytest.fixture(scope="module")
def models(library, sched):
    return (
        PolicyModel.create(sched, library, seed=101),
        StateFlowModel.create(sched, library, seed=102),
    )


class TestPolicyDistribution:
    def test_normalized(self, models, library, rules):
        policy, _ = models
        actions = action_space(EMPTY_OBJECT, rules, library)
        probs, logp, _ = policy_distribution(policy, EMPTY_OBJECT, 0, actions)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(np.log(probs), logp)

    def test_zero_scorer_head_is_uniform(self, library, sched, rules):
        policy = PolicyModel.create(sched, library, seed=5)
        for name in policy.store.names():
            if name.startswith("pol.head_first"):
                policy.store.set(name, np.zeros_like(policy.store.get(name)))
        actions = action_space(EMPTY_OBJECT, rules, library)
        probs, _, _ = policy_distribution(policy, EMPTY_OBJECT, 0, actions)
        assert np.allclose(probs, 1.0 / len(actions), atol=1e-12)

    def test_single_action_probability_one(self, models, library, sched, rules):
        policy, _ = models
        x = replay_actions(
            [FirstSynthon("b3a")], library, sched, global_seed=1
        )
        actions = action_space(x, rules, library)[:1]
        probs, _, _ = policy_distribution(policy, x, 6, actions)
        assert probs.shape == (1,)
        assert probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_taped_matches_numpy(self, models, library, rules):
        policy, _ = models
        actions = action_space(EMPTY_OBJECT, rules, library)
        p_np, _, _ = policy_distribution(policy, EMPTY_OBJECT, 0, actions)
        tape = Tape(policy.store)
        p_tape, _, node = policy_distribution(policy, EMPTY_OBJECT, 0, actions, tape=tape)
        assert node is not None
        assert np.array_equal(p_np, p_tape)

    def test_empty_action_list_rejected(self, models):
        policy, _ = models
        with pytest.raises(Exception):
            policy_distribution(policy, EMPTY_OBJECT, 0, [])


class TestSampleTrajectory:
    def test_length_bounds(self, models, library, sched, rules, reward_params):
        policy, state_model = models
        for j in range(30):
            out = sample_trajectory(
                policy, state_model, sched, rules, library, reward_params,
                global_seed=9, traj_seed=j,
            )
            assert rules.min_len <= out.trajectory.length <= rules.max_len
            assert out.trajectory.terminal_object.is_terminal

    def test_bitwise_determinism(self, models, library, sched, rules, reward_params):
        policy, state_model = models
        a = sample_trajectory(policy, state_model, sched, rules, library, reward_params, 9, 4)
        b = sample_trajectory(policy, state_model, sched, rules, library, reward_params, 9, 4)
        assert a.trajectory.sequence_key() == b.trajectory.sequence_key()
        assert a.trajectory.reward == b.trajectory.reward
        for sa, sb in zip(a.trajectory.terminal_object.states, b.trajectory.terminal_object.states):
            assert np.array_equal(sa, sb)

    def test_recorded_logprob_is_policy_not_mixture(self, models, library, sched, rules, reward_params):
        # with eps=1 every pick is random, but the recorded log-probs must
        # still come from the policy distribution: replaying the same action
        # sequence with the pure policy yields identical records
        policy, state_model = models
        out = sample_trajectory(
            policy, state_model, sched, rules, library, reward_params,
            global_seed=9, traj_seed=11, eps_random=1.0,
        )
        replay = sample_trajectory(
            policy, state_model, sched, rules, library, reward_params,
            global_seed=9, traj_seed=0,
            forced_actions=[s.action for s in out.trajectory.actions],
        )
        for a, b in zip(out.trajectory.actions, replay.trajectory.actions):
            assert a.log_prob == b.log_prob
        # sanity: past the first decision the fresh policy is not uniform
        # (the empty-state head is exactly zero at init, so decision one is)
        assert out.trajectory.actions[1].log_prob != pytest.approx(-np.log(4), abs=1e-9)

    def test_forced_actions_replay(self, models, library, sched, rules, reward_params):
        policy, state_model = models
        out = sample_trajectory(policy, state_model, sched, rules, library, reward_params, 9, 21)
        forced = [s.action for s in out.trajectory.actions]
        replayed = sample_trajectory(
            policy, state_model, sched, rules, library, reward_params, 9, 999,
            forced_actions=forced,
        )
        assert replayed.trajectory.sequence_key() == out.trajectory.sequence_key()
        assert replayed.trajectory.reward == out.trajectory.reward


class TestRolloutReuse:
    def test_cache_gives_identical_trajectories_and_gradients(
        self, models, library, sched, rules, reward_params
    ):
        policy, state_model = models
        cache: dict = {}

        def draw(traj_seed, rollout_cache):
            tape = Tape(policy.store)
            out = sample_trajectory(
                policy, state_model, sched, rules, library, reward_params,
                global_seed=9, traj_seed=traj_seed, eps_random=0.3, tape=tape,
                rollout_cache=rollout_cache,
            )
            return out, tape.backward(tb_loss_node(tape, out))

        for j in range(24):
            plain, g_plain = draw(j, None)
            cached, g_cached = draw(j, cache)
            a, b = plain.trajectory, cached.trajectory
            assert a.sequence_key() == b.sequence_key()
            assert [s.step_index for s in a.actions] == [s.step_index for s in b.actions]
            assert [s.log_prob for s in a.actions] == [s.log_prob for s in b.actions]
            assert plain.log_reward == cached.log_reward
            for sa, sb in zip(a.terminal_object.states, b.terminal_object.states):
                assert sa.tobytes() == sb.tobytes()
            assert g_plain.keys() == g_cached.keys()
            for name in g_plain:
                assert np.array_equal(g_plain[name], g_cached[name])
        # about one entry per decision segment, shared across trajectories
        assert 0 < len(cache) < 24 * (rules.max_len + 1)

    @pytest.mark.parametrize("mode", ["paper", "rectified"])
    def test_matches_step_by_step_integration(self, models, library, rules, reward_params, mode):
        # the reference sampler: one Euler step per call, acting at every
        # action step while the object is open and below max_len
        sched = Schedule(lam=0.3, t_window=0.4, n_steps=20, max_components=3, integrator_mode=mode)
        policy, state_model = models
        for j in range(6):
            out = sample_trajectory(
                policy, state_model, sched, rules, library, reward_params, 9, j
            ).trajectory
            forced = iter(s.action for s in out.actions)
            x = EMPTY_OBJECT
            for step in range(sched.n_steps):
                if step in action_steps(sched) and not x.is_terminal and len(x.components) < rules.max_len:
                    x = transition(x, next(forced), library, sched, 9, p_max=rules.p_max)
                x = euler_rollout(x, state_model, sched, step, step + 1)
            for got, want in zip(out.terminal_object.states, x.states):
                assert got.tobytes() == want.tobytes()

    def test_next_decision_step(self, library, sched, rules):
        firing = action_steps(sched)
        x = EMPTY_OBJECT
        assert next_decision_step(x, rules, sched) == firing[0]
        x = replay_actions([FirstSynthon("b2a")], library, sched, global_seed=1)
        assert next_decision_step(x, rules, sched) == firing[1]
        x = replay_actions(
            [FirstSynthon("b2a"), AddSynthon(0, 0, "l_ab", 0)], library, sched, global_seed=1
        )
        assert not x.is_terminal
        assert next_decision_step(x, rules, sched) == firing[2]
        assert next_decision_step(x, RuleSet(max_len=2), sched) == sched.n_steps
        done = replay_actions(
            [FirstSynthon("b2a"), AddSynthon(0, 0, "b2b", 0)], library, sched, global_seed=1
        )
        assert done.is_terminal
        assert next_decision_step(done, rules, sched) == sched.n_steps


class TestTBLoss:
    def test_balanced_single_action_space(self, library, sched, reward_params):
        # single legal action => P_F = 1; log_Z = log R zeroes the loss
        policy = PolicyModel.create(sched, library, seed=7)
        rules = RuleSet()
        tape = Tape(policy.store)
        fake = SampledTrajectory(
            trajectory=None, logp_nodes=[], log_reward=0.0,
        )
        policy.store.set("log_Z", np.array(0.0))
        node = tb_loss_node(tape, fake)
        assert float(tape.value(node)) == pytest.approx(0.0, abs=1e-24)

    def test_quadratic_in_log_z_offset(self, library, sched):
        policy = PolicyModel.create(sched, library, seed=7)
        delta = 0.37
        policy.store.set("log_Z", np.array(delta))
        tape = Tape(policy.store)
        fake = SampledTrajectory(trajectory=None, logp_nodes=[], log_reward=0.0)
        node = tb_loss_node(tape, fake)
        assert float(tape.value(node)) == pytest.approx(delta**2, rel=1e-12)

    def test_gradient_matches_finite_differences(self, models, library, sched, rules, reward_params):
        policy = PolicyModel.create(sched, library, seed=31)
        _, state_model = models

        def build(tape: Tape) -> int:
            sampled = sample_trajectory(
                policy, state_model, sched, rules, library, reward_params,
                global_seed=9, traj_seed=13, eps_random=0.0, tape=tape,
            )
            return tb_loss_node(tape, sampled)

        err = finite_difference_check(build, policy.store, rng_from(14), n_coords=64)
        assert err < 1e-4

    def test_tb_loss_value_helper(self, models, library, sched, rules, reward_params):
        policy, state_model = models
        out = sample_trajectory(policy, state_model, sched, rules, library, reward_params, 9, 77)
        v = tb_loss_value(out.trajectory, policy.log_z)
        manual = (policy.log_z + sum(s.log_prob for s in out.trajectory.actions) - np.log(out.trajectory.reward)) ** 2
        assert v == pytest.approx(manual, rel=1e-12)


class TestCELoss:
    def test_one_hot_policy_zero_loss(self, library, sched, rules):
        policy = PolicyModel.create(sched, library, seed=3)
        data = generate_dataset(4, 6, library, rules, sched)
        items = ce_batch(data, policy, rules, library, sched, rng_from(2), 2)
        # replace with a fake distribution by scoring the truth infinitely:
        # instead verify the uniform identity which needs no training
        baseline = uniform_ce_baseline(items)
        assert baseline == pytest.approx(
            float(np.mean([np.log(len(a)) for _, _, a, _ in items]))
        )

    def test_uniform_policy_hits_baseline(self, library, sched, rules):
        policy = PolicyModel.create(sched, library, seed=3)
        for name in policy.store.names():
            if name.startswith(("pol.head_first", "pol.head_add")):
                policy.store.set(name, np.zeros_like(policy.store.get(name)))
        data = generate_dataset(16, 6, library, rules, sched)
        items = ce_batch(data, policy, rules, library, sched, rng_from(2), 8)
        tape = Tape(policy.store)
        loss = float(tape.value(ce_loss_node(tape, policy, items)))
        assert loss == pytest.approx(uniform_ce_baseline(items), rel=1e-12)

    def test_gradient_matches_finite_differences(self, library, sched, rules):
        policy = PolicyModel.create(sched, library, seed=33)
        data = generate_dataset(8, 6, library, rules, sched)
        items = ce_batch(data, policy, rules, library, sched, rng_from(21), 4)
        err = finite_difference_check(
            lambda tape: ce_loss_node(tape, policy, items), policy.store, rng_from(5)
        )
        assert err < 1e-4

    def test_truth_always_legal(self, library, sched, rules):
        policy = PolicyModel.create(sched, library, seed=3)
        data = generate_dataset(64, 6, library, rules, sched)
        items = ce_batch(data, policy, rules, library, sched, rng_from(9), 64)
        for _, _, actions, idx in items:
            assert 0 <= idx < len(actions)


class TestTrainers:
    def test_tb_zero_lr_leaves_policy(self, models, library, sched, rules, reward_params):
        _, state_model = models
        hyper = PolicyHyper(batch=2, iters=2, lr=0.0, lr_log_z=0.0)
        policy, metrics = train_policy_tb(
            state_model, sched, rules, library, reward_params, hyper, run_seed=5
        )
        fresh = PolicyModel.create(sched, library, seed=5)
        for name in fresh.store.names():
            assert np.array_equal(policy.store.get(name), fresh.store.get(name))
        assert len(metrics) == 2
        assert all("mean_reward" in m for m in metrics)

    def test_tb_deterministic(self, models, library, sched, rules, reward_params):
        _, state_model = models
        hyper = PolicyHyper(batch=2, iters=3)
        _, m1 = train_policy_tb(state_model, sched, rules, library, reward_params, hyper, run_seed=5)
        _, m2 = train_policy_tb(state_model, sched, rules, library, reward_params, hyper, run_seed=5)
        strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]
        assert strip(m1) == strip(m2)

    def test_ce_trainer_smoke(self, library, sched, rules):
        data = generate_dataset(32, 6, library, rules, sched)
        hyper = PolicyHyper(batch=4, iters=3, objective="ce")
        policy, metrics = train_policy_ce(data, sched, rules, library, hyper, run_seed=5)
        assert len(metrics) == 3
        assert all(np.isfinite(m["ce_loss"]) for m in metrics)
