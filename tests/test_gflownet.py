from __future__ import annotations

import numpy as np
import pytest

from cgflow import stateflow
from cgflow.compstate import (
    EMPTY_OBJECT,
    AddSynthon,
    FirstSynthon,
    decompose,
    replay_actions,
    sequence_key,
    transition,
)
from cgflow.domain import RuleSet, action_space, generate_dataset
from cgflow.errors import NumericalError
from cgflow.gflownet import (
    PolicyHyper,
    PolicyModel,
    PrefixNode,
    SampledTrajectory,
    action_features,
    ce_batch,
    ce_loss_node,
    choice_cdf,
    draw_from_cdf,
    next_decision_step,
    policy_distribution,
    sample_trajectory,
    tb_loss_node,
    train_policy_ce,
    train_policy_tb,
    uniform_ce_baseline,
)
from cgflow.nn import Eval, Tape, adam_step, finite_difference_check, mlp_apply
from cgflow.oracle import enumerate_sequences
from cgflow.schedule import Schedule, action_steps
from cgflow.seeding import mix64, rng_from
from cgflow.stateflow import HIDDEN, StateFlowModel, euler_rollout, featurize_points, interpolate


def traj_key(traj):
    return sequence_key(s.action for s in traj.actions)


def reference_log_probs(policy, x, t_step, actions):
    """Straight-line numpy policy forward pass and log-softmax."""
    s = policy.store

    def dense(v, prefix):
        return v @ s.get(f"{prefix}.w") + s.get(f"{prefix}.b")

    def silu(v):
        return v * (1.0 / (1.0 + np.exp(-v)))

    feats, _ = featurize_points(x, t_step, policy.sched, policy.library)
    if feats.shape[0] == 0:
        pooled = np.zeros(HIDDEN)
    else:
        pooled = silu(dense(silu(dense(feats, "pol.enc.0")), "pol.enc.1")).mean(axis=0)
    hp = "pol.head_first" if x.is_empty else "pol.head_add"
    q = dense(silu(dense(pooled, f"{hp}.0")), f"{hp}.1")
    a = action_features(x, actions, policy.library, policy.sched)
    logits = dense(silu(dense(a, "pol.act.0")), "pol.act.1") @ q
    shifted = logits - logits.max()
    return shifted - np.log(np.exp(shifted).sum())


def per_decision_log_probs(policy, x, t_step, actions):
    """The policy forward as it was written for one decision at a time
    (``PolicyModel.logits`` and a log-softmax), on an Eval: the reference
    the packed forward must match bitwise."""
    ops = Eval(policy.store)
    feats, _ = featurize_points(x, t_step, policy.sched, policy.library)
    if feats.shape[0] == 0:
        pooled = np.zeros(HIDDEN)
    else:
        pooled = ops.silu(mlp_apply(ops, "pol.enc", feats, 2)).mean(axis=0)
    q = mlp_apply(ops, "pol.head_first" if x.is_empty else "pol.head_add", pooled, 2)
    a = action_features(x, actions, policy.library, policy.sched)
    logits = mlp_apply(ops, "pol.act", a, 2) @ q
    shifted = logits - logits.max()
    return shifted - np.log(np.exp(shifted).sum())


def replayed_ce_batch(dataset, rules, library, sched, rng, batch):
    """``ce_batch`` as it was written: every step replays its prefix through
    ``interpolate``."""
    items = []
    for _ in range(batch):
        obj = dataset[int(rng.integers(len(dataset)))]
        plan = decompose(obj, library, rng=rng, exclude_recorded=True, canonicalize=False)
        sample_seed = int(rng.integers(1 << 63))
        for i in range(len(plan)):
            t_step = i * sched.lam_steps
            x_t = interpolate(plan, t_step, 0.0, sched, library, sample_seed=sample_seed).x_t
            if x_t.components:
                x_t = x_t.with_states(x_t.states, self_cond=np.concatenate([p.s1 for p in plan[: len(x_t.components)]]))
            actions = action_space(x_t, rules, library)
            items.append((x_t, t_step, actions, actions.index(plan[i].action)))
    return items


def randomized_policy(sched, library, seed):
    """A policy with every parameter drawn at random, so no head or bias is
    zero as at initialisation."""
    policy = PolicyModel.create(sched, library, seed=seed)
    rng = rng_from(seed, "randomized")
    for name in policy.store.names():
        value = policy.store.get(name)
        policy.store.set(name, rng.normal(scale=0.3, size=value.shape))
    return policy


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

    def test_taped_matches_numpy(self, models, library, sched, rules):
        policy, _ = models
        prefix = [FirstSynthon("b2a"), AddSynthon(0, 0, "l_ab", 0)]
        for k in range(len(prefix) + 1):
            x = replay_actions(prefix[:k], library, sched, global_seed=3)
            step = action_steps(sched)[k]
            actions = action_space(x, rules, library)
            want = reference_log_probs(policy, x, step, actions)
            p_eval, logp_eval, no_node = policy_distribution(policy, x, step, actions)
            assert no_node is None
            assert np.array_equal(logp_eval, want)
            assert np.array_equal(p_eval, np.exp(want))
            tape = Tape(policy.store)
            p_tape, logp_tape, node = policy_distribution(policy, x, step, actions, tape=tape)
            assert node is not None
            assert np.array_equal(logp_tape, want)
            assert np.array_equal(p_tape, p_eval)

    def test_empty_action_list_rejected(self, models):
        policy, _ = models
        with pytest.raises(Exception):
            policy_distribution(policy, EMPTY_OBJECT, 0, [])


def assert_packed_matches_per_decision(policy, decisions):
    for ops in (Eval(policy.store), Tape(policy.store)):
        node, spans = policy.forward(ops, decisions)
        logp = ops.value(node)
        assert sum(m for _, m in spans) == len(logp)
        for (x, t_step, actions), (offset, m) in zip(decisions, spans):
            assert m == len(actions)
            want = per_decision_log_probs(policy, x, t_step, actions)
            assert logp[offset : offset + m].tobytes() == want.tobytes()


class TestPackedForward:
    def test_ce_batch_matches_per_decision_bitwise(self, library, sched, rules):
        policy = randomized_policy(sched, library, 41)
        data = generate_dataset(32, 6, library, rules, sched)
        items = ce_batch(data, rules, library, sched, rng_from(4), 24)
        decisions = [(x, t, a) for x, t, a, _ in items]
        # a decision with a single legal action has log-probability 0.0
        # whatever its logit's bits
        decisions.append((items[-1][0], items[-1][1], items[-1][2][:1]))
        assert {x.is_empty for x, _, _ in decisions} == {True, False}
        assert decisions[0][0].is_empty and not decisions[1][0].is_empty
        assert_packed_matches_per_decision(policy, decisions)

    def test_default_table_matches_per_decision_bitwise(self, library, sched, rules, reward_params):
        policy = randomized_policy(sched, library, 42)
        state_model = StateFlowModel.create(sched, library, seed=43)
        table = enumerate_sequences(rules, sched, state_model, library, reward_params, 9)
        decisions = [(d.state, d.step, list(d.actions)) for d in table.decisions.values()]
        assert len(decisions) == 13
        assert_packed_matches_per_decision(policy, decisions)

    def test_ce_loss_is_one_forward(self, library, sched, rules, monkeypatch):
        policy = randomized_policy(sched, library, 45)
        data = generate_dataset(32, 6, library, rules, sched)
        items = ce_batch(data, rules, library, sched, rng_from(5), 16)
        calls = []
        original = policy.forward
        monkeypatch.setattr(policy, "forward", lambda ops, ds: calls.append(len(ds)) or original(ops, ds))
        tape = Tape(policy.store)
        loss = ce_loss_node(tape, policy, items)
        assert calls == [len(items)]
        # the tape's size does not grow with the batch
        assert len(tape) < 50
        want = -np.mean([per_decision_log_probs(policy, x, t, a)[i] for x, t, a, i in items])
        assert float(tape.value(loss)) == pytest.approx(want, rel=1e-12)


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
        assert traj_key(a.trajectory) == traj_key(b.trajectory)
        assert a.trajectory.reward == b.trajectory.reward
        assert a.trajectory.terminal_object.states.tobytes() == b.trajectory.terminal_object.states.tobytes()

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
        assert traj_key(replayed.trajectory) == traj_key(out.trajectory)
        assert replayed.trajectory.reward == out.trajectory.reward


class TestCdfDraw:
    def test_matches_generator_choice(self):
        # the sampler's draw reproduces Generator.choice(p=...) from numpy's
        # own CDF construction; a numpy release that changes either one
        # fails here, not in a byte-compare of samples.jsonl
        cases = np.random.default_rng(21)
        for case in range(3000):
            k = int(cases.integers(1, 30))
            logits = cases.normal(size=k) * cases.choice([0.1, 1.0, 10.0, 60.0])
            probs = np.exp(logits - logits.max())
            cdf = choice_cdf(probs)
            ours, theirs = np.random.default_rng(case), np.random.default_rng(case)
            for _ in range(3):
                assert draw_from_cdf(cdf, ours) == int(theirs.choice(k, p=probs / probs.sum()))
            assert ours.integers(1 << 62) == theirs.integers(1 << 62)

    def test_non_finite_cdf_is_a_numerical_error(self):
        for probs in (np.array([0.5, np.nan]), np.array([np.inf, 1.0]), np.zeros(3)):
            with np.errstate(invalid="ignore", divide="ignore"):
                with pytest.raises(NumericalError, match="non-finite CDF"):
                    choice_cdf(probs)


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
            assert traj_key(a) == traj_key(b)
            assert [s.step_index for s in a.actions] == [s.step_index for s in b.actions]
            assert [s.log_prob for s in a.actions] == [s.log_prob for s in b.actions]
            assert plain.log_reward == cached.log_reward
            assert a.terminal_object.states.tobytes() == b.terminal_object.states.tobytes()
            assert g_plain.keys() == g_cached.keys()
            for name in g_plain:
                assert np.array_equal(g_plain[name], g_cached[name])
        # about one entry per decision segment, shared across trajectories
        assert 0 < len(cache) < 24 * (rules.max_len + 1)

    def test_tb_starts_from_the_oracle_tables_rollouts(
        self, models, library, sched, rules, reward_params, monkeypatch
    ):
        # packed integration gives each object its solo bits, so the table's
        # rollouts are exact cache hits: TB integrates nothing again and
        # trains bit for bit as from an empty cache
        _, state_model = models
        hyper = PolicyHyper(batch=8, iters=3, lr=1e-3, lr_log_z=1e-1)
        cache: dict = {}
        table = enumerate_sequences(rules, sched, state_model, library, reward_params, 5, rollout_cache=cache)
        assert len(cache) == len(table) + len(table.decisions) - 1  # one entry per segment of the tree
        fresh, fresh_metrics = train_policy_tb(state_model, sched, rules, library, reward_params, hyper, run_seed=5)
        entries = dict(cache)
        calls = []
        original = stateflow.integrate_packed
        monkeypatch.setattr(stateflow, "integrate_packed", lambda xs, *a: calls.append(len(xs)) or original(xs, *a))
        reused, metrics = train_policy_tb(
            state_model, sched, rules, library, reward_params, hyper, run_seed=5, rollout_cache=cache
        )
        assert calls == []
        assert cache.keys() == entries.keys() and all(cache[k] is v for k, v in entries.items())
        strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]
        assert strip(metrics) == strip(fresh_metrics)
        for name in fresh.store.names():
            assert fresh.store.get(name).tobytes() == reused.store.get(name).tobytes()

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
            assert out.terminal_object.states.tobytes() == x.states.tobytes()

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


def assert_close_at_scale(got: dict, want: dict, rtol: float) -> None:
    """Entrywise rtol, with an absolute floor of rtol times the largest entry.

    Reordered sums round differently, and an entry that is mostly
    cancellation, or all of it (``pol.act.1.b`` shifts every logit equally,
    so its gradient is zero up to rounding), has no relative precision.
    """
    assert got.keys() == want.keys()
    scale = max(float(np.abs(v).max()) for v in want.values())
    for name in want:
        np.testing.assert_allclose(got[name], want[name], rtol=rtol, atol=rtol * scale, err_msg=name)


def tb_batch(policy, state_model, sched, rules, library, reward_params, tape, seeds, memo=None):
    """Mean TB loss node over one batch; with ``memo``, one policy table per tape."""
    table = None if memo is None else {}
    total = None
    for j in seeds:
        sampled = sample_trajectory(
            policy, state_model, sched, rules, library, reward_params,
            global_seed=9, traj_seed=j, eps_random=0.2, tape=tape,
            node_memo=memo, policy_table=table,
        )
        node = tb_loss_node(tape, sampled)
        total = node if total is None else tape.add(total, node)
    return tape.scale(total, 1.0 / len(seeds)), table


class TestPrefixMemo:
    def test_memo_gives_identical_trajectories(self, models, library, sched, rules, reward_params):
        policy, state_model = models
        memo: dict = {}
        table: dict = {}
        cache: dict = {}

        def draw(traj_seed, forced=None, **memo_args):
            return sample_trajectory(
                policy, state_model, sched, rules, library, reward_params,
                global_seed=9, traj_seed=traj_seed, eps_random=0.3,
                forced_actions=forced, **memo_args,
            )

        def same(a, b):
            ta, tb = a.trajectory, b.trajectory
            assert traj_key(ta) == traj_key(tb)
            assert [s.step_index for s in ta.actions] == [s.step_index for s in tb.actions]
            assert [s.log_prob for s in ta.actions] == [s.log_prob for s in tb.actions]
            assert a.log_reward == b.log_reward
            assert ta.reward == tb.reward
            assert ta.terminal_object.states.shape == tb.terminal_object.states.shape
            assert ta.terminal_object.states.tobytes() == tb.terminal_object.states.tobytes()

        for j in range(32):
            plain = draw(j)
            same(plain, draw(j, node_memo=memo, policy_table=table, rollout_cache=cache))
            # a forced replay under another seed reads the same memo entries
            forced = [s.action for s in plain.trajectory.actions]
            same(plain, draw(1000 + j, forced, node_memo=memo, policy_table=table))
        # one entry per distinct prefix: far fewer than the decisions made
        assert 0 < len(table) < len(memo) < 32 * (rules.max_len + 1)

    def test_memo_arrays_are_read_only(self, models, library, sched, rules, reward_params):
        policy, state_model = models
        memo: dict = {}
        for j in range(12):
            out = sample_trajectory(
                policy, state_model, sched, rules, library, reward_params,
                global_seed=9, traj_seed=j, node_memo=memo,
            )
        assert out.trajectory.terminal_object.is_terminal
        assert all(isinstance(node, PrefixNode) for node in memo.values())
        arrays = [a for node in memo.values() for a in (node.child.states, node.child.self_cond)]
        assert arrays and not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            memo[(0,)].child.states[0, 0] = 1.0

    def test_tb_batch_loss_and_gradients_match(self, models, library, sched, rules, reward_params):
        policy, state_model = models
        seeds = range(48)
        plain_tape = Tape(policy.store)
        plain_loss, _ = tb_batch(policy, state_model, sched, rules, library, reward_params, plain_tape, seeds)
        memo_tape = Tape(policy.store)
        memo_loss, table = tb_batch(
            policy, state_model, sched, rules, library, reward_params, memo_tape, seeds, memo={}
        )
        # one taped forward per distinct decision state, not per decision
        assert len(table) < 48
        assert len(memo_tape) < len(plain_tape)
        assert memo_tape.value(memo_loss).tobytes() == plain_tape.value(plain_loss).tobytes()
        assert_close_at_scale(memo_tape.backward(memo_loss), plain_tape.backward(plain_loss), rtol=1e-12)

    def test_memoised_batch_gradient_matches_finite_differences(
        self, models, library, sched, rules, reward_params
    ):
        _, state_model = models
        policy = PolicyModel.create(sched, library, seed=31)
        memo: dict = {}
        tables = []

        def build(tape: Tape) -> int:
            loss, table = tb_batch(
                policy, state_model, sched, rules, library, reward_params, tape, range(8), memo=memo
            )
            tables.append(table)
            return loss

        err = finite_difference_check(build, policy.store, rng_from(15), n_coords=48)
        assert err < 1e-4
        # 8 trajectories make at least 8 * min_len decisions; fewer taped
        # nodes means several trajectories picked from the same one
        assert len(tables[0]) < 8 * rules.min_len

    def test_tb_trainer_matches_unmemoised_reference(self, models, library, sched, rules, reward_params):
        _, state_model = models
        hyper = PolicyHyper(batch=8, iters=3, lr=1e-3, lr_log_z=1e-1)
        trained, metrics = train_policy_tb(
            state_model, sched, rules, library, reward_params, hyper, run_seed=5
        )
        # the trainer's loop without any memo, cache or policy table
        reference = PolicyModel.create(sched, library, seed=5)
        losses = []
        for it in range(hyper.iters):
            tape = Tape(reference.store)
            total = None
            for b in range(hyper.batch):
                sampled = sample_trajectory(
                    reference, state_model, sched, rules, library, reward_params,
                    global_seed=5, traj_seed=rng_from(5, "tb-traj", it, b).integers(1 << 62),
                    eps_random=hyper.eps_random, tape=tape,
                )
                node = tb_loss_node(tape, sampled)
                total = node if total is None else tape.add(total, node)
            loss = tape.scale(total, 1.0 / hyper.batch)
            adam_step(reference.store, tape.backward(loss), lr=hyper.lr, lr_overrides={"log_Z": hyper.lr_log_z})
            losses.append(float(tape.value(loss)))
        # a policy table that outlived its tape would pick stale nodes from
        # the second iteration on
        np.testing.assert_allclose([m["tb_loss"] for m in metrics], losses, rtol=1e-9)
        names = reference.store.names()
        assert_close_at_scale(
            {n: trained.store.get(n) for n in names}, {n: reference.store.get(n) for n in names}, rtol=1e-9
        )


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
        # the taped loss against a float reference built from the recorded
        # log-probs and reward
        def tb_loss_value(traj, log_z):
            total = log_z + sum(s.log_prob for s in traj.actions)
            return float((total - np.log(traj.reward)) ** 2)

        policy, state_model = models
        tape = Tape(policy.store)
        out = sample_trajectory(
            policy, state_model, sched, rules, library, reward_params, 9, 77, tape=tape
        )
        v = float(tape.value(tb_loss_node(tape, out)))
        assert v == pytest.approx(tb_loss_value(out.trajectory, policy.log_z), rel=1e-12)


class TestCELoss:
    def test_one_hot_policy_zero_loss(self, library, sched, rules):
        data = generate_dataset(4, 6, library, rules, sched)
        items = ce_batch(data, rules, library, sched, rng_from(2), 2)
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
        items = ce_batch(data, rules, library, sched, rng_from(2), 8)
        tape = Tape(policy.store)
        loss = float(tape.value(ce_loss_node(tape, policy, items)))
        assert loss == pytest.approx(uniform_ce_baseline(items), rel=1e-12)

    def test_gradient_matches_finite_differences(self, library, sched, rules):
        policy = PolicyModel.create(sched, library, seed=33)
        data = generate_dataset(8, 6, library, rules, sched)
        items = ce_batch(data, rules, library, sched, rng_from(21), 4)
        err = finite_difference_check(
            lambda tape: ce_loss_node(tape, policy, items), policy.store, rng_from(5)
        )
        assert err < 1e-4

    def test_gradient_matches_finite_differences_at_batch_eight(self, library, sched, rules):
        policy = randomized_policy(sched, library, 34)
        data = generate_dataset(16, 6, library, rules, sched)
        items = ce_batch(data, rules, library, sched, rng_from(22), 8)
        assert {x.is_empty for x, _, _, _ in items} == {True, False}
        err = finite_difference_check(
            lambda tape: ce_loss_node(tape, policy, items), policy.store, rng_from(6)
        )
        assert err < 1e-4

    @pytest.mark.parametrize("shape", ["default", "wide"])
    def test_incremental_batch_matches_replayed_prefixes(self, library, sched, rules, shape):
        if shape == "wide":
            sched = Schedule(lam=0.1, t_window=0.4, n_steps=20, max_components=8)
            rules = RuleSet(max_len=7, p_max=18)
        data = generate_dataset(40, 8, library, rules, sched)
        got = ce_batch(data, rules, library, sched, rng_from(3), 40)
        want = replayed_ce_batch(data, rules, library, sched, rng_from(3), 40)
        assert len(got) == len(want) > 80
        for (x, t, a, i), (rx, rt, ra, ri) in zip(got, want):
            assert (x.components, x.open_attachments, t, a, i) == (rx.components, rx.open_attachments, rt, ra, ri)
            assert x.states.tobytes() == rx.states.tobytes()
            assert x.self_cond.tobytes() == rx.self_cond.tobytes()
            assert x.states.shape == x.self_cond.shape == (x.total_points(library), 2)

    def test_truth_always_legal(self, library, sched, rules):
        data = generate_dataset(64, 6, library, rules, sched)
        items = ce_batch(data, rules, library, sched, rng_from(9), 64)
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
