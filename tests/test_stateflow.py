from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cgflow.stateflow as sfmod
from cgflow.compstate import (
    EMPTY_OBJECT,
    AddSynthon,
    ComponentInstance,
    ComposedObject,
    FirstSynthon,
    SynthonLibrary,
    component_states,
    decompose,
    ground_truth_layout,
    initial_state_sample,
    replay_actions,
    transition,
)
from cgflow.domain import RuleSet, action_space, generate_dataset
from cgflow.errors import NumericalError
from cgflow.gflownet import next_decision_step
from cgflow.nn import Tape, finite_difference_check
from cgflow.schedule import Schedule, t_local_from_steps
from cgflow.seeding import rng_from
from cgflow.stateflow import (
    StateFlowHyper,
    StateFlowModel,
    euler_rollout,
    feature_dim,
    featurize_points,
    integrate_packed,
    interpolate,
    state_loss,
    train_stateflow,
)


def reference_forward(store, feats):
    """Straight-line numpy state-flow forward pass."""

    def dense(v, prefix):
        return v @ store.get(f"{prefix}.w") + store.get(f"{prefix}.b")

    def silu(v):
        return v * (1.0 / (1.0 + np.exp(-v)))

    h = silu(dense(feats, "sf.enc.0"))
    h = silu(dense(h, "sf.enc.1"))
    ctx = h.mean(axis=0)
    hc = np.concatenate([h, np.repeat(ctx[None, :], feats.shape[0], axis=0)], axis=1)
    return dense(silu(dense(hc, "sf.head.0")), "sf.head.1")


class OraclePredictor:
    """Returns the true target coordinates regardless of the input state;
    each packed object's components are a prefix of ``targets``."""

    def __init__(self, targets, library):
        self.targets = np.concatenate(targets)
        self.library = library

    def predict_packed(self, feats, spans):
        return np.concatenate([self.targets[:m] for _, m in spans])


@pytest.fixture()
def three_chain(library, sched):
    actions = [FirstSynthon("b2a"), AddSynthon(0, 0, "l_ab", 0), AddSynthon(1, 1, "b2b", 0)]
    x = replay_actions(actions, library, sched, global_seed=3)
    layout = ground_truth_layout(x.components, library)
    return x.with_states(np.concatenate(layout)), [s.copy() for s in layout], actions


class TestInterpolate:
    def test_t_zero_is_empty(self, library, sched, three_chain):
        x, layout, actions = three_chain
        plan = decompose(x, library)
        ns = interpolate(plan, 0, 0.0, sched, library, sample_seed=1)
        assert len(ns.x_t.components) == 0
        assert ns.targets.shape == (0, 2)

    def test_t_one_sigma_zero_reproduces_targets(self, library, sched, three_chain):
        x, layout, _ = three_chain
        plan = decompose(x, library)
        ns = interpolate(plan, sched.n_steps, 0.0, sched, library, sample_seed=1)
        assert len(ns.x_t.components) == 3
        assert np.abs(ns.x_t.states - np.concatenate(layout)).max() <= 1e-12

    def test_midpoint_mixture(self, library):
        # Fig-2 style grid: second component at t_local 0.75 mixes 3:1
        sched = Schedule(lam=0.2, t_window=0.4, n_steps=20, max_components=4)
        actions = [FirstSynthon("b2a"), AddSynthon(0, 0, "b2b", 0)]
        x = replay_actions(actions, library, sched, global_seed=3)
        layout = ground_truth_layout(x.components, library)
        x = x.with_states(np.concatenate(layout))
        plan = decompose(x, library)
        ns = interpolate(plan, 10, 0.0, sched, library, sample_seed=5)
        s0 = initial_state_sample(5, 2, 2)
        expected = 0.75 * layout[1] + 0.25 * s0
        assert np.allclose(component_states(ns.x_t, 1, library), expected, atol=1e-12)
        assert ns.t_locals[1] == 0.75

    def test_strictly_after_generation(self, library, sched, three_chain):
        x, _, _ = three_chain
        plan = decompose(x, library)
        # at an action step the newly scheduled component is absent
        ns = interpolate(plan, sched.lam_steps, 0.0, sched, library, sample_seed=1)
        assert len(ns.x_t.components) == 1
        ns = interpolate(plan, sched.lam_steps + 1, 0.0, sched, library, sample_seed=1)
        assert len(ns.x_t.components) == 2

    def test_noise_uses_rng(self, library, sched, three_chain):
        x, _, _ = three_chain
        plan = decompose(x, library)
        a = interpolate(plan, 10, 0.05, sched, library, rng_from(1), sample_seed=4)
        b = interpolate(plan, 10, 0.05, sched, library, rng_from(1), sample_seed=4)
        c = interpolate(plan, 10, 0.05, sched, library, rng_from(2), sample_seed=4)
        assert np.array_equal(a.x_t.states, b.x_t.states)
        assert not np.array_equal(a.x_t.states, c.x_t.states)


class ConstantOutputModel:
    """state_loss test double: forward emits fixed per-point values."""

    def __init__(self, values, sched, library):
        self.values = np.concatenate(list(values), axis=0)
        self.sched = sched
        self.library = library

    def forward(self, ops, feats, spans):
        return ops.const(self.values[: feats.shape[0]])


class TestStateLoss:
    def test_zero_when_output_equals_targets(self, library, sched, three_chain):
        x, layout, _ = three_chain
        plan = decompose(x, library)
        ns = interpolate(plan, sched.n_steps, 0.0, sched, library, sample_seed=1)
        model = ConstantOutputModel([ns.targets], sched, library)
        tape = Tape()
        assert float(tape.value(state_loss(model, tape, [ns]))) == pytest.approx(0.0, abs=1e-24)

    def test_unit_offset_counts_points(self, library, sched, three_chain):
        x, layout, _ = three_chain
        plan = decompose(x, library)
        ns = interpolate(plan, sched.n_steps, 0.0, sched, library, sample_seed=1)
        model = ConstantOutputModel([ns.targets + np.array([1.0, 0.0])], sched, library)
        tape = Tape()
        total_points = ns.targets.shape[0]
        assert float(tape.value(state_loss(model, tape, [ns]))) == pytest.approx(total_points)

    def test_gradient_matches_finite_differences(self, library, sched, rules):
        data = generate_dataset(6, 5, library, rules, sched)
        model = StateFlowModel.create(sched, library, seed=2)
        rng = rng_from(8)
        batch = []
        for obj in data:
            plan = decompose(obj, library, rng=rng)
            batch.append(
                interpolate(plan, int(rng.integers(1, sched.n_steps + 1)), 0.05, sched, library, rng, 7)
            )

        err = finite_difference_check(
            lambda tape: state_loss(model, tape, batch), model.store, rng_from(3)
        )
        assert err < 1e-4


def noisy_batch(library, sched, rules, n, seed, t_step=None):
    """``n`` training samples as ``train_stateflow`` draws them."""
    data = generate_dataset(n, seed, library, rules, sched)
    rng = rng_from(seed, "batch")
    batch = []
    for obj in data:
        plan = decompose(obj, library, rng=rng)
        step = int(rng.integers(1, sched.n_steps + 1)) if t_step is None else t_step
        batch.append(interpolate(plan, step, 0.05, sched, library, rng, int(rng.integers(1 << 63))))
    return batch


class TestPackedStateLoss:
    def test_one_forward_with_per_sample_predictions(self, library, sched, rules, monkeypatch):
        model = StateFlowModel.create(sched, library, seed=6)
        batch = noisy_batch(library, sched, rules, 12, 3)
        batch.append(noisy_batch(library, sched, rules, 1, 4, t_step=0)[0])  # no components
        calls = []
        original = model.forward

        def forward(ops, feats, spans):
            out = original(ops, feats, spans)
            calls.append((list(spans), ops.value(out)))
            return out

        monkeypatch.setattr(model, "forward", forward)
        tape = Tape(model.store)
        loss = state_loss(model, tape, batch)
        [(spans, pred)] = calls
        live = [s for s in batch if len(s.targets)]
        assert len(spans) == len(live) == len(batch) - 1
        want = 0.0
        for (o, m), sample in zip(spans, live):
            alone = np.concatenate(model.predict(sample.x_t, sample.t_step))
            assert pred[o : o + m].tobytes() == alone.tobytes()
            want += float(((alone - sample.targets) ** 2).sum())
        assert float(tape.value(loss)) == pytest.approx(want / len(batch), rel=1e-12)

    def test_gradient_matches_finite_differences_at_batch_ten(self, library, sched, rules):
        model = StateFlowModel.create(sched, library, seed=7)
        batch = noisy_batch(library, sched, rules, 10, 5)
        err = finite_difference_check(
            lambda tape: state_loss(model, tape, batch), model.store, rng_from(4)
        )
        assert err < 1e-4

    def test_self_conditioning_pass_is_one_forward(self, library, sched, rules, monkeypatch):
        model = StateFlowModel.create(sched, library, seed=8)
        batch = noisy_batch(library, sched, rules, 16, 6)
        calls = []
        original = model.predict_packed
        monkeypatch.setattr(
            model, "predict_packed", lambda f, spans: calls.append(len(spans)) or original(f, spans)
        )
        out = sfmod._with_predicted_self_cond(model, batch)
        assert calls == [len(batch)]
        monkeypatch.setattr(model, "predict_packed", original)
        for before, after in zip(batch, out):
            assert after.x_t.states.tobytes() == before.x_t.states.tobytes()
            alone = model.predict(before.x_t, before.t_step)
            assert after.x_t.self_cond.tobytes() == np.concatenate(alone).tobytes()
            assert after.targets is before.targets and after.t_step == before.t_step


class TestEulerRollout:
    def test_rectified_reaches_targets_without_snap(self, library, three_chain):
        sched = Schedule(lam=0.3, t_window=0.4, n_steps=20, max_components=3, integrator_mode="rectified")
        x, layout, actions = three_chain
        start = replay_actions(actions, library, sched, global_seed=3)
        out = euler_rollout(start, OraclePredictor(layout, library), sched, 0, sched.n_steps, snap=False)
        assert np.abs(out.states - np.concatenate(layout)).max() <= 1e-9

    def test_paper_mode_lands_exactly_via_snap(self, library, sched, three_chain):
        x, layout, actions = three_chain
        start = replay_actions(actions, library, sched, global_seed=3)
        out = euler_rollout(start, OraclePredictor(layout, library), sched, 0, sched.n_steps, snap=True)
        assert np.array_equal(out.states, np.concatenate(layout))

    def test_zero_length_interval_is_identity(self, library, sched, three_chain):
        x, layout, actions = three_chain
        start = replay_actions(actions, library, sched, global_seed=3)
        out = euler_rollout(start, OraclePredictor(layout, library), sched, 5, 5)
        assert out is start

    def test_monotone_refinement_both_modes(self, library, three_chain):
        _, layout, actions = three_chain
        for mode in ("paper", "rectified"):
            sched = Schedule(lam=0.3, t_window=0.4, n_steps=20, max_components=3, integrator_mode=mode)
            x = replay_actions(actions, library, sched, global_seed=3)
            def errors(x):
                return [np.linalg.norm(component_states(x, i, library) - l) for i, l in enumerate(layout)]

            prev = errors(x)
            for s in range(sched.n_steps):
                x = euler_rollout(x, OraclePredictor(layout, library), sched, s, s + 1)
                cur = errors(x)
                for a, b in zip(cur, prev):
                    assert a <= b + 1e-12
                prev = cur

    def test_nan_prediction_aborts_with_step(self, library, sched, three_chain):
        _, layout, actions = three_chain
        x = replay_actions(actions, library, sched, global_seed=3)

        class BadModel:
            def __init__(self, library):
                self.library = library

            def predict_packed(self, feats, spans):
                return np.full((feats.shape[0], 2), np.nan)

        with pytest.raises(NumericalError, match="step 4"):
            euler_rollout(x, BadModel(library), sched, 4, 5)

    def test_self_cond_zero_weights_ignore_conditioning(self, library, sched, three_chain):
        # a model whose self-cond input rows are zero must be insensitive to
        # the self_cond channel fed into the rollout
        x, layout, actions = three_chain
        model = StateFlowModel.create(sched, library, seed=11)
        w = model.store.get("sf.enc.0.w").copy()
        w[2:4, :] = 0.0
        model.store.set("sf.enc.0.w", w)
        start = replay_actions(actions, library, sched, global_seed=3)
        out1 = euler_rollout(start, model, sched, 0, sched.n_steps)
        zeroed = start.with_states(start.states, self_cond=np.zeros_like(start.states))
        out2 = euler_rollout(zeroed, model, sched, 0, sched.n_steps)
        assert np.array_equal(out1.states, out2.states)


CHAIN = [FirstSynthon("b2a"), AddSynthon(0, 0, "l_ab", 0), AddSynthon(1, 1, "b2b", 0)]


def _mode_sched(mode):
    return Schedule(lam=0.3, t_window=0.4, n_steps=20, max_components=3, integrator_mode=mode)


class TestRolloutCache:
    @settings(max_examples=40, deadline=None)
    @given(
        mode=st.sampled_from(["paper", "rectified"]),
        bounds=st.lists(st.integers(0, 20), min_size=3, max_size=3),
        n_actions=st.integers(1, 3),
        seed=st.integers(0, 1000),
        snap=st.booleans(),
    )
    def test_segment_split_is_bitwise_identical(self, library, mode, bounds, n_actions, seed, snap):
        sched = _mode_sched(mode)
        a, b, c = sorted(bounds)
        model = StateFlowModel.create(sched, library, seed=seed)
        x = replay_actions(CHAIN[:n_actions], library, sched, global_seed=seed)
        whole = euler_rollout(x, model, sched, a, c, snap=snap)
        split = euler_rollout(
            euler_rollout(x, model, sched, a, b, snap=snap), model, sched, b, c, snap=snap
        )
        cached = euler_rollout(x, model, sched, a, c, snap=snap, cache={})
        for out in (split, cached):
            assert out.states.tobytes() == whole.states.tobytes()
            assert out.self_cond.tobytes() == whole.self_cond.tobytes()

    def test_hit_is_shared_and_read_only(self, library, sched):
        model = StateFlowModel.create(sched, library, seed=3)
        x = replay_actions(CHAIN[:2], library, sched, global_seed=3)
        cache: dict = {}
        first = euler_rollout(x, model, sched, 6, 12, cache=cache)
        again = euler_rollout(x, model, sched, 6, 12, cache=cache)
        assert again is first and len(cache) == 1
        assert not first.states.flags.writeable and not first.self_cond.flags.writeable
        fresh = euler_rollout(x, model, sched, 6, 12)
        assert np.array_equal(first.states, fresh.states)

    def test_key_covers_states_self_cond_and_interval(self, library, sched):
        model = StateFlowModel.create(sched, library, seed=3)
        x = replay_actions(CHAIN[:2], library, sched, global_seed=3)
        nudged = x.with_states(x.states + 1e-12, self_cond=x.self_cond)
        recond = x.with_states(x.states, self_cond=x.self_cond + 1e-12)
        cache: dict = {}
        outs = [
            euler_rollout(x, model, sched, 6, 12, cache=cache),
            euler_rollout(nudged, model, sched, 6, 12, cache=cache),
            euler_rollout(recond, model, sched, 6, 12, cache=cache),
            euler_rollout(x, model, sched, 6, 13, cache=cache),
            euler_rollout(x, model, sched, 6, 12, snap=False, cache=cache),
        ]
        assert len(cache) == len(outs)
        assert len({id(o) for o in outs}) == len(outs)

    def test_miss_does_not_reenter_public_rollout(self, library, sched, monkeypatch):
        # the benchmark tracer rebinds euler_rollout; a recursive call through
        # the module global would count the same steps twice
        calls = []
        original = sfmod.euler_rollout
        monkeypatch.setattr(
            sfmod, "euler_rollout", lambda *a, **k: calls.append(1) or original(*a, **k)
        )
        model = StateFlowModel.create(sched, library, seed=3)
        x = replay_actions(CHAIN, library, sched, global_seed=3)
        sfmod.euler_rollout(x, model, sched, 12, 20, cache={})
        assert calls == [1]


def sibling_decision(library, sched, rules, seed, depth):
    """The children of the decision ``depth`` actions down the first
    nonterminal child at each level, integrated segment by segment:
    (model, decision step, children)."""
    model = StateFlowModel.create(sched, library, seed=seed)
    x, step = EMPTY_OBJECT, 0
    for level in range(depth + 1):
        children = [
            transition(x, a, library, sched, seed, p_max=rules.p_max)
            for a in action_space(x, rules, library)
        ]
        if level < depth:
            x = next(c for c in children if not c.is_terminal)
            nxt = next_decision_step(x, rules, sched)
            x, step = euler_rollout(x, model, sched, step, nxt), nxt
    return model, step, children


class TestIntegratePacked:
    @settings(max_examples=40, deadline=None)
    @given(
        mode=st.sampled_from(["paper", "rectified"]),
        t_window=st.sampled_from([0.1, 0.2, 0.4]),
        snap=st.booleans(),
        seed=st.integers(0, 1000),
        depth=st.integers(1, 3),
        length=st.integers(1, 20),
    )
    def test_siblings_match_one_at_a_time(self, library, mode, t_window, snap, seed, depth, length):
        sched = Schedule(lam=0.1, t_window=t_window, n_steps=20, max_components=5, integrator_mode=mode)
        rules = RuleSet(max_len=5, p_max=14)
        model, step, children = sibling_decision(library, sched, rules, seed, depth)
        to_step = min(sched.n_steps, step + length)
        packed = integrate_packed(children, model, sched, step, to_step, snap=snap)
        assert len({len(c.states) for c in children}) > 1
        assert {c.is_terminal for c in children} == {True, False}
        for child, got in zip(children, packed):
            want = euler_rollout(child, model, sched, step, to_step, snap=snap)
            assert got.components == want.components
            for a, b in ((got.states, want.states), (got.self_cond, want.self_cond)):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_one_forward_per_step_for_the_group(self, library):
        sched = Schedule(lam=0.1, t_window=0.4, n_steps=20, max_components=5)
        model, step, children = sibling_decision(library, sched, RuleSet(max_len=5, p_max=14), 4, 2)
        calls = []
        original = model.predict_packed
        model.predict_packed = lambda feats, spans: calls.append(len(spans)) or original(feats, spans)
        integrate_packed(children, model, sched, step, step + 5)
        assert calls == [len(children)] * 5

    def test_empty_objects_and_zero_length_pass_through(self, library, sched):
        model = StateFlowModel.create(sched, library, seed=3)
        x = replay_actions(CHAIN, library, sched, global_seed=3)
        out = integrate_packed([EMPTY_OBJECT, x, EMPTY_OBJECT], model, sched, 6, 12)
        assert out[0] is EMPTY_OBJECT and out[2] is EMPTY_OBJECT
        want = euler_rollout(x, model, sched, 6, 12)
        assert out[1].states.tobytes() == want.states.tobytes()
        same = integrate_packed([x, EMPTY_OBJECT], model, sched, 9, 9)
        assert same[0] is x and same[1] is EMPTY_OBJECT

    def test_rectified_closed_windows_keep_negative_zero(self, library):
        sched = _mode_sched("rectified")
        model = StateFlowModel.create(sched, library, seed=3)
        x = replay_actions(CHAIN[:2], library, sched, global_seed=3)
        zeros = np.full_like(x.states, -0.0)
        # component 0's window [0, 8) has closed by step 12; component 1's is open
        out = euler_rollout(x.with_states(zeros, self_cond=zeros), model, sched, 12, 13, snap=False)
        assert np.signbit(component_states(out, 0, library)).all()
        assert not np.signbit(component_states(out, 1, library)).all()

    def test_non_finite_names_step_object_and_component(self, library, sched):
        model = StateFlowModel.create(sched, library, seed=3)
        a = replay_actions(CHAIN[:1], library, sched, global_seed=3)
        b = replay_actions(CHAIN, library, sched, global_seed=3)
        bad_row = len(a.states) + len(component_states(b, 0, library)) + 1  # object 1, component 1

        class BadRow:
            def __init__(self, library):
                self.library = library

            def predict_packed(self, feats, spans):
                out = np.zeros((feats.shape[0], 2))
                out[bad_row, 1] = np.inf
                return out

        with pytest.raises(NumericalError, match="at step 14, component 1 of object 1"):
            integrate_packed([a, b], BadRow(library), sched, 14, 16)


def mixed_objects(library, sched, rules, max_depth):
    """Every object reachable in 1..max_depth actions, states at their
    seeded priors."""
    level, out = [EMPTY_OBJECT], []
    for _ in range(max_depth):
        level = [
            transition(x, a, library, sched, 5, p_max=rules.p_max)
            for x in level if not x.is_terminal
            for a in action_space(x, rules, library)
        ]
        out += level
    return out


class TestPackRows:
    @pytest.mark.parametrize("mode, snap", [("paper", True), ("paper", False), ("rectified", True)])
    def test_budget_splits_match_unsplit_and_one_at_a_time(self, library, monkeypatch, mode, snap):
        sched = Schedule(lam=0.1, t_window=0.4, n_steps=20, max_components=8, integrator_mode=mode)
        # the last component is generated at step 6: [7, 20) holds no action
        xs = [EMPTY_OBJECT] + mixed_objects(library, sched, RuleSet(max_len=7, p_max=18), 4)
        rows = [len(x.states) for x in xs]
        total, smallest = sum(rows), min(r for r in rows if r)
        model = StateFlowModel.create(sched, library, seed=8)
        calls = []  # (rows, objects) per forward
        original = model.predict_packed
        model.predict_packed = lambda f, spans: calls.append((len(f), len(spans))) or original(f, spans)

        def rolled(budget):
            monkeypatch.setattr(sfmod, "PACK_ROWS", budget)
            calls.clear()
            out = integrate_packed(xs, model, sched, 7, 20, snap=snap)
            return out, set(calls)

        unsplit, packs = rolled(total)
        assert packs == {(total, len(xs) - 1)}
        alone = [unsplit[0]] + [euler_rollout(x, model, sched, 7, 20, snap=snap) for x in xs[1:]]
        assert unsplit[0] is EMPTY_OBJECT
        for budget in (smallest - 1, 9, 50, total - 1):
            out, packs = rolled(budget)
            assert len(packs) > 1
            assert all(n <= budget or k == 1 for n, k in packs)
            assert out[0] is EMPTY_OBJECT
            for objs in zip(out[1:], unsplit[1:], alone[1:]):
                for field in ("states", "self_cond"):
                    u, v, w = (getattr(x, field) for x in objs)
                    assert u.tobytes() == v.tobytes() == w.tobytes()

    def test_non_finite_names_the_object_across_packs(self, library, sched, monkeypatch):
        model = StateFlowModel.create(sched, library, seed=3)
        a = replay_actions(CHAIN[:1], library, sched, global_seed=3)
        b = replay_actions(CHAIN, library, sched, global_seed=3)
        rows_b = len(b.states)

        class BadOnB:
            def __init__(self, library):
                self.library = library

            def predict_packed(self, feats, spans):
                out = model.predict_packed(feats, spans)
                if feats.shape[0] == rows_b:
                    out[len(component_states(b, 0, library)), 0] = np.nan  # object b, component 1
                return out

        monkeypatch.setattr(sfmod, "PACK_ROWS", 1)
        # the index counts every input, the empty object too
        with pytest.raises(NumericalError, match="at step 14, component 1 of object 3"):
            integrate_packed([a, EMPTY_OBJECT, a, b], BadOnB(library), sched, 14, 16)


def reference_features(x, t_step, sched, library):
    """featurize_points written one point at a time, straight from the spec."""
    mc = sched.max_components
    rows = []
    for i, comp in enumerate(x.components):
        synthon = library.get(comp.synthon_id)
        n_alpha = sum(1 for a in synthon.attachments if a.klass == "alpha")
        flags = {a.point_index: 1.0 if a.klass == "alpha" else -1.0 for a in synthon.attachments}
        for j in range(synthon.n_points):
            row = np.zeros(feature_dim(sched))
            row[0:2] = component_states(x, i, library)[j]
            row[2:4] = component_states(x, i, library, self_cond=True)[j]
            row[4] = t_local_from_steps(t_step, comp.t_gen_step, sched)
            row[5] = flags.get(j, 0.0)
            row[6 + min(i, mc - 1)] = 1.0
            row[6 + mc] = n_alpha
            row[7 + mc] = len(synthon.attachments) - n_alpha
            rows.append(row)
    return np.array(rows).reshape(-1, feature_dim(sched))


def every_synthon_object(library, sched, seed):
    """One component per library synthon (featurization needs no valid bonds)."""
    rng = rng_from(seed)
    comps, states, cond = [], [], []
    for i, synthon in enumerate(library):
        comps.append(ComponentInstance(synthon.id, None, None, None, i * sched.lam_steps))
        states.append(rng.normal(size=(synthon.n_points, 2)))
        cond.append(rng.normal(size=(synthon.n_points, 2)))
    return ComposedObject(components=tuple(comps), states=np.concatenate(states), self_cond=np.concatenate(cond))


def swapped_klasses(library):
    def swap(att):
        return replace(att, klass="beta" if att.klass == "alpha" else "alpha")

    return SynthonLibrary(
        synthons=tuple(
            replace(s, attachments=tuple(swap(a) for a in s.attachments)) for s in library
        )
    )


class TestFeaturize:
    def test_shapes_and_flags(self, library, sched, three_chain):
        x, _, _ = three_chain
        feats, slices = featurize_points(x, 10, sched, library)
        assert feats.shape == (6, feature_dim(sched))
        assert [m for _, m in slices] == [2, 2, 2]
        # b2a: attach point index 1 is alpha (+1), plain point 0
        assert feats[1, 5] == 1.0 and feats[0, 5] == 0.0
        # linker has one alpha and one beta attachment
        assert feats[2, 5] == -1.0 and feats[3, 5] == 1.0
        # klass summary: brick (1,0)/(0,1), linker (1,1)
        k0 = feats[0, 6 + sched.max_components : 8 + sched.max_components]
        k2 = feats[2, 6 + sched.max_components : 8 + sched.max_components]
        k4 = feats[4, 6 + sched.max_components : 8 + sched.max_components]
        assert list(k0) == [1.0, 0.0]
        assert list(k2) == [1.0, 1.0]
        assert list(k4) == [0.0, 1.0]

    def test_empty_object_features(self, sched, library):
        from cgflow.compstate import EMPTY_OBJECT

        feats, slices = featurize_points(EMPTY_OBJECT, 0, sched, library)
        assert feats.shape == (0, feature_dim(sched))
        assert slices == []

    @pytest.mark.parametrize("t_step", [0, 3, 7, 20])
    def test_matches_per_point_reference_on_every_synthon(self, library, fig2_sched, t_step):
        x = every_synthon_object(library, fig2_sched, seed=t_step)
        feats, slices = featurize_points(x, t_step, fig2_sched, library)
        assert np.array_equal(feats, reference_features(x, t_step, fig2_sched, library))
        assert [m for _, m in slices] == [s.n_points for s in library]

    def test_role_blocks_never_mix_libraries(self, library, sched):
        x = every_synthon_object(library, sched, seed=1)
        feats = featurize_points(x, 9, sched, library)[0]
        for _ in range(3):
            # fresh libraries may reuse a freed library's id(); each must
            # still get its own role blocks
            other = swapped_klasses(library)
            got = featurize_points(x, 9, sched, other)[0]
            assert np.array_equal(got, reference_features(x, 9, sched, other))
            assert not np.array_equal(got, feats)
            del other
        assert np.array_equal(featurize_points(x, 9, sched, library)[0], feats)

    def test_static_columns_built_once_per_component_tuple(self, library, fig2_sched):
        # one component tuple at two times and with two sets of states: the
        # static block comes from the memo and the rest is filled per call
        x = every_synthon_object(library, fig2_sched, seed=5)
        y = every_synthon_object(library, fig2_sched, seed=6)
        assert x.components == y.components
        for obj in (x, y):
            for t_step in (4, 13):
                feats, _ = featurize_points(obj, t_step, fig2_sched, library)
                want = reference_features(obj, t_step, fig2_sched, library)
                assert feats.tobytes() == want.tobytes()
        static, slices = library.static_features[(fig2_sched.max_components, x.components)]
        assert not static.flags.writeable
        assert [m for _, m in slices] == [s.n_points for s in library]

    def test_returned_matrix_is_private(self, library, sched):
        x = every_synthon_object(library, sched, seed=2)
        feats, slices = featurize_points(x, 9, sched, library)
        assert feats.flags.writeable
        feats[:] = 7.0
        slices.clear()
        again, slices = featurize_points(x, 9, sched, library)
        assert np.array_equal(again, reference_features(x, 9, sched, library))
        assert [m for _, m in slices] == [s.n_points for s in library]

    def test_one_library_under_two_schedules(self, library, sched, fig2_sched):
        # the one-hot width follows max_components (3 and 4), and so does
        # the memo key
        assert sched.max_components != fig2_sched.max_components
        x = every_synthon_object(library, sched, seed=3)
        for s in (sched, fig2_sched, sched):
            feats, _ = featurize_points(x, 9, s, library)
            assert feats.shape == (sum(b.n_points for b in library), feature_dim(s))
            assert np.array_equal(feats, reference_features(x, 9, s, library))

    def test_taped_forward_matches_numpy(self, library, sched, three_chain, rng):
        x, _, _ = three_chain
        model = StateFlowModel.create(sched, library, seed=4)
        feats, slices = featurize_points(x, 7, sched, library)
        want = reference_forward(model.store, feats)
        tape = Tape(model.store)
        assert np.array_equal(tape.value(model.forward(tape, feats, [(0, len(feats))])), want)
        got = model.predict(x, 7)
        assert [p.shape[0] for p in got] == [m for _, m in slices]
        assert np.array_equal(np.concatenate(got, axis=0), want)


class TestTrainStateflow:
    def test_zero_lr_keeps_parameters(self, library, sched, rules):
        data = generate_dataset(8, 5, library, rules, sched)
        hyper = StateFlowHyper(iters=3, batch=4, lr=0.0)
        model, metrics = train_stateflow(data, sched, library, hyper, run_seed=1)
        fresh = StateFlowModel.create(sched, library, seed=1)
        for name in fresh.store.names():
            assert np.array_equal(model.store.get(name), fresh.store.get(name))
        assert len(metrics) == 3

    def test_deterministic_metrics(self, library, sched, rules):
        data = generate_dataset(16, 5, library, rules, sched)
        hyper = StateFlowHyper(iters=5, batch=8)
        _, m1 = train_stateflow(data, sched, library, hyper, run_seed=7)
        _, m2 = train_stateflow(data, sched, library, hyper, run_seed=7)
        strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]
        assert strip(m1) == strip(m2)

    def test_simulation_free(self, library, sched, rules, monkeypatch):
        # the state-flow trainer must never integrate trajectories
        import cgflow.stateflow as sfmod

        calls = []
        original = sfmod.euler_rollout
        monkeypatch.setattr(
            sfmod, "euler_rollout", lambda *a, **k: calls.append(1) or original(*a, **k)
        )
        data = generate_dataset(8, 5, library, rules, sched)
        train_stateflow(data, sched, library, StateFlowHyper(iters=2, batch=4), run_seed=1)
        assert calls == []
