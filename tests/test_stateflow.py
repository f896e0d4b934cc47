from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cgflow.stateflow as sfmod
from cgflow.compstate import (
    AddSynthon,
    ComponentInstance,
    ComposedObject,
    FirstSynthon,
    SynthonLibrary,
    decompose,
    ground_truth_layout,
    initial_state_sample,
    replay_actions,
)
from cgflow.domain import RuleSet, generate_dataset
from cgflow.nn import NumericalError, Tape, finite_difference_check
from cgflow.schedule import Schedule, t_local_from_steps
from cgflow.seeding import rng_from
from cgflow.stateflow import (
    StateFlowHyper,
    StateFlowModel,
    euler_rollout,
    feature_dim,
    featurize_points,
    interpolate,
    state_loss,
    train_stateflow,
)


class OraclePredictor:
    """Returns the true target coordinates regardless of the input state."""

    def __init__(self, targets):
        self.targets = targets

    def predict(self, x, t_step):
        return [self.targets[i].copy() for i in range(len(x.components))]


@pytest.fixture()
def three_chain(library, sched):
    actions = [FirstSynthon("b2a"), AddSynthon(0, 0, "l_ab", 0), AddSynthon(1, 1, "b2b", 0)]
    x = replay_actions(actions, library, sched, global_seed=3)
    layout = ground_truth_layout(x.components, library)
    return x.with_states(layout), [s.copy() for s in layout], actions


class TestInterpolate:
    def test_t_zero_is_empty(self, library, sched, three_chain):
        x, layout, actions = three_chain
        plan = decompose(x, library)
        ns = interpolate(plan, 0, 0.0, sched, library, sample_seed=1)
        assert len(ns.x_t.components) == 0
        assert ns.targets == ()

    def test_t_one_sigma_zero_reproduces_targets(self, library, sched, three_chain):
        x, layout, _ = three_chain
        plan = decompose(x, library)
        ns = interpolate(plan, sched.n_steps, 0.0, sched, library, sample_seed=1)
        assert len(ns.x_t.components) == 3
        for got, want in zip(ns.x_t.states, layout):
            assert np.abs(got - want).max() <= 1e-12

    def test_midpoint_mixture(self, library):
        # Fig-2 style grid: second component at t_local 0.75 mixes 3:1
        sched = Schedule(lam=0.2, t_window=0.4, n_steps=20, max_components=4)
        actions = [FirstSynthon("b2a"), AddSynthon(0, 0, "b2b", 0)]
        x = replay_actions(actions, library, sched, global_seed=3)
        layout = ground_truth_layout(x.components, library)
        x = x.with_states(layout)
        plan = decompose(x, library)
        ns = interpolate(plan, 10, 0.0, sched, library, sample_seed=5)
        s0 = initial_state_sample(5, 2, 2)
        expected = 0.75 * layout[1] + 0.25 * s0
        assert np.allclose(ns.x_t.states[1], expected, atol=1e-12)
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
        assert np.array_equal(a.x_t.states[0], b.x_t.states[0])
        assert not np.array_equal(a.x_t.states[0], c.x_t.states[0])


class ConstantOutputModel:
    """state_loss test double: forward_tape emits fixed per-point values."""

    def __init__(self, values, sched, library):
        self.values = np.concatenate(list(values), axis=0)
        self.sched = sched
        self.library = library

    def forward_tape(self, tape, feats):
        return tape.const(self.values[: feats.shape[0]])


class TestStateLoss:
    def test_zero_when_output_equals_targets(self, library, sched, three_chain):
        x, layout, _ = three_chain
        plan = decompose(x, library)
        ns = interpolate(plan, sched.n_steps, 0.0, sched, library, sample_seed=1)
        model = ConstantOutputModel(ns.targets, sched, library)
        tape = Tape()
        assert float(tape.value(state_loss(model, tape, [ns]))) == pytest.approx(0.0, abs=1e-24)

    def test_unit_offset_counts_points(self, library, sched, three_chain):
        x, layout, _ = three_chain
        plan = decompose(x, library)
        ns = interpolate(plan, sched.n_steps, 0.0, sched, library, sample_seed=1)
        model = ConstantOutputModel(
            [t + np.array([1.0, 0.0]) for t in ns.targets], sched, library
        )
        tape = Tape()
        total_points = sum(t.shape[0] for t in ns.targets)
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


class TestEulerRollout:
    def test_rectified_reaches_targets_without_snap(self, library, three_chain):
        sched = Schedule(lam=0.3, t_window=0.4, n_steps=20, max_components=3, integrator_mode="rectified")
        x, layout, actions = three_chain
        start = replay_actions(actions, library, sched, global_seed=3)
        out = euler_rollout(start, OraclePredictor(layout), sched, 0, sched.n_steps, snap=False)
        for got, want in zip(out.states, layout):
            assert np.abs(got - want).max() <= 1e-9

    def test_paper_mode_lands_exactly_via_snap(self, library, sched, three_chain):
        x, layout, actions = three_chain
        start = replay_actions(actions, library, sched, global_seed=3)
        out = euler_rollout(start, OraclePredictor(layout), sched, 0, sched.n_steps, snap=True)
        for got, want in zip(out.states, layout):
            assert np.array_equal(got, want)

    def test_zero_length_interval_is_identity(self, library, sched, three_chain):
        x, layout, actions = three_chain
        start = replay_actions(actions, library, sched, global_seed=3)
        out = euler_rollout(start, OraclePredictor(layout), sched, 5, 5)
        assert out is start

    def test_monotone_refinement_both_modes(self, library, three_chain):
        _, layout, actions = three_chain
        for mode in ("paper", "rectified"):
            sched = Schedule(lam=0.3, t_window=0.4, n_steps=20, max_components=3, integrator_mode=mode)
            x = replay_actions(actions, library, sched, global_seed=3)
            prev = [np.linalg.norm(np.asarray(s) - l) for s, l in zip(x.states, layout)]
            for s in range(sched.n_steps):
                x = euler_rollout(x, OraclePredictor(layout), sched, s, s + 1)
                cur = [np.linalg.norm(np.asarray(st) - l) for st, l in zip(x.states, layout)]
                for a, b in zip(cur, prev):
                    assert a <= b + 1e-12
                prev = cur

    def test_nan_prediction_aborts_with_step(self, library, sched, three_chain):
        _, layout, actions = three_chain
        x = replay_actions(actions, library, sched, global_seed=3)

        class BadModel:
            def predict(self, x, t_step):
                return [np.full_like(np.asarray(s), np.nan) for s in x.states]

        with pytest.raises(NumericalError, match="step 4"):
            euler_rollout(x, BadModel(), sched, 4, 5)

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
        zeroed = start.with_states(start.states, self_cond=[np.zeros_like(np.asarray(s)) for s in start.states])
        out2 = euler_rollout(zeroed, model, sched, 0, sched.n_steps)
        for a, b in zip(out1.states, out2.states):
            assert np.array_equal(a, b)


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
            for got, want in zip(out.states + out.self_cond, whole.states + whole.self_cond):
                assert got.tobytes() == want.tobytes()

    def test_hit_is_shared_and_read_only(self, library, sched):
        model = StateFlowModel.create(sched, library, seed=3)
        x = replay_actions(CHAIN[:2], library, sched, global_seed=3)
        cache: dict = {}
        first = euler_rollout(x, model, sched, 6, 12, cache=cache)
        again = euler_rollout(x, model, sched, 6, 12, cache=cache)
        assert again is first and len(cache) == 1
        assert not any(arr.flags.writeable for arr in first.states + first.self_cond)
        fresh = euler_rollout(x, model, sched, 6, 12)
        for got, want in zip(first.states, fresh.states):
            assert np.array_equal(got, want)

    def test_key_covers_states_self_cond_and_interval(self, library, sched):
        model = StateFlowModel.create(sched, library, seed=3)
        x = replay_actions(CHAIN[:2], library, sched, global_seed=3)
        nudged = x.with_states([s + 1e-12 for s in x.states], self_cond=x.self_cond)
        recond = x.with_states(x.states, self_cond=[s + 1e-12 for s in x.self_cond])
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
            row[0:2] = x.states[i][j]
            row[2:4] = x.self_cond[i][j]
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
    return ComposedObject(components=tuple(comps), states=tuple(states), self_cond=tuple(cond))


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

    def test_taped_forward_matches_numpy(self, library, sched, three_chain, rng):
        x, _, _ = three_chain
        model = StateFlowModel.create(sched, library, seed=4)
        feats, _ = featurize_points(x, 7, sched, library)
        tape = Tape(model.store)
        node = model.forward_tape(tape, feats)
        assert np.array_equal(tape.value(node), model.forward_features(feats))


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
