from __future__ import annotations

import base64
import json

import numpy as np
import pytest

from cgflow.compstate import (
    AddSynthon,
    AttachmentPoint,
    ComposedObject,
    EMPTY_OBJECT,
    FirstSynthon,
    NO_STATES,
    Synthon,
    SynthonLibrary,
    component_states,
    decode_states,
    decompose,
    default_library_bytes,
    encode_states,
    ground_truth_layout,
    grow,
    initial_state_sample,
    library_from_dict,
    plan_for_order,
    replay_actions,
    transition,
    valid_orders,
)
from cgflow.domain import RuleSet, action_space, generate_dataset
from cgflow.errors import ArtifactError, ConfigError, InvariantError
from cgflow.schedule import Schedule


def recorded_actions(x):
    """The action sequence that built ``x``, read back from its components."""
    return [
        AddSynthon(c.parent_component, c.parent_attachment, c.synthon_id, c.child_attachment)
        if i else FirstSynthon(c.synthon_id)
        for i, c in enumerate(x.components)
    ]


def build(actions, library, sched, seed=0):
    return replay_actions(actions, library, sched, global_seed=seed)


class TestSynthonValidation:
    def test_direction_must_be_unit(self):
        with pytest.raises(ConfigError):
            AttachmentPoint(point_index=0, klass="alpha", direction=(1.0, 1.0))

    def test_brick_needs_one_attachment(self):
        att = AttachmentPoint(0, "alpha", (1.0, 0.0))
        with pytest.raises(ConfigError):
            Synthon(id="x", kind="brick", points=((0, 0), (1, 0)), attachments=(att, att))

    def test_linker_needs_two_attachments(self):
        att = AttachmentPoint(0, "alpha", (1.0, 0.0))
        with pytest.raises(ConfigError):
            Synthon(id="x", kind="linker", points=((0, 0), (1, 0)), attachments=(att,))

    def test_duplicate_attachment_index_rejected(self):
        a1 = AttachmentPoint(0, "alpha", (1.0, 0.0))
        a2 = AttachmentPoint(0, "beta", (-1.0, 0.0))
        with pytest.raises(ConfigError):
            Synthon(id="x", kind="linker", points=((0, 0), (1, 0)), attachments=(a1, a2))

    def test_default_library_composition(self, library):
        assert len(library.bricks) == 4
        assert sum(1 for s in library if s.kind == "linker") == 2


class TestTransition:
    def test_first_synthon(self, library, sched):
        x = transition(EMPTY_OBJECT, FirstSynthon("b2a"), library, sched, global_seed=1)
        assert len(x.components) == 1
        assert len(x.open_attachments) == 1
        assert x.states.shape == x.self_cond.shape == (2, 2)
        assert not x.is_terminal

    def test_seeded_determinism(self, library, sched):
        a = transition(EMPTY_OBJECT, FirstSynthon("b3a"), library, sched, global_seed=9)
        b = transition(EMPTY_OBJECT, FirstSynthon("b3a"), library, sched, global_seed=9)
        assert np.array_equal(a.states, b.states)
        c = transition(EMPTY_OBJECT, FirstSynthon("b3a"), library, sched, global_seed=10)
        assert not np.array_equal(a.states, c.states)

    def test_brick_on_last_attachment_terminates(self, library, sched):
        x = build(
            [FirstSynthon("b2a"), AddSynthon(0, 0, "b2b", 0)], library, sched
        )
        assert x.is_terminal
        assert x.open_attachments == ()

    def test_linker_keeps_one_open(self, library, sched):
        x = build([FirstSynthon("b2a"), AddSynthon(0, 0, "l_ab", 0)], library, sched)
        assert len(x.open_attachments) == 1
        assert x.open_attachments[0] == (1, 1)

    def test_terminal_rejects_transition(self, library, sched):
        x = build([FirstSynthon("b2a"), AddSynthon(0, 0, "b2b", 0)], library, sched)
        with pytest.raises(InvariantError):
            transition(x, AddSynthon(0, 0, "b2b", 0), library, sched, global_seed=1)

    def test_incompatible_klasses_rejected(self, library, sched):
        x = build([FirstSynthon("b2a")], library, sched)
        # b2a's open attachment is alpha; b2a's own attachment is also alpha
        with pytest.raises(InvariantError):
            transition(x, AddSynthon(0, 0, "b2a", 0), library, sched, global_seed=1)

    def test_point_budget_enforced(self, library, sched):
        x = build([FirstSynthon("b2a")], library, sched)
        with pytest.raises(InvariantError):
            transition(x, AddSynthon(0, 0, "b2b", 0), library, sched, global_seed=1, p_max=3)

    def test_t_gen_steps_follow_schedule(self, library, sched):
        x = build(
            [FirstSynthon("b2a"), AddSynthon(0, 0, "l_ab", 0), AddSynthon(1, 1, "b2b", 0)],
            library,
            sched,
        )
        assert [c.t_gen_step for c in x.components] == [0, 6, 12]

    def test_size_based_seed_rule(self, library, sched):
        # S0 of the appended component is a pure function of
        # (global_seed, points before the append)
        x1 = build([FirstSynthon("b2a"), AddSynthon(0, 0, "l_ab", 0)], library, sched, seed=5)
        expected = initial_state_sample(5, 2, 2)
        assert np.array_equal(component_states(x1, 1, library), expected)
        assert np.array_equal(component_states(x1, 1, library, self_cond=True), expected)
        assert x1.states.tobytes() == np.concatenate([initial_state_sample(5, 0, 2), expected]).tobytes()


    def test_appends_rows_to_both_matrices(self, library, sched):
        x = build([FirstSynthon("b2a")], library, sched)
        x = x.with_states(np.full((2, 2), 3.0), self_cond=np.full((2, 2), 4.0))
        y = transition(x, AddSynthon(0, 0, "l_ab", 0), library, sched, global_seed=5)
        prior = initial_state_sample(5, 2, 2)
        assert y.states.tobytes() == np.concatenate([np.full((2, 2), 3.0), prior]).tobytes()
        assert y.self_cond.tobytes() == np.concatenate([np.full((2, 2), 4.0), prior]).tobytes()
        assert not y.states.flags.writeable and not y.self_cond.flags.writeable
        # a replayed prefix holds one matrix for both
        z = build([FirstSynthon("b2a"), AddSynthon(0, 0, "l_ab", 0)], library, sched)
        assert z.self_cond is z.states


class TestGrow:
    def test_matches_transition_without_states(self, library, fig2_sched):
        sched = fig2_sched
        rules = RuleSet(max_len=4, p_max=14)
        level = [(EMPTY_OBJECT, EMPTY_OBJECT)]
        seen = 0
        while level:
            nxt = []
            for x, bare in level:
                for action in action_space(x, rules, library):
                    full = transition(x, action, library, sched, 3, p_max=rules.p_max)
                    child = grow(bare, action, library, sched, rules.p_max)
                    assert child.components == full.components
                    assert child.open_attachments == full.open_attachments
                    assert child.states is NO_STATES and child.self_cond is NO_STATES
                    seen += 1
                    if not full.is_terminal:
                        nxt.append((full, child))
            level = nxt
        assert seen == 84  # every edge of the max_len=4 tree

    def test_same_checks_as_transition(self, library, sched):
        x = build([FirstSynthon("b2a")], library, sched)
        done = build([FirstSynthon("b2a"), AddSynthon(0, 0, "b2b", 0)], library, sched)
        for obj, action, p_max in [
            (x, AddSynthon(0, 0, "b2b", 0), 3),  # point budget
            (x, AddSynthon(0, 0, "b2a", 0), 12),  # klasses
            (done, AddSynthon(0, 0, "b2b", 0), 12),  # terminal
            (EMPTY_OBJECT, FirstSynthon("l_ab"), 12),  # linker first
        ]:
            with pytest.raises(InvariantError):
                transition(obj, action, library, sched, 1, p_max=p_max)
            with pytest.raises(InvariantError):
                grow(obj, action, library, sched, p_max)


class TestGroundTruthLayout:
    def test_single_brick_identity(self, library, sched):
        x = transition(EMPTY_OBJECT, FirstSynthon("b2a"), library, sched, 0)
        layout = ground_truth_layout(x.components, library)
        assert np.array_equal(layout[0], [[0, 0], [1, 0]])

    def test_child_translated_two_units(self, library, sched):
        # parent attach at (1,0) facing +x; child attach at local (0,0)
        # facing -x: rotation identity, translation (2,0)
        x = build([FirstSynthon("b2a"), AddSynthon(0, 0, "b2b", 0)], library, sched)
        layout = ground_truth_layout(x.components, library)
        assert np.allclose(layout[1], [[2, 0], [3, 0]], atol=1e-12)

    def test_bond_geometry(self, library, sched):
        x = build([FirstSynthon("b2a"), AddSynthon(0, 0, "l_ab", 0), AddSynthon(1, 1, "b2b", 0)], library, sched)
        layout = ground_truth_layout(x.components, library)
        pts = np.concatenate(layout)
        assert np.allclose(pts[:, 1], 0.0, atol=1e-12)
        assert np.allclose(sorted(pts[:, 0]), [0, 1, 2, 3, 4, 5], atol=1e-12)

    def test_local_frame_gauge_invariance(self, library, sched, rng):
        # rotating+translating a synthon's local definition must not change
        # the laid-out world coordinates
        base = library.get("l_ab")
        theta = rng.uniform(0, 2 * np.pi)
        shift = rng.normal(size=2)
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        moved = Synthon(
            id="l_ab",
            kind="linker",
            points=tuple(map(tuple, np.asarray(base.points) @ rot.T + shift)),
            attachments=tuple(
                AttachmentPoint(a.point_index, a.klass, tuple(rot @ np.asarray(a.direction)))
                for a in base.attachments
            ),
        )
        gauged = SynthonLibrary(
            synthons=tuple(moved if s.id == "l_ab" else s for s in library.synthons)
        )
        actions = [FirstSynthon("b2a"), AddSynthon(0, 0, "l_ab", 0), AddSynthon(1, 1, "b2b", 0)]
        a = ground_truth_layout(build(actions, library, sched).components, library)
        b = ground_truth_layout(build(actions, gauged, sched).components, gauged)
        for pa, pb in zip(a, b):
            assert np.allclose(pa, pb, atol=1e-9)


class TestDecompose:
    def test_single_component(self, library, sched):
        x = build([FirstSynthon("b2a")], library, sched)
        x = x.with_states(np.zeros((2, 2)))
        plan = decompose(x, library)
        assert len(plan) == 1
        assert plan[0].action == FirstSynthon("b2a")

    def test_chain_has_two_orders_starting_at_bricks(self, library, sched):
        x = build(
            [FirstSynthon("b2a"), AddSynthon(0, 0, "l_ab", 0), AddSynthon(1, 1, "b2b", 0)],
            library,
            sched,
        )
        orders = valid_orders(x, library)
        assert orders == [(0, 1, 2), (2, 1, 0)]

    def test_rerooted_plan_rebuilds_same_bonds(self, library, sched):
        actions = [FirstSynthon("b2a"), AddSynthon(0, 0, "l_ab", 0), AddSynthon(1, 1, "b2b", 0)]
        x = build(actions, library, sched)
        x = x.with_states(np.concatenate(ground_truth_layout(x.components, library)))
        plan = plan_for_order(x, (2, 1, 0), library)
        assert plan[0].action == FirstSynthon("b2b")
        rebuilt = replay_actions([s.action for s in plan], library, sched, 0)
        assert rebuilt.is_terminal
        assert [c.synthon_id for c in rebuilt.components] == ["b2b", "l_ab", "b2a"]

    def test_rerooted_coordinates_are_canonical(self, library, sched):
        actions = [FirstSynthon("b2a"), AddSynthon(0, 0, "l_ab", 0), AddSynthon(1, 1, "b2b", 0)]
        x = build(actions, library, sched)
        x = x.with_states(np.concatenate(ground_truth_layout(x.components, library)))
        plan = plan_for_order(x, (2, 1, 0), library)
        rebuilt = replay_actions([s.action for s in plan], library, sched, 0)
        relayout = ground_truth_layout(rebuilt.components, library)
        for step, expected in zip(plan, relayout):
            assert np.allclose(step.s1, expected, atol=1e-9)

    def test_order_frequencies_uniform(self, library, sched, rng):
        actions = [FirstSynthon("b2a"), AddSynthon(0, 0, "l_ab", 0), AddSynthon(1, 1, "b2b", 0)]
        x = build(actions, library, sched)
        x = x.with_states(np.concatenate(ground_truth_layout(x.components, library)))
        first = {"b2a": 0, "b2b": 0}
        n = 10_000
        for _ in range(n):
            plan = decompose(x, library, rng=rng)
            first[plan[0].action.synthon_id] += 1
        # exactly two valid orders, so each within +-3% of 1/2
        assert abs(first["b2a"] / n - 0.5) < 0.03
        assert abs(first["b2b"] / n - 0.5) < 0.03

    def test_exclude_recorded(self, library, sched, rng):
        actions = [FirstSynthon("b2a"), AddSynthon(0, 0, "b2b", 0)]
        x = build(actions, library, sched)
        x = x.with_states(np.concatenate(ground_truth_layout(x.components, library)))
        for _ in range(20):
            plan = decompose(x, library, rng=rng, exclude_recorded=True)
            assert plan[0].action.synthon_id == "b2b"


def fresh_plan(x, library, rng, exclude_recorded, canonicalize):
    """``decompose`` without its memo: a fresh ``valid_orders`` and
    ``plan_for_order``, drawing from ``rng`` as ``decompose`` does."""
    orders = valid_orders(x, library)
    recorded = tuple(range(len(x.components)))
    if exclude_recorded and len(orders) > 1:
        orders = [o for o in orders if o != recorded]
    order = orders[int(rng.integers(len(orders)))]
    return plan_for_order(x, order, library, canonicalize=canonicalize)


def plan_bytes(plan):
    return [(step.action, step.s1.shape, step.s1.tobytes()) for step in plan]


def default_library():
    """A library object of its own, with an empty memo."""
    return library_from_dict(json.loads(default_library_bytes()))


class TestDecomposeMemo:
    @pytest.mark.parametrize("canonicalize", [True, False], ids=["canonical", "stored-frame"])
    @pytest.mark.parametrize("exclude_recorded", [False, True], ids=["all-orders", "exclude-recorded"])
    def test_memo_matches_fresh_orders_and_plans_bitwise(self, sched, canonicalize, exclude_recorded):
        library = default_library()
        wide = Schedule(lam=0.1, t_window=0.4, n_steps=20, max_components=8)
        data = generate_dataset(150, 5, library, RuleSet(), sched) + generate_dataset(
            150, 5, library, RuleSet(max_len=7, p_max=18), wide
        )
        # two passes: the first fills the memo, the second reads it
        for seed in (1, 2):
            memo_rng, fresh_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for x in data:
                got = decompose(x, library, rng=memo_rng, exclude_recorded=exclude_recorded, canonicalize=canonicalize)
                want = fresh_plan(x, library, fresh_rng, exclude_recorded, canonicalize)
                assert plan_bytes(got) == plan_bytes(want)
                recorded = decompose(x, library, canonicalize=canonicalize)
                assert plan_bytes(recorded) == plan_bytes(
                    plan_for_order(x, range(len(x.components)), library, canonicalize=canonicalize)
                )
            assert memo_rng.integers(1 << 62) == fresh_rng.integers(1 << 62)
        assert len(library.decompositions) == len({x.components for x in data})

    def test_memo_keeps_every_order_and_exclusion_still_filters(self, library, sched, rng):
        x = build([FirstSynthon("b2a"), AddSynthon(0, 0, "l_ab", 0), AddSynthon(1, 1, "b2b", 0)], library, sched)
        x = x.with_states(np.concatenate(ground_truth_layout(x.components, library)))
        first = {decompose(x, library, rng=rng)[0].action.synthon_id for _ in range(50)}
        assert first == {"b2a", "b2b"}
        orders = library.decompositions[x.components].orders
        assert orders == ((0, 1, 2), (2, 1, 0))
        for _ in range(50):
            assert decompose(x, library, rng=rng, exclude_recorded=True)[0].action.synthon_id == "b2b"
        assert library.decompositions[x.components].orders == orders

    def test_memo_arrays_are_read_only_and_plans_are_not(self, library, sched, rng):
        x = build([FirstSynthon("b3a"), AddSynthon(0, 0, "l_ab", 0), AddSynthon(1, 1, "b2b", 0)], library, sched)
        x = x.with_states(np.concatenate(ground_truth_layout(x.components, library)))
        plan = decompose(x, library, rng=rng)
        for rot, shift in library.decompositions[x.components].poses:
            for arr in (rot, shift):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 1.0
        for step in plan:
            step.s1[0, 0] += 1.0  # the caller owns its targets
        assert plan_bytes(decompose(x, library, canonicalize=False)) == plan_bytes(
            plan_for_order(x, (0, 1, 2), library, canonicalize=False)
        )

    def test_equal_synthons_in_other_bonds_get_their_own_entries(self, sched):
        # a linker with two alpha attachments takes a beta parent on either
        # one: two compositions with the same synthon ids, other poses
        l_aa = Synthon(
            id="l_aa",
            kind="linker",
            points=((0.0, 0.0), (1.0, 0.0), (0.5, 0.8)),
            attachments=(AttachmentPoint(0, "alpha", (-1.0, 0.0)), AttachmentPoint(2, "alpha", (0.0, 1.0))),
        )
        library = SynthonLibrary(synthons=default_library().synthons + (l_aa,))
        objects = []
        for child in (0, 1):
            actions = [FirstSynthon("b2b"), AddSynthon(0, 0, "l_aa", child), AddSynthon(1, 1 - child, "b2b", 0)]
            x = build(actions, library, sched)
            objects.append(x.with_states(np.concatenate(ground_truth_layout(x.components, library))))
        assert [c.synthon_id for c in objects[0].components] == [c.synthon_id for c in objects[1].components]
        for seed in range(6):
            for x in objects:
                for canonicalize in (True, False):
                    got = decompose(x, library, rng=np.random.default_rng(seed), canonicalize=canonicalize)
                    want = fresh_plan(x, library, np.random.default_rng(seed), False, canonicalize)
                    assert plan_bytes(got) == plan_bytes(want)
        assert len(library.decompositions) == 2

    def test_two_libraries_never_share_an_entry(self, sched, rng):
        # the same ids with l_ab's local frame rotated: equal compositions,
        # other poses, so an entry read across libraries would show
        base = default_library()
        l_ab = base.get("l_ab")
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        moved = Synthon(
            id="l_ab",
            kind="linker",
            points=tuple(map(tuple, np.asarray(l_ab.points) @ rot.T)),
            attachments=tuple(
                AttachmentPoint(a.point_index, a.klass, tuple(rot @ np.asarray(a.direction))) for a in l_ab.attachments
            ),
        )
        gauged = SynthonLibrary(synthons=tuple(moved if s.id == "l_ab" else s for s in base.synthons))
        actions = [FirstSynthon("b2a"), AddSynthon(0, 0, "l_ab", 0), AddSynthon(1, 1, "b2b", 0)]
        x = build(actions, base, sched)
        x = x.with_states(np.concatenate(ground_truth_layout(x.components, base)))
        twin = default_library()
        for library in (base, gauged, twin):
            for seed in range(4):
                assert plan_bytes(decompose(x, library, rng=np.random.default_rng(seed))) == plan_bytes(
                    fresh_plan(x, library, np.random.default_rng(seed), False, True)
                )
        assert base.decompositions is not twin.decompositions
        assert base.decompositions[x.components] is not twin.decompositions[x.components]
        # the linker's rotation differs: it is placed from its own frame
        base_rot = base.decompositions[x.components].poses[1][0]
        gauged_rot = gauged.decompositions[x.components].poses[1][0]
        assert not np.array_equal(base_rot, gauged_rot)


class TestStateMatrix:
    def test_component_views_tile_the_matrix(self, library, sched, rules):
        data = generate_dataset(50, 3, library, rules, sched)
        for x in data:
            views = [component_states(x, i, library) for i in range(len(x.components))]
            assert [len(v) for v in views] == [library.get(c.synthon_id).n_points for c in x.components]
            assert np.concatenate(views).tobytes() == x.states.tobytes()
            assert all(np.shares_memory(v, x.states) and not v.flags.writeable for v in views)
        layout = library.row_layouts[x.components]
        assert layout.offsets == tuple(np.cumsum([0] + [len(v) for v in views]).tolist())
        assert layout.owner.tolist() == [i for i, v in enumerate(views) for _ in range(len(v))]
        assert not layout.owner.flags.writeable
        assert default_library().row_layouts == {}

    def test_objects_hold_read_only_copies(self, library, sched):
        x = build([FirstSynthon("b2a"), AddSynthon(0, 0, "b2b", 0)], library, sched)
        assert not x.states.flags.writeable and not x.self_cond.flags.writeable
        rows = np.arange(8.0).reshape(4, 2)
        y = x.with_states(rows)
        rows[0, 0] = 9.0
        assert y.states[0, 0] == 0.0 and y.self_cond is x.self_cond
        with pytest.raises(ValueError):
            y.states[0, 0] = 1.0
        z = x.with_states(rows, self_cond=rows)
        assert z.self_cond is z.states
        for bad in (np.zeros((2, 2, 2)), np.zeros(4), np.zeros((4, 3))):
            with pytest.raises(InvariantError, match="one \\(P, 2\\) matrix"):
                x.with_states(bad)


class TestReplayDeterminism:
    def test_hundred_random_sequences_bitwise_identical(self, library, sched, rules, rng):
        for trial in range(100):
            x = EMPTY_OBJECT
            actions = []
            while not x.is_terminal:
                space = action_space(x, rules, library)
                action = space[int(rng.integers(len(space)))]
                actions.append(action)
                x = transition(x, action, library, sched, global_seed=77, p_max=rules.p_max)
            y = replay_actions(actions, library, sched, global_seed=77, p_max=rules.p_max)
            assert recorded_actions(y) == actions
            assert x.states.tobytes() == y.states.tobytes()
            assert x.self_cond.tobytes() == y.self_cond.tobytes()

    def test_point_count_bookkeeping(self, library, sched, rules, rng):
        data = generate_dataset(50, 3, library, rules, sched)
        for x in data:
            total = sum(library.get(c.synthon_id).n_points for c in x.components)
            assert x.states.shape == (total, 2)
            n_linkers = sum(1 for c in x.components if library.get(c.synthon_id).kind == "linker")
            n_bricks = len(x.components) - n_linkers
            bonds = len(x.components) - 1
            assert len(x.open_attachments) == n_bricks + 2 * n_linkers - 2 * bonds


# values whose bits a text round trip could lose: signed zeros, subnormals,
# the extremes and a repeating binary fraction
EDGE_STATES = [
    np.array([[-0.0, 0.0], [5e-324, -5e-324]]),
    np.array([[2.2250738585072014e-308 / 3, 1.7976931348623157e308], [-1e-310, 1 / 3]]),
    np.array([[0.1, -0.2], [0.3, 7.0], [-1.5, 2.0**-1074 * 3]]),
]


class TestStateEncoding:
    def test_round_trip_is_bitwise(self):
        states = decode_states(encode_states(np.concatenate(EDGE_STATES)), 7)
        assert states.tobytes() == np.concatenate(EDGE_STATES).tobytes()
        assert np.signbit(states[0, 0]) and not np.signbit(states[0, 1])
        assert states[1, 0] == 5e-324

    def test_text_is_base64_of_little_endian_rows_in_component_order(self):
        text = encode_states(np.concatenate(EDGE_STATES))
        want = np.concatenate(EDGE_STATES).astype("<f8").tobytes()
        assert base64.b64decode(text, validate=True) == want
        # views, non-contiguous ones too, encode their values
        assert encode_states(EDGE_STATES[2][::2]) == encode_states(EDGE_STATES[2][[0, 2]].copy())
        assert encode_states(NO_STATES) == ""

    def test_decoded_states_are_one_read_only_matrix(self):
        text = encode_states(np.concatenate(EDGE_STATES))
        states = decode_states(text, 7)
        assert states.shape == (7, 2) and states.dtype == np.float64
        # one array over the decoded bytes: no copy, and a write raises
        assert isinstance(states.base, np.ndarray) and isinstance(states.base.base, bytes)
        assert not states.flags.writeable
        with pytest.raises(ValueError):
            states[0, 0] = 9.0
        assert decode_states(text, 7).tobytes() == states.tobytes()

    def test_to_dict_writes_the_encoded_states(self, library, sched):
        x = generate_dataset(3, 4, library, RuleSet(), sched)[2]
        assert x.to_dict()["states"] == encode_states(x.states)
        assert EMPTY_OBJECT.to_dict()["states"] == ""

    @pytest.mark.parametrize(
        "text, message",
        [
            ([[[0.0, 0.0]]], "old list-of-rows format"),
            (None, "base64 string, got NoneType"),
            ("AAAA*AAA", "not base64"),
            ("AAAAAAAAAAA", "not base64"),  # padding missing
            ("é", "not base64"),
            (encode_states(np.zeros((1, 2)))[:16], "12 bytes, not a whole number"),
            (encode_states(np.zeros(3)), "3 values, want 4"),
            (encode_states(np.array([[0.0, np.nan], [0.0, 0.0]])), "non-finite"),
            (encode_states(np.array([[0.0, 0.0], [-np.inf, 0.0]])), "non-finite"),
        ],
        ids=["list-form", "null", "bad-character", "unpadded", "not-ascii", "partial-value", "short",
             "nan", "infinity"],
    )
    def test_malformed_text_is_an_artifact_error(self, text, message):
        with pytest.raises(ArtifactError, match=message):
            decode_states(text, 2)
