from __future__ import annotations

import math

import numpy as np
import pytest

from cgflow.compstate import (
    AddSynthon,
    EMPTY_OBJECT,
    FirstSynthon,
    ground_truth_layout,
    replay_actions,
    transition,
)
from cgflow.domain import (
    RewardParams,
    RuleSet,
    action_space,
    generate_dataset,
    log_reward,
    validate_library,
)
from cgflow.errors import ConfigError, InvariantError
from cgflow.schedule import Schedule
from cgflow.seeding import rng_from


class TestActionSpace:
    def test_empty_object_offers_all_bricks(self, library, rules):
        actions = action_space(EMPTY_OBJECT, rules, library)
        assert actions == [FirstSynthon(s.id) for s in library.bricks]

    def test_forcing_rule_at_max_length(self, library, rules, sched):
        x = replay_actions(
            [FirstSynthon("b2a"), AddSynthon(0, 0, "l_ab", 0)], library, sched, 0
        )
        actions = action_space(x, rules, library)
        assert actions
        for a in actions:
            assert library.get(a.synthon_id).kind == "brick"

    def test_klass_complement_filter(self, library, rules, sched):
        x = replay_actions([FirstSynthon("b2a")], library, sched, 0)
        names = {a.synthon_id for a in action_space(x, rules, library)}
        # open attachment is alpha: only beta-presenting synthons qualify
        assert names == {"b2b", "b3b", "l_ab", "l_ba"}

    def test_point_budget_masking_matches_brute_force(self, library, sched):
        rules = RuleSet(p_max=7)
        validate_library(library, rules, sched)
        x = replay_actions(
            [FirstSynthon("b3a"), AddSynthon(0, 0, "l_ab", 0)], library, sched, 0,
        )
        actions = action_space(x, rules, library)
        # brute-force filter: 5 points placed, only 2-point beta bricks fit
        expected = []
        for ci, ai in x.open_attachments:
            parent = library.get(x.components[ci].synthon_id)
            for s in library:
                if s.kind != "brick":
                    continue
                for j, att in enumerate(s.attachments):
                    klasses = {parent.attachments[ai].klass, att.klass}
                    if klasses == {"alpha", "beta"} and 5 + s.n_points <= 7:
                        expected.append(AddSynthon(ci, ai, s.id, j))
        assert actions == expected
        assert {a.synthon_id for a in actions} == {"b2b"}

    def test_terminal_state_has_no_actions(self, library, rules, sched):
        x = replay_actions([FirstSynthon("b2a"), AddSynthon(0, 0, "b2b", 0)], library, sched, 0)
        with pytest.raises(InvariantError):
            action_space(x, rules, library)

    def test_min_len_blocks_early_termination(self, library, sched):
        rules = RuleSet(min_len=3, max_len=3)
        validate_library(library, rules, sched)
        x = replay_actions([FirstSynthon("b2a")], library, sched, 0)
        actions = action_space(x, rules, library)
        # all length-2 terminations masked away: only linkers remain
        assert {library.get(a.synthon_id).kind for a in actions} == {"linker"}

    def test_dead_end_budget_rejected_at_validation(self, library, sched):
        with pytest.raises(ConfigError):
            validate_library(library, RuleSet(p_max=5), sched)

    def test_default_config_validates(self, library, rules, sched):
        validate_library(library, rules, sched)


def reward(x, params, library):
    """Anchor-attraction / clash-repulsion energy mapped through exp(-beta*E/T)."""
    return float(np.exp(log_reward(x, params, library)))


class TestReward:
    def test_perfect_match_gives_one(self, library, sched):
        x = replay_actions([FirstSynthon("b2a"), AddSynthon(0, 0, "b2b", 0)], library, sched, 0)
        x = x.with_states(np.concatenate(ground_truth_layout(x.components, library)))
        params = RewardParams(
            anchors=((0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)),
            r_min=0.6,
            temperature=4.0,
        )
        assert reward(x, params, library) == pytest.approx(1.0, abs=1e-12)

    def test_single_offset_point(self, library, sched):
        # one point at distance 2 from its nearest anchor: E=4, T=4 -> 1/e
        x = replay_actions([FirstSynthon("b2a"), AddSynthon(0, 0, "b2b", 0)], library, sched, 0)
        x = x.with_states([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 2.0]])
        params = RewardParams(
            anchors=((0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)),
            r_min=0.0001,
            temperature=4.0,
        )
        assert reward(x, params, library) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_beta_exponentiation(self, library, sched, reward_params):
        x = replay_actions([FirstSynthon("b3a"), AddSynthon(0, 0, "b3b", 0)], library, sched, 0)
        x = x.with_states(np.concatenate(ground_truth_layout(x.components, library)))
        r1 = reward(x, reward_params, library)
        params2 = RewardParams(
            anchors=reward_params.anchors,
            r_min=reward_params.r_min,
            temperature=reward_params.temperature,
            beta=2.0,
        )
        assert reward(x, params2, library) == pytest.approx(r1**2, rel=1e-12)

    def test_clash_term_counts_cross_component_pairs(self, library, sched):
        x = replay_actions([FirstSynthon("b2a"), AddSynthon(0, 0, "b2b", 0)], library, sched, 0)
        # overlap two points across components at distance 0.1
        x = x.with_states([[0.0, 0.0], [1.0, 0.0], [1.1, 0.0], [2.0, 0.0]])
        anchors = ((0.0, 0.0), (1.0, 0.0), (1.1, 0.0), (2.0, 0.0))
        params = RewardParams(anchors=anchors, r_min=0.6, temperature=1.0)
        # anchor energy zero; clash energy (0.6 - 0.1)^2 between (1,0) and (1.1,0)
        # plus (0.6 - 0.1... no other pair is within 0.6
        expected = math.exp(-((0.6 - 0.1) ** 2))
        assert reward(x, params, library) == pytest.approx(expected, rel=1e-9)

    def test_component_reordering_invariance(self, library, sched, reward_params):
        x = replay_actions(
            [FirstSynthon("b2a"), AddSynthon(0, 0, "l_ab", 0), AddSynthon(1, 1, "b2b", 0)],
            library,
            sched,
            0,
        )
        layout = ground_truth_layout(x.components, library)
        x = x.with_states(np.concatenate(layout))
        r1 = reward(x, reward_params, library)
        from cgflow.compstate import plan_for_order, replay_actions as replay

        plan = plan_for_order(x, (2, 1, 0), library, canonicalize=False)
        y = replay([s.action for s in plan], library, sched, 0)
        y = y.with_states(np.concatenate([s.s1 for s in plan]))
        assert reward(y, reward_params, library) == pytest.approx(r1, rel=1e-12)

    def test_nonterminal_rejected(self, library, sched, reward_params):
        x = replay_actions([FirstSynthon("b2a")], library, sched, 0)
        with pytest.raises(InvariantError):
            reward(x, reward_params, library)

    def test_strictly_positive(self, library, sched, reward_params, rng):
        x = replay_actions([FirstSynthon("b2a"), AddSynthon(0, 0, "b2b", 0)], library, sched, 0)
        x = x.with_states(rng.normal(size=(4, 2)) * 3)
        assert reward(x, reward_params, library) > 0


class TestGenerateDataset:
    def test_reproducible(self, library, rules, sched):
        a = generate_dataset(5, 31, library, rules, sched)
        b = generate_dataset(5, 31, library, rules, sched)
        for xa, xb in zip(a, b):
            assert xa.components == xb.components
            assert xa.states.tobytes() == xb.states.tobytes()

    def test_grammar_bounds(self, library, rules, sched):
        data = generate_dataset(500, 7, library, rules, sched)
        for x in data:
            assert rules.min_len <= len(x.components) <= rules.max_len
            assert x.total_points(library) <= rules.p_max
            assert x.is_terminal

    def test_length_distribution_matches_uniform_policy(self, library, rules, sched):
        # uniform over legal actions: the second action terminates with
        # probability 1/2 (two bricks of four candidates)
        data = generate_dataset(4000, 11, library, rules, sched)
        frac2 = sum(1 for x in data if len(x.components) == 2) / len(data)
        assert abs(frac2 - 0.5) < 0.02

    def test_rows_match_transition_built_reference(self, library, fig2_sched, sched):
        # generation used to walk every object through full transitions,
        # one action_space and one layout per object, and replace the prior
        # draws with the jittered layout; the shared prefix memo keeps every
        # row and every array byte for byte, over runs long enough that
        # prefixes and leaves repeat
        wide = Schedule(lam=0.1, t_window=0.4, n_steps=20, max_components=8)
        for rules, sched, n in [
            (RuleSet(max_len=4, p_max=14), fig2_sched, 60),
            (RuleSet(), sched, 2000),
            (RuleSet(max_len=7, p_max=18), wide, 500),
        ]:
            data = generate_dataset(n, 17, library, rules, sched)
            for i, x in enumerate(data):
                rng = rng_from(17, "dataset", i)
                ref = EMPTY_OBJECT
                while not ref.is_terminal:
                    actions = action_space(ref, rules, library)
                    action = actions[int(rng.integers(len(actions)))]
                    ref = transition(ref, action, library, sched, i, p_max=rules.p_max)
                # the reference draws each component's jitter on its own
                layout = ground_truth_layout(ref.components, library)
                states = np.concatenate([s + rng.normal(0.0, 0.05, size=s.shape) for s in layout])
                assert x.to_dict() == ref.with_states(states).to_dict()
                assert x.states.tobytes() == states.tobytes()
                assert x.self_cond.tobytes() == states.tobytes()
            assert len({x.components for x in data}) < n  # leaves repeat
            # one read-only matrix per object, its states and its
            # self-conditioning: it owns its data, so it shares nothing with
            # another object or with the memoised layout
            assert all(x.self_cond is x.states for x in data)
            assert all(x.states.base is None and not x.states.flags.writeable for x in data)
            assert len({id(x.states) for x in data}) == len(data)

    def test_states_near_layout(self, library, rules, sched):
        data = generate_dataset(20, 13, library, rules, sched)
        for x in data:
            layout = np.concatenate(ground_truth_layout(x.components, library))
            assert np.abs(x.states - layout).max() < 0.05 * 6
