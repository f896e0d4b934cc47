"""End-to-end acceptance gates.

Each test prints one PASS/FAIL line (bypassing capture) with the measured
quantity and its bound.  The slow gates share one module-scoped context:
a 10k-object dataset, a state-flow model trained at the default
hyperparameters, and the exact sequence table built from it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from cgflow.compstate import (
    EMPTY_OBJECT,
    FirstSynthon,
    AddSynthon,
    decompose,
    ground_truth_layout,
    replay_actions,
    sequence_key,
)
from cgflow.domain import RuleSet, action_space, generate_dataset, validate_library
from cgflow.gflownet import (
    PolicyHyper,
    PolicyModel,
    ce_batch,
    ce_loss_node,
    policy_distribution,
    sample_trajectory,
    tb_loss_node,
    train_policy_ce,
    train_policy_tb,
    uniform_ce_baseline,
)
from cgflow.nn import Tape, finite_difference_check
from cgflow.oracle import (
    enumerate_sequences,
    model_distribution,
    target_distribution,
    tv_distance,
    uniform_policy_distribution,
)
from cgflow.schedule import Schedule, action_steps, t_local_from_steps
from cgflow.seeding import rng_from
from cgflow.stateflow import (
    StateFlowHyper,
    StateFlowModel,
    euler_rollout,
    interpolate,
    state_loss,
    train_stateflow,
)

GS = 20240810


@pytest.fixture()
def report(capfd):
    def _report(criterion: int, passed: bool, detail: str) -> None:
        with capfd.disabled():
            print(f"ACCEPTANCE {criterion:2d}: {'PASS' if passed else 'FAIL'} - {detail}")

    return _report


@dataclass
class Context:
    dataset: list
    state_model: StateFlowModel
    state_metrics: list
    table: object
    target: np.ndarray


@pytest.fixture(scope="module")
def ctx(library, sched, rules, reward_params):
    dataset = generate_dataset(10_000, GS, library, rules, sched)
    state_model, state_metrics = train_stateflow(
        dataset, sched, library, StateFlowHyper(), run_seed=GS
    )
    table = enumerate_sequences(rules, sched, state_model, library, reward_params, GS)
    target = target_distribution(table)
    return Context(dataset, state_model, state_metrics, table, target)


def test_01_schedule_fidelity(fig2_sched, report):
    t0 = time.perf_counter()
    ok = True
    for step in range(fig2_sched.n_steps + 1):
        for gen in action_steps(fig2_sched):
            exact = min(max(Fraction(step - gen, fig2_sched.window_steps), 0), 1)
            if t_local_from_steps(step, gen, fig2_sched) != float(exact):
                ok = False
    report(1, ok, f"t_local matches exact clip at every grid point ({time.perf_counter()-t0:.2f}s)")
    assert ok


def test_02_boundary_conditions(library, sched, rules, report):
    t0 = time.perf_counter()
    data = generate_dataset(32, 7, library, rules, sched)
    worst = 0.0
    for obj in data:
        plan = decompose(obj, library)
        empty = interpolate(plan, 0, 0.0, sched, library, sample_seed=1)
        assert len(empty.x_t.components) == 0
        full = interpolate(plan, sched.n_steps, 0.0, sched, library, sample_seed=1)
        worst = max(worst, float(np.abs(full.x_t.states - obj.states).max()))
    ok = worst <= 1e-12
    report(2, ok, f"t=0 empty; t=1 sigma=0 max err {worst:.2e} <= 1e-12 ({time.perf_counter()-t0:.2f}s)")
    assert ok


def test_03_integrator_coherence(library, rules, report):
    t0 = time.perf_counter()

    class Oracle:
        def __init__(self, targets):
            self.targets = np.concatenate(targets)
            self.library = library

        def predict_packed(self, feats, spans):
            return np.concatenate([self.targets[:m] for _, m in spans])

    worst_paper, worst_rect = 0.0, 0.0
    for mode in ("paper", "rectified"):
        sched = Schedule(lam=0.3, t_window=0.4, n_steps=20, max_components=3, integrator_mode=mode)
        data = generate_dataset(16, 9, library, rules, sched)
        for obj in data:
            layout = ground_truth_layout(obj.components, library)
            start = replay_actions(
                [s.action for s in decompose(obj, library)], library, sched, GS
            )
            out = euler_rollout(
                start, Oracle(layout), sched, 0, sched.n_steps, snap=(mode == "paper")
            )
            err = float(np.abs(out.states - np.concatenate(layout)).max())
            if mode == "paper":
                worst_paper = max(worst_paper, err)
            else:
                worst_rect = max(worst_rect, err)
    ok = worst_paper == 0.0 and worst_rect <= 1e-9
    report(
        3,
        ok,
        f"paper+snap exact (err {worst_paper:.1e}); rectified snap-free err {worst_rect:.1e} <= 1e-9 "
        f"({time.perf_counter()-t0:.2f}s)",
    )
    assert ok


def test_04_determinism(ctx, library, sched, rules, reward_params, report):
    from cgflow.compstate import transition

    t0 = time.perf_counter()
    rng = rng_from(41)
    policy = PolicyModel.create(sched, library, seed=77)
    ok = True
    for trial in range(100):
        x = EMPTY_OBJECT
        actions = []
        while not x.is_terminal:
            space = action_space(x, rules, library)
            a = space[int(rng.integers(len(space)))]
            actions.append(a)
            x = transition(x, a, library, sched, GS, p_max=rules.p_max)
        runs = [
            sample_trajectory(
                policy, ctx.state_model, sched, rules, library, reward_params,
                global_seed=GS, traj_seed=0, forced_actions=actions,
            )
            for _ in range(2)
        ]
        ta, tb = runs[0].trajectory, runs[1].trajectory
        if ta.reward != tb.reward:
            ok = False
        if not np.array_equal(ta.terminal_object.states, tb.terminal_object.states):
            ok = False
    report(4, ok, f"100 replayed sequences bitwise identical ({time.perf_counter()-t0:.2f}s)")
    assert ok


def test_05_gradient_correctness(library, sched, rules, reward_params, report):
    t0 = time.perf_counter()
    data = generate_dataset(32, 3, library, rules, sched)
    sf = StateFlowModel.create(sched, library, seed=GS + 1)
    policy = PolicyModel.create(sched, library, seed=GS + 2)
    rng = rng_from(GS, "acc5")
    batch = []
    for _ in range(4):
        plan = decompose(data[int(rng.integers(len(data)))], library, rng=rng)
        batch.append(
            interpolate(plan, int(rng.integers(1, sched.n_steps + 1)), 0.05, sched, library, rng,
                        int(rng.integers(1 << 63)))
        )
    errs = {
        "state": finite_difference_check(
            lambda tape: state_loss(sf, tape, batch), sf.store, rng_from(1), n_coords=64
        )
    }

    def build_tb(tape):
        sampled = sample_trajectory(
            policy, sf, sched, rules, library, reward_params,
            global_seed=GS, traj_seed=5, tape=tape,
        )
        return tb_loss_node(tape, sampled)

    errs["tb"] = finite_difference_check(build_tb, policy.store, rng_from(2), n_coords=64)
    items = ce_batch(data, rules, library, sched, rng_from(3), 4)
    errs["ce"] = finite_difference_check(
        lambda tape: ce_loss_node(tape, policy, items), policy.store, rng_from(4), n_coords=64
    )
    worst = max(errs.values())
    ok = worst < 1e-4
    report(5, ok, f"max FD rel err {worst:.2e} < 1e-4 over {sorted(errs)} ({time.perf_counter()-t0:.1f}s)")
    assert ok


def test_06_stateflow_learnability(ctx, report):
    running = ctx.state_metrics[-1]["running_loss"]
    ok = running < 0.05
    report(6, ok, f"running MSE {running:.4f} < 0.05 after 2000 iters x batch 64 on 10k objects")
    assert ok


def test_07_reward_proportional_sampling(ctx, library, sched, rules, reward_params, report):
    t0 = time.perf_counter()
    policy, metrics = train_policy_tb(
        ctx.state_model, sched, rules, library, reward_params, PolicyHyper(), run_seed=GS
    )
    p_model = model_distribution(policy, ctx.table)
    tv = tv_distance(p_model, ctx.target)
    log_z_err = abs(policy.log_z - ctx.table.log_z_exact())
    tv_uniform = tv_distance(uniform_policy_distribution(ctx.table), ctx.target)
    ok = tv <= 0.10 and log_z_err <= 0.05 and tv_uniform >= 0.15
    report(
        7,
        ok,
        f"TV(model, target) {tv:.4f} <= 0.10; |logZ err| {log_z_err:.4f} <= 0.05; "
        f"uniform baseline TV {tv_uniform:.3f} >= 0.15 ({time.perf_counter()-t0:.0f}s)",
    )
    assert ok


def test_08_cross_entropy_alternative(library, sched, rules, report):
    t0 = time.perf_counter()
    data = generate_dataset(1_000, GS, library, rules, sched)
    hyper = PolicyHyper(batch=64, iters=2000, lr=1e-3, objective="ce")
    policy, _ = train_policy_ce(data, sched, rules, library, hyper, run_seed=GS)
    items = ce_batch(data, rules, library, sched, rng_from(GS, "ce-eval"), 512)
    tape = Tape(policy.store)
    nll = float(tape.value(ce_loss_node(tape, policy, items)))
    baseline = uniform_ce_baseline(items)
    improvement = 1.0 - nll / baseline
    ok = improvement >= 0.30
    report(
        8,
        ok,
        f"NLL {nll:.4f} vs uniform baseline {baseline:.4f}: {improvement*100:.1f}% >= 30% "
        f"({time.perf_counter()-t0:.0f}s)",
    )
    assert ok


def test_09_masking_soundness(library, sched, rules, report):
    t0 = time.perf_counter()
    validate_library(library, rules, sched)

    def legal_by_predicate(x, action) -> bool:
        # independent re-derivation of the masking rules
        synthon = library.get(action.synthon_id)
        points = x.total_points(library)
        if points + synthon.n_points > rules.p_max:
            return False
        if isinstance(action, FirstSynthon):
            return x.is_empty and synthon.kind == "brick"
        if x.is_empty:
            return False
        next_len = len(x.components) + 1
        if next_len > rules.max_len:
            return False
        if next_len == rules.max_len and synthon.kind != "brick":
            return False
        ref = (action.parent_component, action.parent_attachment)
        if ref not in x.open_attachments:
            return False
        parent = library.get(x.components[action.parent_component].synthon_id)
        klasses = {
            parent.attachments[action.parent_attachment].klass,
            synthon.attachments[action.child_attachment].klass,
        }
        if klasses != {"alpha", "beta"}:
            return False
        opens_after = len(x.open_attachments) - 1 + len(synthon.attachments) - 1
        if opens_after == 0 and next_len < rules.min_len:
            return False
        return True

    # every reachable nonterminal state, found by exhaustive walk
    states = []
    frontier = [EMPTY_OBJECT]
    from cgflow.compstate import transition

    while frontier:
        x = frontier.pop()
        if x.is_terminal:
            continue
        states.append(x)
        for a in action_space(x, rules, library):
            frontier.append(transition(x, a, library, sched, GS, p_max=rules.p_max))

    policy = PolicyModel.create(sched, library, seed=GS + 9)
    rng = rng_from(GS, "acc9")
    per_state = 1_000_000 // len(states) + 1
    sampled = 0
    violations = 0
    for x in states:
        space = action_space(x, rules, library)
        if not space:
            violations += 1
            continue
        probs, _, _ = policy_distribution(policy, x, 0, space)
        draws = rng.choice(len(space), size=per_state, p=probs / probs.sum())
        counts = np.bincount(draws, minlength=len(space))
        sampled += int(counts.sum())
        for idx, c in enumerate(counts):
            if c and not legal_by_predicate(x, space[idx]):
                violations += int(c)
    ok = violations == 0 and sampled >= 1_000_000
    report(
        9,
        ok,
        f"{sampled} sampled actions, {violations} violations; "
        f"{len(states)} reachable nonterminal states all non-empty ({time.perf_counter()-t0:.1f}s)",
    )
    assert ok


def test_10_exact_distribution_consistency(ctx, library, sched, rules, reward_params, report):
    t0 = time.perf_counter()
    policy = PolicyModel.create(sched, library, seed=GS + 10)
    p_model = model_distribution(policy, ctx.table, tol=1e-9)
    sum_err = abs(float(p_model.sum()) - 1.0)
    counts = dict.fromkeys([r.key for r in ctx.table.records], 0)
    # the policy and the state flow are frozen, so one rollout cache, node
    # memo and policy table serve all draws; the draws stay bitwise those of
    # plain sampling (tests/test_gflownet.py::TestPrefixMemo)
    memo = {"rollout_cache": {}, "node_memo": {}, "policy_table": {}}
    n = 20_000
    for j in range(n):
        out = sample_trajectory(
            policy, ctx.state_model, sched, rules, library, reward_params,
            global_seed=GS, traj_seed=j, **memo,
        )
        counts[sequence_key(s.action for s in out.trajectory.actions)] += 1
    empirical = np.array([counts[r.key] for r in ctx.table.records]) / n
    tv = tv_distance(empirical, p_model)
    ok = sum_err <= 1e-9 and tv <= 0.02
    report(
        10,
        ok,
        f"model distribution sums to 1 (err {sum_err:.1e} <= 1e-9); "
        f"TV(empirical@20k, exact) {tv:.4f} <= 0.02 ({time.perf_counter()-t0:.0f}s)",
    )
    assert ok
