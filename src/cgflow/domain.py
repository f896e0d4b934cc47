"""Planar synthon-assembly task: legal actions, reward, dataset generation.

Masking rules: the first action picks a brick; later actions attach a
synthon whose attachment klass complements an open attachment; the point
budget ``p_max`` is never exceeded; the ``max_len``-th action is restricted
to bricks; actions that would terminate the object before ``min_len``
components are excluded.  Library validation proves by exhaustive search
over reachable compositions that these masks never leave a nonterminal
state without a legal action.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compstate import (
    ActionRef,
    AddSynthon,
    ComposedObject,
    EMPTY_OBJECT,
    FirstSynthon,
    SynthonLibrary,
    complementary,
    ground_truth_layout,
    grow,
    row_layout,
)
from .errors import ConfigError, InvariantError
from .schedule import Schedule
from .seeding import rng_from


@dataclass(frozen=True)
class RuleSet:
    p_max: int = 12
    min_len: int = 2
    max_len: int = 3

    def __post_init__(self) -> None:
        if self.min_len < 2:
            raise ConfigError(f"min_len must be >= 2, got {self.min_len}")
        if self.max_len < self.min_len:
            raise ConfigError(f"max_len {self.max_len} < min_len {self.min_len}")
        if self.p_max < 1:
            raise ConfigError("p_max must be positive")


@dataclass(frozen=True)
class RewardParams:
    anchors: tuple[tuple[float, float], ...]
    r_min: float = 0.6
    temperature: float = 4.0
    beta: float = 1.0

    def __post_init__(self) -> None:
        if not self.anchors:
            raise ConfigError("anchors must be non-empty")
        if self.temperature <= 0:
            raise ConfigError("temperature must be positive")
        if self.beta < 1:
            raise ConfigError("beta must be >= 1")

    def anchors_array(self) -> np.ndarray:
        return np.asarray(self.anchors, dtype=np.float64)


def action_space(
    x: ComposedObject, rules: RuleSet, library: SynthonLibrary
) -> list[ActionRef]:
    """Legal actions at ``x`` in a deterministic order.

    Order: open attachments in object order, then synthons in library
    order, then attachment slots; FirstSynthon actions follow library order.
    """
    if x.is_terminal:
        raise InvariantError("no actions on a terminal object")
    if x.is_empty:
        return [
            FirstSynthon(synthon_id=s.id)
            for s in library.bricks
            if s.n_points <= rules.p_max
        ]

    next_len = len(x.components) + 1
    if next_len > rules.max_len:
        return []
    points = x.total_points(library)
    force_brick = next_len == rules.max_len
    out: list[ActionRef] = []
    for ci, ai in x.open_attachments:
        parent_synthon = library.get(x.components[ci].synthon_id)
        parent_klass = parent_synthon.attachments[ai].klass
        for synthon in library:
            if force_brick and synthon.kind != "brick":
                continue
            if points + synthon.n_points > rules.p_max:
                continue
            for j, att in enumerate(synthon.attachments):
                if not complementary(parent_klass, att.klass):
                    continue
                opens_after = len(x.open_attachments) - 1 + len(synthon.attachments) - 1
                if opens_after == 0 and next_len < rules.min_len:
                    continue
                out.append(
                    AddSynthon(
                        parent_component=ci,
                        parent_attachment=ai,
                        synthon_id=synthon.id,
                        child_attachment=j,
                    )
                )
    return out


def _composition_signature(x: ComposedObject, library: SynthonLibrary) -> tuple:
    # Open attachment klasses + component count + point count decide legality,
    # so reachability search can collapse states to this signature.
    klasses = tuple(
        sorted(
            library.get(x.components[ci].synthon_id).attachments[ai].klass
            for ci, ai in x.open_attachments
        )
    )
    return (len(x.components), x.total_points(library), klasses)


def validate_library(
    library: SynthonLibrary,
    rules: RuleSet,
    sched: Schedule,
) -> None:
    """Exhaustively prove no reachable dead ends under the masking rules."""
    state_cap = 100_000
    if rules.max_len > sched.max_components:
        raise ConfigError(
            f"max_len {rules.max_len} exceeds schedule max_components {sched.max_components}"
        )
    if not library.bricks:
        raise ConfigError("library has no bricks: empty initial action space")
    frontier: list[ComposedObject] = [EMPTY_OBJECT]
    seen: set[tuple] = set()
    visited = 0
    while frontier:
        x = frontier.pop()
        visited += 1
        if visited > state_cap:
            raise ConfigError(f"reachability search exceeded {state_cap} states")
        if x.is_terminal:
            continue
        if len(x.components) == rules.max_len:
            raise ConfigError(
                "reachable state at max_len is not terminal: "
                f"{[c.synthon_id for c in x.components]}"
            )
        actions = action_space(x, rules, library)
        if not actions:
            raise ConfigError(
                f"dead end at {[c.synthon_id for c in x.components]} "
                f"(opens={x.open_attachments}, points={x.total_points(library)})"
            )
        for action in actions:
            child = grow(x, action, library, sched, rules.p_max)
            sig = _composition_signature(child, library)
            if sig not in seen:
                seen.add(sig)
                frontier.append(child)


def log_reward(x: ComposedObject, params: RewardParams, library: SynthonLibrary) -> float:
    """Log of the anchor-attraction / clash-repulsion reward, -beta * E / T.

    Kept in the log domain so trajectory-balance targets stay exact even
    where ``exp`` would underflow.
    """
    if not x.is_terminal:
        raise InvariantError("reward requires a terminal object")
    comp_ids = row_layout(x.components, library).owner
    if x.states.shape[0] != comp_ids.shape[0]:
        raise InvariantError("reward requires states for all components")
    pts = x.states
    anchors = params.anchors_array()
    d2 = ((pts[:, None, :] - anchors[None, :, :]) ** 2).sum(axis=2)
    energy = float(d2.min(axis=1).sum())

    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    cross = comp_ids[:, None] != comp_ids[None, :]
    upper = np.triu(np.ones_like(dist, dtype=bool), k=1)
    overlap = np.clip(params.r_min - dist, 0.0, None)
    energy += float((overlap[cross & upper] ** 2).sum())

    return -params.beta * energy / params.temperature


def generate_dataset(
    n: int,
    global_seed: int,
    library: SynthonLibrary,
    rules: RuleSet,
    sched: Schedule,
    sigma_data: float = 0.05,
) -> list[ComposedObject]:
    """Objects built by uniform random legal actions, laid out and jittered.

    Object ``i`` draws from ``rng_from(global_seed, "dataset", i)``: one
    action index per step, then the layout jitter.  Everything that depends
    only on the composition is computed once per call: ``nodes`` maps an
    action-index prefix to its object (grown without prior states) and
    either its legal actions or, at a leaf, its ground-truth layout as one
    read-only (P, 2) matrix.  Each object's jitter is one (P, 2) draw, the
    same values as one draw per component in component order; its jittered
    states matrix serves as its self-conditioning too.
    """
    if n < 1:
        raise ConfigError("dataset size must be >= 1")
    nodes: dict[tuple[int, ...], tuple[ComposedObject, list]] = {
        (): (EMPTY_OBJECT, action_space(EMPTY_OBJECT, rules, library))
    }
    out = []
    for i in range(n):
        rng = rng_from(global_seed, "dataset", i)
        prefix: tuple[int, ...] = ()
        x, below = nodes[prefix]
        while not x.is_terminal:
            if not below:
                raise InvariantError("dead end during generation; library not validated?")
            child = prefix + (int(rng.integers(len(below))),)
            if child not in nodes:
                y = grow(x, below[child[-1]], library, sched, rules.p_max)
                if y.is_terminal:
                    layout = np.concatenate(ground_truth_layout(y.components, library))
                    layout.flags.writeable = False
                    nodes[child] = (y, layout)
                else:
                    nodes[child] = (y, action_space(y, rules, library))
            prefix = child
            x, below = nodes[prefix]
        states = below + rng.normal(0.0, sigma_data, size=below.shape)
        states.flags.writeable = False
        out.append(ComposedObject(x.components, states, states, x.open_attachments))
    return out
