"""Composed objects: component instances, seeded transitions, layouts, orders.

An object is a pair (composition, states): an ordered list of component
instances drawn from a synthon library, plus one (m_i, 2) coordinate array
per component.  Objects are immutable; :func:`transition` returns a new
object.  The initial coordinates of a freshly added component are drawn from
a Gaussian prior with an RNG seeded by ``(global_seed, point count before
the append)`` — the size-based seed rule that makes the whole sampling
process a deterministic function of the action sequence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .schedule import Schedule
from .seeding import mix64

KLASSES = ("alpha", "beta")
KINDS = ("brick", "linker")

SIGMA_PRIOR = 1.0
BOND_LENGTH = 1.0


class CompositionError(ValueError):
    """Raised for invalid synthons, transitions, or decompositions."""


# ---------------------------------------------------------------------------
# Synthons
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttachmentPoint:
    point_index: int
    klass: str
    direction: tuple[float, float]

    def __post_init__(self) -> None:
        if self.klass not in KLASSES:
            raise CompositionError(f"unknown attachment klass {self.klass!r}")
        norm = float(np.hypot(*self.direction))
        if abs(norm - 1.0) > 1e-12:
            raise CompositionError(
                f"attachment direction {self.direction} is not unit length (|d|={norm})"
            )


@dataclass(frozen=True)
class Synthon:
    id: str
    kind: str
    points: tuple[tuple[float, float], ...]
    attachments: tuple[AttachmentPoint, ...]

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise CompositionError(f"unknown synthon kind {self.kind!r}")
        m = len(self.points)
        if not 2 <= m <= 6:
            raise CompositionError(f"synthon {self.id}: point count {m} outside [2, 6]")
        expected = 1 if self.kind == "brick" else 2
        if len(self.attachments) != expected:
            raise CompositionError(
                f"synthon {self.id}: {self.kind} must have exactly {expected} attachment(s)"
            )
        indices = [a.point_index for a in self.attachments]
        if len(set(indices)) != len(indices):
            raise CompositionError(f"synthon {self.id}: duplicate attachment point_index")
        for idx in indices:
            if not 0 <= idx < m:
                raise CompositionError(f"synthon {self.id}: attachment index {idx} out of range")

    @property
    def n_points(self) -> int:
        return len(self.points)

    def points_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=np.float64)


@dataclass(frozen=True)
class SynthonLibrary:
    """Ordered synthon collection; the order fixes one-hot encodings."""

    synthons: tuple[Synthon, ...]
    version: int = 1

    def __post_init__(self) -> None:
        ids = [s.id for s in self.synthons]
        if len(set(ids)) != len(ids):
            raise CompositionError("duplicate synthon ids in library")

    def __iter__(self):
        return iter(self.synthons)

    def __len__(self) -> int:
        return len(self.synthons)

    def get(self, synthon_id: str) -> Synthon:
        for s in self.synthons:
            if s.id == synthon_id:
                return s
        raise CompositionError(f"unknown synthon id {synthon_id!r}")

    def index_of(self, synthon_id: str) -> int:
        for i, s in enumerate(self.synthons):
            if s.id == synthon_id:
                return i
        raise CompositionError(f"unknown synthon id {synthon_id!r}")

    @property
    def bricks(self) -> tuple[Synthon, ...]:
        return tuple(s for s in self.synthons if s.kind == "brick")

    @cached_property
    def point_roles(self) -> dict[str, np.ndarray]:
        """Per-synthon read-only (m, 3) block of per-point attachment roles.

        Columns: the attachment flag signed by klass (+1 alpha, -1 beta,
        0 plain), then the synthon's alpha and beta attachment counts.  Built
        once per library object and stored on it, so two libraries never
        share a block.
        """
        roles = {}
        for synthon in self.synthons:
            block = np.zeros((synthon.n_points, 3))
            n_alpha = sum(1 for a in synthon.attachments if a.klass == "alpha")
            block[:, 1] = n_alpha
            block[:, 2] = len(synthon.attachments) - n_alpha
            for att in synthon.attachments:
                block[att.point_index, 0] = 1.0 if att.klass == "alpha" else -1.0
            block.flags.writeable = False
            roles[synthon.id] = block
        return roles


def library_from_dict(doc: dict) -> SynthonLibrary:
    synthons = []
    for rec in doc["synthons"]:
        attachments = tuple(
            AttachmentPoint(
                point_index=int(a["point_index"]),
                klass=str(a["klass"]),
                direction=(float(a["direction"][0]), float(a["direction"][1])),
            )
            for a in rec["attachments"]
        )
        synthons.append(
            Synthon(
                id=str(rec["id"]),
                kind=str(rec["kind"]),
                points=tuple((float(p[0]), float(p[1])) for p in rec["points"]),
                attachments=attachments,
            )
        )
    return SynthonLibrary(synthons=tuple(synthons), version=int(doc.get("version", 1)))


def load_library(path: str | Path) -> SynthonLibrary:
    with open(path, "r", encoding="utf-8") as fh:
        return library_from_dict(json.load(fh))


def default_library_bytes() -> bytes:
    return resources.files("cgflow.data").joinpath("default_library.json").read_bytes()


def load_default_library() -> SynthonLibrary:
    return library_from_dict(json.loads(default_library_bytes().decode("utf-8")))


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FirstSynthon:
    synthon_id: str


@dataclass(frozen=True)
class AddSynthon:
    parent_component: int
    parent_attachment: int
    synthon_id: str
    child_attachment: int


ActionRef = FirstSynthon | AddSynthon


def action_to_dict(action: ActionRef) -> dict:
    if isinstance(action, FirstSynthon):
        return {"type": "first", "synthon_id": action.synthon_id}
    return {
        "type": "add",
        "parent_component": action.parent_component,
        "parent_attachment": action.parent_attachment,
        "synthon_id": action.synthon_id,
        "child_attachment": action.child_attachment,
    }


def action_from_dict(doc: dict) -> ActionRef:
    if doc["type"] == "first":
        return FirstSynthon(synthon_id=str(doc["synthon_id"]))
    if doc["type"] == "add":
        return AddSynthon(
            parent_component=int(doc["parent_component"]),
            parent_attachment=int(doc["parent_attachment"]),
            synthon_id=str(doc["synthon_id"]),
            child_attachment=int(doc["child_attachment"]),
        )
    raise CompositionError(f"unknown action type {doc['type']!r}")


def action_key(action: ActionRef) -> str:
    if isinstance(action, FirstSynthon):
        return f"F({action.synthon_id})"
    return (
        f"A({action.parent_component}.{action.parent_attachment}"
        f">{action.synthon_id}.{action.child_attachment})"
    )


# ---------------------------------------------------------------------------
# Composed objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentInstance:
    synthon_id: str
    parent_component: int | None
    parent_attachment: int | None
    child_attachment: int | None
    t_gen_step: int


@dataclass(frozen=True)
class ComposedObject:
    components: tuple[ComponentInstance, ...] = ()
    states: tuple[np.ndarray, ...] = ()
    self_cond: tuple[np.ndarray, ...] = ()
    open_attachments: tuple[tuple[int, int], ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.components

    @property
    def is_terminal(self) -> bool:
        return bool(self.components) and not self.open_attachments

    def total_points(self, library: SynthonLibrary) -> int:
        return sum(library.get(c.synthon_id).n_points for c in self.components)

    def with_states(
        self,
        states: Sequence[np.ndarray],
        self_cond: Sequence[np.ndarray] | None = None,
    ) -> "ComposedObject":
        new_states = tuple(np.array(s, dtype=np.float64) for s in states)
        if len(new_states) != len(self.components):
            raise CompositionError("states list length must equal component count")
        cond = self.self_cond if self_cond is None else tuple(
            np.array(s, dtype=np.float64) for s in self_cond
        )
        return replace(self, states=new_states, self_cond=cond)

    def to_dict(self, reward: float | None = None) -> dict:
        doc = {
            "components": [
                {
                    "synthon_id": c.synthon_id,
                    "parent_component": c.parent_component,
                    "parent_attachment": c.parent_attachment,
                    "child_attachment": c.child_attachment,
                    "t_gen_step": c.t_gen_step,
                }
                for c in self.components
            ],
            "states": [np.asarray(s).tolist() for s in self.states],
            "open_attachments": [list(o) for o in self.open_attachments],
            "reward": reward,
        }
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ComposedObject":
        components = tuple(
            ComponentInstance(
                synthon_id=c["synthon_id"],
                parent_component=c["parent_component"],
                parent_attachment=c["parent_attachment"],
                child_attachment=c["child_attachment"],
                t_gen_step=int(c["t_gen_step"]),
            )
            for c in doc["components"]
        )
        states = tuple(np.asarray(s, dtype=np.float64) for s in doc["states"])
        return cls(
            components=components,
            states=states,
            self_cond=tuple(np.array(s) for s in states),
            open_attachments=tuple((int(a), int(b)) for a, b in doc["open_attachments"]),
        )


EMPTY_OBJECT = ComposedObject()


@dataclass(frozen=True)
class TrajectoryStep:
    step_index: int
    action: ActionRef
    log_prob: float


@dataclass(frozen=True)
class Trajectory:
    actions: tuple[TrajectoryStep, ...]
    terminal_object: ComposedObject
    reward: float
    log_z_used: float

    def __post_init__(self) -> None:
        if not np.isfinite([s.log_prob for s in self.actions]).all():
            raise CompositionError("trajectory log-probs must be finite")

    @property
    def length(self) -> int:
        return len(self.actions)

    def sequence_key(self) -> str:
        return ";".join(action_key(s.action) for s in self.actions)

    def to_dict(self) -> dict:
        return {
            "actions": [
                {
                    "step_index": s.step_index,
                    "action": action_to_dict(s.action),
                    "log_prob": s.log_prob,
                }
                for s in self.actions
            ],
            "object": self.terminal_object.to_dict(),
            "reward": self.reward,
            "log_z_used": self.log_z_used,
        }


# ---------------------------------------------------------------------------
# Transition
# ---------------------------------------------------------------------------


def initial_state_sample(global_seed: int, points_before: int, m: int) -> np.ndarray:
    """Prior coordinates for a new component under the size-based seed rule."""
    rng = np.random.default_rng(mix64(global_seed, points_before))
    return rng.normal(0.0, SIGMA_PRIOR, size=(m, 2))


def _complementary(k1: str, k2: str) -> bool:
    return {k1, k2} == {"alpha", "beta"}


def transition(
    x: ComposedObject,
    action: ActionRef,
    library: SynthonLibrary,
    sched: Schedule,
    global_seed: int,
    p_max: int | None = None,
) -> ComposedObject:
    """Append the component named by ``action`` and draw its prior state."""
    if x.is_terminal:
        raise CompositionError("transition on terminal object")
    if len(x.components) >= sched.max_components:
        raise CompositionError("transition beyond max_components")

    synthon = library.get(action.synthon_id)
    new_index = len(x.components)
    points_before = x.total_points(library)
    if p_max is not None and points_before + synthon.n_points > p_max:
        raise CompositionError(
            f"point budget exceeded: {points_before} + {synthon.n_points} > {p_max}"
        )

    if isinstance(action, FirstSynthon):
        if not x.is_empty:
            raise CompositionError("FirstSynthon only applies to the empty object")
        if synthon.kind != "brick":
            raise CompositionError("first component must be a brick")
        instance = ComponentInstance(
            synthon_id=synthon.id,
            parent_component=None,
            parent_attachment=None,
            child_attachment=None,
            t_gen_step=0,
        )
        consumed: tuple[int, int] | None = None
        child_attachment = None
    else:
        ref = (action.parent_component, action.parent_attachment)
        if ref not in x.open_attachments:
            raise CompositionError(f"attachment {ref} is not open")
        parent = x.components[action.parent_component]
        parent_klass = library.get(parent.synthon_id).attachments[action.parent_attachment].klass
        child_klass = synthon.attachments[action.child_attachment].klass
        if not _complementary(parent_klass, child_klass):
            raise CompositionError(
                f"incompatible attachment klasses {parent_klass}/{child_klass}"
            )
        instance = ComponentInstance(
            synthon_id=synthon.id,
            parent_component=action.parent_component,
            parent_attachment=action.parent_attachment,
            child_attachment=action.child_attachment,
            t_gen_step=new_index * sched.lam_steps,
        )
        consumed = ref
        child_attachment = action.child_attachment

    s0 = initial_state_sample(global_seed, points_before, synthon.n_points)
    open_attachments = [o for o in x.open_attachments if o != consumed]
    for j in range(len(synthon.attachments)):
        if j != child_attachment:
            open_attachments.append((new_index, j))

    return ComposedObject(
        components=x.components + (instance,),
        states=x.states + (s0,),
        self_cond=x.self_cond + (s0.copy(),),
        open_attachments=tuple(open_attachments),
    )


def replay_actions(
    actions: Iterable[ActionRef],
    library: SynthonLibrary,
    sched: Schedule,
    global_seed: int,
    p_max: int | None = None,
) -> ComposedObject:
    x = EMPTY_OBJECT
    for action in actions:
        x = transition(x, action, library, sched, global_seed, p_max=p_max)
    return x


def recorded_actions(x: ComposedObject) -> list[ActionRef]:
    """Reconstruct the action sequence that built ``x`` in recorded order."""
    actions: list[ActionRef] = []
    for i, comp in enumerate(x.components):
        if i == 0:
            actions.append(FirstSynthon(synthon_id=comp.synthon_id))
        else:
            actions.append(
                AddSynthon(
                    parent_component=comp.parent_component,
                    parent_attachment=comp.parent_attachment,
                    synthon_id=comp.synthon_id,
                    child_attachment=comp.child_attachment,
                )
            )
    return actions


# ---------------------------------------------------------------------------
# Ground-truth layout
# ---------------------------------------------------------------------------


def _rotation(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]], dtype=np.float64)


def ground_truth_layout(
    components: Sequence[ComponentInstance],
    library: SynthonLibrary,
    return_poses: bool = False,
):
    """Deterministic rigid placement of a composition.

    Component 1 is placed with its local frame equal to the world frame.
    Each later component is rotated and translated so that its consumed
    attachment point lands ``BOND_LENGTH`` along the parent attachment
    direction and faces back against it.  With ``return_poses`` the
    per-component rigid poses (rotation, translation) are returned too.
    """
    placements: list[np.ndarray] = []
    poses: list[tuple[np.ndarray, np.ndarray]] = []
    for i, comp in enumerate(components):
        synthon = library.get(comp.synthon_id)
        pts = synthon.points_array()
        if i == 0:
            if synthon.kind != "brick":
                raise CompositionError("first component must be a brick")
            rot = np.eye(2)
            placed = pts.copy()
            shift = np.zeros(2)
        else:
            if comp.parent_component is None or comp.parent_component >= i:
                raise CompositionError("components must reference an earlier parent")
            parent = components[comp.parent_component]
            parent_synthon = library.get(parent.synthon_id)
            p_att = parent_synthon.attachments[comp.parent_attachment]
            p_rot = poses[comp.parent_component][0]
            p_dir = p_rot @ np.asarray(p_att.direction)
            p_pos = placements[comp.parent_component][p_att.point_index]
            target = p_pos + BOND_LENGTH * p_dir

            c_att = synthon.attachments[comp.child_attachment]
            c_dir = np.asarray(c_att.direction)
            angle = np.arctan2(-p_dir[1], -p_dir[0]) - np.arctan2(c_dir[1], c_dir[0])
            rot = _rotation(angle)
            placed = pts @ rot.T
            shift = target - placed[c_att.point_index]
            placed = placed + shift
        placements.append(placed)
        poses.append((rot, shift))
    if return_poses:
        return placements, poses
    return placements


# ---------------------------------------------------------------------------
# Decomposition into valid construction orders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanStep:
    action: ActionRef
    s1: np.ndarray


def _bonds(x: ComposedObject) -> list[tuple[int, int, int, int]]:
    # (parent, child, parent_attachment, child_attachment) in recorded roles
    out = []
    for i, comp in enumerate(x.components):
        if comp.parent_component is not None:
            out.append((comp.parent_component, i, comp.parent_attachment, comp.child_attachment))
    return out


def valid_orders(x: ComposedObject, library: SynthonLibrary) -> list[tuple[int, ...]]:
    """All construction orders: brick first, every later component bonded to the prefix."""
    n = len(x.components)
    if n == 0:
        raise CompositionError("cannot order an empty object")
    adjacency: dict[int, set[int]] = {i: set() for i in range(n)}
    for p, c, _, _ in _bonds(x):
        adjacency[p].add(c)
        adjacency[c].add(p)

    orders: list[tuple[int, ...]] = []

    def extend(order: list[int], placed: set[int]) -> None:
        if len(order) == n:
            orders.append(tuple(order))
            return
        for cand in range(n):
            if cand in placed:
                continue
            if adjacency[cand] & placed:
                order.append(cand)
                placed.add(cand)
                extend(order, placed)
                placed.remove(cand)
                order.pop()

    for root in range(n):
        if library.get(x.components[root].synthon_id).kind == "brick":
            extend([root], {root})
    return sorted(orders)


def plan_for_order(
    x: ComposedObject,
    order: Sequence[int],
    library: SynthonLibrary,
    canonicalize: bool = True,
) -> list[PlanStep]:
    bonds = _bonds(x)
    position = {orig: new for new, orig in enumerate(order)}
    if canonicalize:
        # Re-express stored coordinates in the new root's frame: the
        # generative process always grows objects from an identity-posed
        # first component, so training targets must share that gauge.
        _, poses = ground_truth_layout(x.components, library, return_poses=True)
        rot0, shift0 = poses[order[0]]
    steps: list[PlanStep] = []
    for new_idx, orig in enumerate(order):
        comp = x.components[orig]
        s1 = np.array(x.states[orig], dtype=np.float64)
        if canonicalize:
            s1 = (s1 - shift0) @ rot0
        if new_idx == 0:
            steps.append(PlanStep(FirstSynthon(synthon_id=comp.synthon_id), s1))
            continue
        placed = set(order[:new_idx])
        bond = next(
            b
            for b in bonds
            if (b[0] == orig and b[1] in placed) or (b[1] == orig and b[0] in placed)
        )
        p, c, pa, ca = bond
        if c == orig:
            # recorded roles preserved: orig is still the child
            action = AddSynthon(
                parent_component=position[p],
                parent_attachment=pa,
                synthon_id=comp.synthon_id,
                child_attachment=ca,
            )
        else:
            # bond traversed against the recorded direction: roles swap
            action = AddSynthon(
                parent_component=position[c],
                parent_attachment=ca,
                synthon_id=comp.synthon_id,
                child_attachment=pa,
            )
        steps.append(PlanStep(action, s1))
    return steps


def decompose(
    x: ComposedObject,
    library: SynthonLibrary,
    rng: np.random.Generator | None = None,
    exclude_recorded: bool = False,
    canonicalize: bool = True,
) -> list[PlanStep]:
    """A valid construction order of ``x`` paired with its target coordinates.

    With ``rng=None`` the recorded order is returned.  With an RNG, one order
    is drawn uniformly from all valid orders; ``exclude_recorded`` drops the
    recorded order from the draw whenever an alternative exists.  By default
    coordinates are re-expressed in the chosen root's frame; pass
    ``canonicalize=False`` to keep the stored absolute frame.
    """
    if rng is None:
        order: tuple[int, ...] = tuple(range(len(x.components)))
    else:
        orders = valid_orders(x, library)
        recorded = tuple(range(len(x.components)))
        if exclude_recorded and len(orders) > 1:
            orders = [o for o in orders if o != recorded]
        order = orders[int(rng.integers(len(orders)))]
    return plan_for_order(x, order, library, canonicalize=canonicalize)
