"""Composed objects: component instances, seeded transitions, layouts, orders.

An object is a pair (composition, states): an ordered list of component
instances drawn from a synthon library, plus one read-only (P, 2) matrix of
the components' point coordinates, stacked in component order (P the total
point count).  :func:`component_states` is the one per-component view.
Objects are immutable; :func:`transition` returns a new object.  The initial
coordinates of a freshly added component are drawn from a Gaussian prior
with an RNG seeded by ``(global_seed, point count before the append)`` — the
size-based seed rule that makes the whole sampling process a deterministic
function of the action sequence.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ArtifactError, ConfigError, InvariantError
from .schedule import Schedule
from .seeding import mix64

KLASSES = ("alpha", "beta")
KINDS = ("brick", "linker")

SIGMA_PRIOR = 1.0
BOND_LENGTH = 1.0

# the byte layout of an object's states in JSONL artifacts
STATE_DTYPE = np.dtype("<f8")


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
            raise ConfigError(f"unknown attachment klass {self.klass!r}")
        norm = float(np.hypot(*self.direction))
        if abs(norm - 1.0) > 1e-12:
            raise ConfigError(
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
            raise ConfigError(f"unknown synthon kind {self.kind!r}")
        m = len(self.points)
        if not 2 <= m <= 6:
            raise ConfigError(f"synthon {self.id}: point count {m} outside [2, 6]")
        expected = 1 if self.kind == "brick" else 2
        if len(self.attachments) != expected:
            raise ConfigError(
                f"synthon {self.id}: {self.kind} must have exactly {expected} attachment(s)"
            )
        indices = [a.point_index for a in self.attachments]
        if len(set(indices)) != len(indices):
            raise ConfigError(f"synthon {self.id}: duplicate attachment point_index")
        for idx in indices:
            if not 0 <= idx < m:
                raise ConfigError(f"synthon {self.id}: attachment index {idx} out of range")

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
            raise ConfigError("duplicate synthon ids in library")

    def __iter__(self):
        return iter(self.synthons)

    def __len__(self) -> int:
        return len(self.synthons)

    def get(self, synthon_id: str) -> Synthon:
        for s in self.synthons:
            if s.id == synthon_id:
                return s
        raise InvariantError(f"unknown synthon id {synthon_id!r}")

    def index_of(self, synthon_id: str) -> int:
        for i, s in enumerate(self.synthons):
            if s.id == synthon_id:
                return i
        raise InvariantError(f"unknown synthon id {synthon_id!r}")

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

    @cached_property
    def static_features(self) -> dict:
        """Memo for ``stateflow.featurize_points``: the read-only feature
        columns that depend only on an object's components, keyed on
        ``(max_components, components)``.  Stored on the library object like
        ``point_roles``, so it is freed with the library."""
        return {}

    @cached_property
    def row_layouts(self) -> dict:
        """Memo for :func:`row_layout`, keyed on an object's components.
        Stored on the library object like ``static_features``."""
        return {}

    @cached_property
    def decompositions(self) -> dict:
        """Memo for :func:`decompose`, keyed on an object's components: its
        valid construction orders, the read-only rigid poses of its
        ground-truth layout, and each drawn order's plan actions.  Stored on
        the library object like ``static_features``."""
        return {}


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


def default_library_bytes() -> bytes:
    return resources.files("cgflow.data").joinpath("default_library.json").read_bytes()


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
    raise ArtifactError(f"unknown action type {doc['type']!r}")


def action_key(action: ActionRef) -> str:
    if isinstance(action, FirstSynthon):
        return f"F({action.synthon_id})"
    return (
        f"A({action.parent_component}.{action.parent_attachment}"
        f">{action.synthon_id}.{action.child_attachment})"
    )


def sequence_key(actions: Iterable[ActionRef]) -> str:
    """Key of an action sequence in the oracle table and in sample files."""
    return ";".join(action_key(a) for a in actions)


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


def _frozen_states(states) -> np.ndarray:
    """A read-only float64 copy of ``states`` as one (P, 2) matrix."""
    out = np.array(states, dtype=np.float64)
    if out.ndim != 2 or out.shape[1] != 2:
        raise InvariantError(f"states must be one (P, 2) matrix, got shape {out.shape}")
    out.flags.writeable = False
    return out


NO_STATES = _frozen_states(np.zeros((0, 2)))


@dataclass(frozen=True)
class ComposedObject:
    """Components, their stacked (P, 2) states and self-conditioning (one
    read-only matrix each, rows in component order; an object without
    states holds :data:`NO_STATES`), and the open attachments."""

    components: tuple[ComponentInstance, ...] = ()
    states: np.ndarray = field(default_factory=lambda: NO_STATES)
    self_cond: np.ndarray = field(default_factory=lambda: NO_STATES)
    open_attachments: tuple[tuple[int, int], ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.components

    @property
    def is_terminal(self) -> bool:
        return bool(self.components) and not self.open_attachments

    def total_points(self, library: SynthonLibrary) -> int:
        return sum(library.get(c.synthon_id).n_points for c in self.components)

    def with_states(self, states, self_cond=None) -> "ComposedObject":
        """This composition with read-only copies of ``states`` and, when
        given, ``self_cond`` (each one (P, 2) matrix); a ``self_cond`` that
        is ``states`` itself shares its copy."""
        new = _frozen_states(states)
        if self_cond is None:
            cond = self.self_cond
        else:
            cond = new if self_cond is states else _frozen_states(self_cond)
        return ComposedObject(self.components, new, cond, self.open_attachments)

    def to_dict(self) -> dict:
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
            "states": encode_states(self.states),
            "open_attachments": [list(o) for o in self.open_attachments],
        }
        return doc


class RowLayout(NamedTuple):
    """Where each component's points sit in an object's states matrix."""

    offsets: tuple[int, ...]  # component i owns rows offsets[i]:offsets[i + 1]
    owner: np.ndarray  # read-only component index of each row


def row_layout(components: tuple[ComponentInstance, ...], library: SynthonLibrary) -> RowLayout:
    """The ``library.row_layouts`` entry of ``components``, built on first use."""
    hit = library.row_layouts.get(components)
    if hit is None:
        counts = [library.get(c.synthon_id).n_points for c in components]
        owner = np.repeat(np.arange(len(counts)), counts)
        owner.flags.writeable = False
        hit = library.row_layouts[components] = RowLayout(tuple(np.cumsum([0, *counts]).tolist()), owner)
    return hit


def component_states(x: ComposedObject, i: int, library: SynthonLibrary, self_cond: bool = False) -> np.ndarray:
    """The (m_i, 2) rows of component ``i`` in ``x.states`` (or, with
    ``self_cond``, in ``x.self_cond``): a read-only view."""
    offsets = row_layout(x.components, library).offsets
    rows = x.self_cond if self_cond else x.states
    return rows[offsets[i] : offsets[i + 1]]


def encode_states(states) -> str:
    """The ``states`` text of an object in JSONL artifacts: its (P, 2)
    states matrix (rows in component order) as little-endian float64
    (:data:`STATE_DTYPE`), base64-encoded.  The text stores no per-component
    shape; :func:`decode_states` takes the point count from the components."""
    return base64.b64encode(np.asarray(states, dtype=STATE_DTYPE).tobytes()).decode("ascii")


def decode_states(text: object, n_points: int) -> np.ndarray:
    """The read-only (n_points, 2) states matrix of the :func:`encode_states`
    text of an object, bitwise the encoded values; being read-only, it can
    serve as the self-conditioning too.  Raises ``ArtifactError`` unless
    ``text`` is a base64 string of exactly ``2 * n_points`` finite values.
    """
    if type(text) is not str:
        old = " (the old list-of-rows format)" if type(text) is list else ""
        raise ArtifactError(f"states must be a base64 string, got {type(text).__name__}{old}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or text that is not ASCII
        raise ArtifactError(f"states are not base64: {exc}") from None
    if len(raw) % STATE_DTYPE.itemsize:
        raise ArtifactError(f"states hold {len(raw)} bytes, not a whole number of float64 values")
    want = 2 * n_points
    if len(raw) != want * STATE_DTYPE.itemsize:
        raise ArtifactError(f"states hold {len(raw) // STATE_DTYPE.itemsize} values, want {want} (2 per point)")
    # a view of the immutable bytes (a copy only on a big-endian host)
    state = np.frombuffer(raw, dtype=STATE_DTYPE).astype(np.float64, copy=False).reshape(-1, 2)
    if not np.isfinite(state).all():
        raise ArtifactError("states hold a non-finite value")
    state.flags.writeable = False
    return state


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
            raise InvariantError("trajectory log-probs must be finite")

    @property
    def length(self) -> int:
        return len(self.actions)

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


def complementary(k1: str, k2: str) -> bool:
    """The attachment compatibility rule: one alpha, one beta."""
    return {k1, k2} == {"alpha", "beta"}


def transition(
    x: ComposedObject,
    action: ActionRef,
    library: SynthonLibrary,
    sched: Schedule,
    global_seed: int,
    p_max: int | None = None,
) -> ComposedObject:
    """Append the component named by ``action`` and draw its prior state:
    :func:`grow`'s structural step, then the size-seeded prior draw."""
    instance, open_attachments, points_before, n_points = _attach(x, action, library, sched, p_max)
    s0 = initial_state_sample(global_seed, points_before, n_points)
    states = np.concatenate([x.states, s0])
    states.flags.writeable = False
    # one matrix serves both while they are equal (a replayed prefix)
    cond = states if x.self_cond is x.states else np.concatenate([x.self_cond, s0])
    cond.flags.writeable = False
    return ComposedObject(
        components=x.components + (instance,),
        states=states,
        self_cond=cond,
        open_attachments=open_attachments,
    )


def grow(
    x: ComposedObject,
    action: ActionRef,
    library: SynthonLibrary,
    sched: Schedule,
    p_max: int,
) -> ComposedObject:
    """:func:`transition` without the prior draw, for passes that read only
    the composition: the same checks, components and open attachments, and
    no states (the result holds :data:`NO_STATES`)."""
    instance, open_attachments, _, _ = _attach(x, action, library, sched, p_max)
    return ComposedObject(components=x.components + (instance,), open_attachments=open_attachments)


def _attach(
    x: ComposedObject,
    action: ActionRef,
    library: SynthonLibrary,
    sched: Schedule,
    p_max: int | None,
) -> tuple[ComponentInstance, tuple[tuple[int, int], ...], int, int]:
    """The structural step of a transition: check ``action`` against ``x``;
    return the new component, the open attachments after it, and the point
    counts before it and of its synthon."""
    if x.is_terminal:
        raise InvariantError("transition on terminal object")
    if len(x.components) >= sched.max_components:
        raise InvariantError("transition beyond max_components")

    synthon = library.get(action.synthon_id)
    new_index = len(x.components)
    points_before = x.total_points(library)
    if p_max is not None and points_before + synthon.n_points > p_max:
        raise InvariantError(
            f"point budget exceeded: {points_before} + {synthon.n_points} > {p_max}"
        )

    if isinstance(action, FirstSynthon):
        if not x.is_empty:
            raise InvariantError("FirstSynthon only applies to the empty object")
        if synthon.kind != "brick":
            raise InvariantError("first component must be a brick")
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
            raise InvariantError(f"attachment {ref} is not open")
        parent = x.components[action.parent_component]
        parent_klass = library.get(parent.synthon_id).attachments[action.parent_attachment].klass
        child_klass = synthon.attachments[action.child_attachment].klass
        if not complementary(parent_klass, child_klass):
            raise InvariantError(
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

    open_attachments = [o for o in x.open_attachments if o != consumed]
    for j in range(len(synthon.attachments)):
        if j != child_attachment:
            open_attachments.append((new_index, j))
    return instance, tuple(open_attachments), points_before, synthon.n_points


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
                raise InvariantError("first component must be a brick")
            rot = np.eye(2)
            placed = pts.copy()
            shift = np.zeros(2)
        else:
            if comp.parent_component is None or comp.parent_component >= i:
                raise InvariantError("components must reference an earlier parent")
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


def _bonds(components: Sequence[ComponentInstance]) -> list[tuple[int, int, int, int]]:
    # (parent, child, parent_attachment, child_attachment) in recorded roles
    out = []
    for i, comp in enumerate(components):
        if comp.parent_component is not None:
            out.append((comp.parent_component, i, comp.parent_attachment, comp.child_attachment))
    return out


def valid_orders(x: ComposedObject, library: SynthonLibrary) -> list[tuple[int, ...]]:
    """All construction orders: brick first, every later component bonded to the prefix."""
    n = len(x.components)
    if n == 0:
        raise InvariantError("cannot order an empty object")
    adjacency: dict[int, set[int]] = {i: set() for i in range(n)}
    for p, c, _, _ in _bonds(x.components):
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


def _order_actions(
    components: Sequence[ComponentInstance], order: Sequence[int]
) -> tuple[ActionRef, ...]:
    """The actions that build ``components`` in ``order``."""
    bonds = _bonds(components)
    position = {orig: new for new, orig in enumerate(order)}
    actions: list[ActionRef] = []
    for new_idx, orig in enumerate(order):
        comp = components[orig]
        if new_idx == 0:
            actions.append(FirstSynthon(synthon_id=comp.synthon_id))
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
        actions.append(action)
    return tuple(actions)


def _plan(
    x: ComposedObject,
    order: Sequence[int],
    actions: Sequence[ActionRef],
    root_pose: tuple[np.ndarray, np.ndarray] | None,
    offsets: Sequence[int],
) -> list[PlanStep]:
    """Pair each action with its component's stored state, re-expressed in
    the frame of ``root_pose`` (the new root's rigid pose) when given;
    component ``i`` owns rows ``offsets[i]:offsets[i + 1]`` of the states.
    The product stays per component: a stacked 2-column product would not
    give each component's rows their own bits."""
    steps: list[PlanStep] = []
    for orig, action in zip(order, actions):
        s1 = np.array(x.states[offsets[orig] : offsets[orig + 1]])
        if root_pose is not None:
            rot0, shift0 = root_pose
            s1 = (s1 - shift0) @ rot0
        steps.append(PlanStep(action, s1))
    return steps


def plan_for_order(
    x: ComposedObject,
    order: Sequence[int],
    library: SynthonLibrary,
    canonicalize: bool = True,
) -> list[PlanStep]:
    root_pose = None
    if canonicalize:
        # Re-express stored coordinates in the new root's frame: the
        # generative process always grows objects from an identity-posed
        # first component, so training targets must share that gauge.
        _, poses = ground_truth_layout(x.components, library, return_poses=True)
        root_pose = poses[order[0]]
    offsets = row_layout(x.components, library).offsets
    return _plan(x, order, _order_actions(x.components, order), root_pose, offsets)


class _Decomposition(NamedTuple):
    """The part of :func:`decompose` that depends only on the components."""

    orders: tuple[tuple[int, ...], ...]  # every valid order, recorded one included
    poses: tuple[tuple[np.ndarray, np.ndarray], ...]  # read-only layout poses
    actions: dict  # order -> its plan actions, filled as orders are drawn
    offsets: tuple[int, ...]  # row_layout(components).offsets


def _decomposition(components: tuple[ComponentInstance, ...], library: SynthonLibrary) -> _Decomposition:
    """The ``library.decompositions`` entry of ``components``, built on first use."""
    hit = library.decompositions.get(components)
    if hit is None:
        orders = tuple(valid_orders(ComposedObject(components=components), library))
        _, poses = ground_truth_layout(components, library, return_poses=True)
        for pose in poses:
            for arr in pose:
                arr.flags.writeable = False
        offsets = row_layout(components, library).offsets
        hit = library.decompositions[components] = _Decomposition(orders, tuple(poses), {}, offsets)
    return hit


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

    The orders, the layout poses and each order's actions depend only on
    the components, so they come from ``library.decompositions``; the plan
    is bitwise what :func:`valid_orders` and :func:`plan_for_order` give.
    """
    orders, poses, actions, offsets = _decomposition(x.components, library)
    recorded = tuple(range(len(x.components)))
    if rng is None:
        order = recorded
    else:
        if exclude_recorded and len(orders) > 1:
            orders = tuple(o for o in orders if o != recorded)
        order = orders[int(rng.integers(len(orders)))]
    order_actions = actions.get(order)
    if order_actions is None:
        order_actions = actions[order] = _order_actions(x.components, order)
    return _plan(x, order, order_actions, poses[order[0]] if canonicalize else None, offsets)
