"""Batch entry points: data generation, training, sampling, oracle, evaluate.

Every command is a pure function of (config, seed): given identical inputs
it writes byte-identical artifacts except for wall-clock fields inside
metrics lines.  Output files embed the config hash and the library hash.
Failures exit with the code their ``cgflow.errors`` class carries and print
one machine-readable JSON error record to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import re
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import oracle
from .compstate import (
    EMPTY_OBJECT,
    NO_STATES,
    AddSynthon,
    ComponentInstance,
    ComposedObject,
    FirstSynthon,
    SynthonLibrary,
    action_from_dict,
    action_to_dict,
    decode_states,
    default_library_bytes,
    encode_states,
    grow,
    library_from_dict,
    sequence_key,
)
from .domain import RewardParams, RuleSet, generate_dataset, validate_library
from .errors import (
    EXIT_FAILURE,
    EXIT_MISSING_FILE,
    EXIT_NUMERIC,
    EXIT_OK,
    ArtifactError,
    ConfigError,
    InvariantError,
)
from .fileio import atomic_open
from .gflownet import (
    PolicyHyper,
    PolicyModel,
    sample_trajectory,
    train_policy_ce,
    train_policy_tb,
)
from .nn import ParamStore, Tape, finite_difference_check
from .schedule import Schedule
from .seeding import mix64
from .stateflow import StateFlowHyper, StateFlowModel, state_loss, train_stateflow

log = logging.getLogger("cgflow")

# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


# the one section field whose config key differs from its name
_KEY_OF_FIELD = {"lam": "lambda"}
_ANCHORS = tuple[tuple[float, float], ...]


def _fields(kind: type) -> dict[str, str]:
    """Config key -> dataclass field name, for the fields a config sets."""
    return {_KEY_OF_FIELD.get(f.name, f.name): f.name for f in dataclasses.fields(kind) if f.init}


def _object(doc, keys, where: str) -> dict:
    """``doc`` as a JSON object holding exactly ``keys``."""
    if type(doc) is not dict:
        raise ConfigError(f"{where} must be a JSON object, got {doc!r}")
    for problem, names in (("missing", set(keys) - doc.keys()), ("unknown", doc.keys() - set(keys))):
        if names:
            raise ConfigError(f"{problem} config field: {where}.{min(names)}")
    return doc


def _value(value, kind, where: str):
    """Check one config value against its field type: int, float, str or
    anchors.  A float field takes a finite JSON number (an int within float
    range); no field takes a bool."""
    if kind == _ANCHORS:
        if type(value) is not list or any(type(p) is not list or len(p) != 2 for p in value):
            raise ConfigError(f"{where} must be a list of [x, y] pairs, got {value!r}")
        return tuple((_value(p[0], float, where), _value(p[1], float, where)) for p in value)
    if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        return float(value)
    if type(value) is not kind:
        raise ConfigError(f"{where} must be {kind.__name__}, got {value!r}")
    if kind is float and not np.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return value


def _sections() -> dict[str, type]:
    """The config's sections: the ``RunConfig`` fields that are dataclasses."""
    hints = typing.get_type_hints(RunConfig)
    return {name: kind for name, kind in hints.items() if dataclasses.is_dataclass(kind)}


def _section(kind: type, doc, name: str):
    keys = _fields(kind)
    _object(doc, keys, name)
    hints = typing.get_type_hints(kind)
    values = {field: _value(doc[key], hints[field], f"{name}.{key}") for key, field in keys.items()}
    return kind(**values)


def _section_dict(section) -> dict:
    values = {key: getattr(section, field) for key, field in _fields(type(section)).items()}
    return {key: [list(p) for p in v] if isinstance(v, tuple) else v for key, v in values.items()}


@dataclass(frozen=True)
class RunConfig:
    seed: int
    schedule: Schedule
    library_path: str
    rules: RuleSet
    reward: RewardParams
    stateflow: StateFlowHyper
    policy: PolicyHyper
    dataset_size: int
    out_dir: str

    @classmethod
    def from_dict(cls, doc: dict, base_dir: Path) -> "RunConfig":
        """Parse a run-config document.  Every field is required; a missing,
        unknown or mistyped field raises ``ConfigError``."""
        sections = _sections()
        _object(doc, ["seed", "library", "dataset_size", "paths", *sections], "config")
        paths = _object(doc["paths"], ["out_dir"], "paths")
        library_path = _value(doc["library"], str, "library")
        out_dir = _value(paths["out_dir"], str, "paths.out_dir")
        if library_path != "default":
            resolved = (base_dir / library_path).resolve()
            if not resolved.exists():
                raise FileNotFoundError(f"library file not found: {resolved}")
            if not resolved.is_file():
                raise ConfigError(f"library path is not a file: {resolved}")
            library_path = str(resolved)
        return cls(
            seed=_value(doc["seed"], int, "seed"),
            library_path=library_path,
            dataset_size=_value(doc["dataset_size"], int, "dataset_size"),
            out_dir=str((base_dir / out_dir).resolve()),
            **{name: _section(kind, doc[name], name) for name, kind in sections.items()},
        )

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "library": self.library_path,
            "dataset_size": self.dataset_size,
            "paths": {"out_dir": self.out_dir},
            **{name: _section_dict(getattr(self, name)) for name in _sections()},
        }

    def library_bytes(self) -> bytes:
        if self.library_path == "default":
            return default_library_bytes()
        return Path(self.library_path).read_bytes()

    def load_library(self) -> SynthonLibrary:
        try:
            return library_from_dict(json.loads(self.library_bytes().decode("utf-8")))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed synthon library: {type(exc).__name__}: {exc}") from None

    def config_hash(self) -> str:
        doc = self.to_dict()
        doc["paths"] = {}
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()[:16]

    def library_hash(self) -> str:
        return hashlib.sha256(self.library_bytes()).hexdigest()[:16]

    def meta(self) -> dict:
        return {"config_hash": self.config_hash(), "library_hash": self.library_hash()}


def load_config(path: str | Path, seed_override: int | None = None) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    if not path.is_file():
        raise ConfigError(f"config path is not a file: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"{path}: unreadable config: {exc}") from None
    config = RunConfig.from_dict(doc, base_dir=path.parent)
    if seed_override is not None:
        config = dataclasses.replace(config, seed=seed_override)
    return config


# ---------------------------------------------------------------------------
# Artifact I/O
# ---------------------------------------------------------------------------


def _write_jsonl(path: Path, meta: dict, rows: typing.Iterable[dict]) -> None:
    _write_lines(path, meta, (json.dumps(row, sort_keys=True) for row in rows))


def _write_lines(path: Path, meta: dict, lines: typing.Iterable[str]) -> None:
    """The meta record, then ``lines`` (JSON text without the newline),
    written one line at a time."""
    with atomic_open(path) as fh:
        fh.write((json.dumps({"record": "meta", **meta}, sort_keys=True) + "\n").encode("utf-8"))
        for line in lines:
            fh.write((line + "\n").encode("utf-8"))


def _write_json(path: Path, doc: dict) -> None:
    with atomic_open(path) as fh:
        fh.write((json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def iter_lines(path: str | Path) -> typing.Iterator[tuple[int, str]]:
    """``(line number, text)`` for each line of a JSONL artifact, newline
    kept, read one line at a time; a cut last line or text that is not
    UTF-8 raises ``ArtifactError``."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"missing artifact: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.endswith("\n"):
                    raise ArtifactError(f"{path}:{lineno}: truncated line (no newline)")
                yield lineno, line
    except UnicodeDecodeError as exc:
        raise ArtifactError(f"{path}: not UTF-8 text: {exc}") from None


def parse_line(path: str | Path, lineno: int, line: str) -> dict:
    """The JSON object on one line of a JSONL artifact; a line that is not
    JSON or not an object raises ``ArtifactError``."""
    try:
        doc = json.loads(line)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, an int past the digit limit, deep nesting
        raise ArtifactError(f"{path}:{lineno}: corrupt JSONL line: {type(exc).__name__}: {exc}") from None
    if not isinstance(doc, dict):
        raise ArtifactError(f"{path}:{lineno}: JSONL line is not an object")
    return doc


def iter_jsonl(path: str | Path) -> typing.Iterator[tuple[int, dict]]:
    """``(line number, object)`` for each line of a JSONL artifact:
    :func:`iter_lines` parsed by :func:`parse_line`."""
    for lineno, line in iter_lines(path):
        yield lineno, parse_line(path, lineno, line)


def read_jsonl(path: str | Path) -> tuple[dict, list[dict]]:
    """The meta record and the other rows of a JSONL artifact."""
    meta: dict = {}
    rows: list[dict] = []
    for _, doc in iter_jsonl(path):
        if doc.get("record") == "meta":
            meta = doc
        else:
            rows.append(doc)
    return meta, rows


def _paths(config: RunConfig) -> dict[str, Path]:
    out = Path(config.out_dir)
    return {
        "dataset": out / "dataset.jsonl",
        "stateflow_ckpt": out / "stateflow.ckpt",
        "stateflow_metrics": out / "stateflow_metrics.jsonl",
        "policy_ckpt": out / "policy.ckpt",
        "policy_metrics": out / "policy_metrics.jsonl",
        "samples": out / "samples.jsonl",
        "oracle": out / "oracle.jsonl",
        "evaluate": out / "evaluate.json",
        "gradcheck": out / "gradcheck.json",
    }


def _composition(
    key: tuple, library: SynthonLibrary, config: RunConfig
) -> tuple[tuple[ComponentInstance, ...], tuple[tuple[int, int], ...], int]:
    """Components, open attachments and point count of a dataset row's
    composition ``key`` (its component fields and open attachments),
    checked by replaying the components through ``grow`` under the config's
    schedule and point budget.  Raises ``ArtifactError`` unless the row
    records exactly what the replay builds and the object is terminal."""
    fields, opens = key
    if not fields:
        raise ArtifactError("object has no components")
    x = EMPTY_OBJECT
    try:
        for i, (synthon_id, parent, parent_att, child_att, _) in enumerate(fields):
            if i == 0:
                action = FirstSynthon(synthon_id=synthon_id)
            elif not all(type(v) is int for v in (parent, parent_att, child_att)):
                raise InvariantError(f"component {i}: parent and attachment indices must be integers")
            elif not 0 <= child_att < len(library.get(synthon_id).attachments):
                raise InvariantError(f"component {i}: child attachment {child_att} out of range")
            else:
                action = AddSynthon(parent, parent_att, synthon_id, child_att)
            x = grow(x, action, library, config.schedule, config.rules.p_max)
    except InvariantError as exc:
        raise ArtifactError(f"composition does not replay: {exc}") from None
    replayed = tuple(dataclasses.astuple(c) for c in x.components)
    if repr(replayed) != repr(fields):  # repr tells 6 from 6.0 and 0 from false, as == does not
        raise ArtifactError("components differ from their replay (parents, attachments or t_gen_step)")
    if x.open_attachments != opens:
        raise ArtifactError(f"open attachments {list(opens)} != {list(x.open_attachments)} of the replay")
    if not x.is_terminal:
        raise ArtifactError(f"object is not terminal: open attachments {list(opens)}")
    return x.components, x.open_attachments, x.total_points(library)


# a dataset line's head is its text up to and including the last of these;
# ``_load_dataset`` memoises each composition under the heads of its lines
_STATES_KEY = '"states": '
# a tail that ``json.loads`` reads as just this base64 string and the end
# of the object
_STATES_TAIL = re.compile(r'"([A-Za-z0-9+/=]*)"}\n')


def _states_tail_of(doc: dict, head: str, line: str) -> bool:
    """Whether ``line`` (which parses to ``doc``) is ``head``, then its
    states text as a JSON string, then the closing brace, and the string
    after ``head`` is the value of the object's ``states`` key; then
    ``head`` followed by any other base64 string and the brace parses to
    ``doc`` with that string as its states.  The second parse rules out a
    head whose last ``"states": `` is not the key ``json.loads`` reads."""
    text = doc["states"]
    if type(text) is not str or not text or line[len(head):] != f'"{text}"}}\n':
        return False
    return json.loads(head + '""}') == {**doc, "states": ""}


def _load_dataset(config: RunConfig, library: SynthonLibrary) -> list[ComposedObject]:
    """Dataset objects, read one line at a time.

    A line's head is its text up to and including the last ``"states": ``.
    The first line with a given head goes through ``json.loads``; each
    distinct composition is checked once (``_composition``).  If that
    line's tail is just its states string and the closing brace, as every
    line ``gen-data`` writes ends, the head is stored with the composition.
    A later line with that head whose tail is a base64 string and the brace
    is that composition with that states text, which is what ``json.loads``
    would give, so it skips the parse; any other line is parsed.  Each
    row's states text is decoded once (``compstate.decode_states``) and must
    hold one finite (x, y) row per point of its components' synthons.
    """
    path = _paths(config)["dataset"]
    compositions: dict[str, tuple] = {}  # repr of a row's composition fields -> _composition
    heads: dict[str, tuple] = {}  # line head -> _composition
    data: list[ComposedObject] = []
    for lineno, line in iter_lines(path):
        cut = line.rfind(_STATES_KEY) + len(_STATES_KEY)
        head = line[:cut] if cut >= len(_STATES_KEY) else None
        composition = heads.get(head)
        tail = _STATES_TAIL.fullmatch(line, cut) if composition is not None else None
        doc = None
        if tail is None:
            doc = parse_line(path, lineno, line)
            if doc.get("record") == "meta":
                continue
        try:
            if doc is None:
                text = tail.group(1)
            else:
                composition, text = _row_composition(doc, compositions, library, config)
            components, open_attachments, n_points = composition
            states = decode_states(text, n_points)
        except ArtifactError as exc:
            raise ArtifactError(f"{path}: object row {len(data) + 1}: {exc}") from None
        if doc is not None and head is not None and head not in heads and _states_tail_of(doc, head, line):
            heads[head] = composition
        data.append(ComposedObject(components, states, states, open_attachments))
    if not data:
        raise ArtifactError(f"{path}: dataset has no object rows")
    return data


def _row_composition(doc: dict, memo: dict, library: SynthonLibrary, config: RunConfig) -> tuple[tuple, object]:
    """A parsed dataset row's checked composition (``_composition``,
    memoised in ``memo``) and its states field.  The memo is keyed on the
    ``repr`` of the row's composition fields, which tells ``0`` from
    ``0.0`` and ``false`` as equality does not."""
    try:
        key = (
            tuple(
                (c["synthon_id"], c["parent_component"], c["parent_attachment"],
                 c["child_attachment"], c["t_gen_step"])
                for c in doc["components"]
            ),
            tuple(tuple(o) for o in doc["open_attachments"]),
        )
        text = doc["states"]
        memo_key = repr(key)
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ArtifactError(f"malformed: {type(exc).__name__}: {exc}") from None
    composition = memo.get(memo_key)
    if composition is None:
        composition = memo[memo_key] = _composition(key, library, config)
    return composition, text


def _load_stateflow(config: RunConfig, library: SynthonLibrary) -> StateFlowModel:
    store, _ = ParamStore.load(_paths(config)["stateflow_ckpt"])
    return StateFlowModel(store=store, sched=config.schedule, library=library)


def _load_policy(config: RunConfig, library: SynthonLibrary) -> PolicyModel:
    store, _ = ParamStore.load(_paths(config)["policy_ckpt"])
    return PolicyModel(store=store, sched=config.schedule, library=library)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen_data(config: RunConfig) -> None:
    library = config.load_library()
    validate_library(library, config.rules, config.schedule)
    data = generate_dataset(
        config.dataset_size,
        config.seed,
        library,
        config.rules,
        config.schedule,
        sigma_data=config.stateflow.sigma_data,
    )
    heads: dict[tuple, str] = {}

    def lines() -> typing.Iterator[str]:
        # each line is json.dumps(obj.to_dict(), sort_keys=True); "states"
        # sorts last, so a line is its composition's text up to the states
        # value, made once per composition, then the states string
        for obj in data:
            key = (obj.components, obj.open_attachments)
            head = heads.get(key)
            if head is None:
                text = json.dumps(dataclasses.replace(obj, states=NO_STATES).to_dict(), sort_keys=True)
                head = heads[key] = text[: -len('""}')]
            yield head + json.dumps(encode_states(obj.states)) + "}"

    _write_lines(_paths(config)["dataset"], config.meta(), lines())
    log.info("wrote %d objects", len(data))


def cmd_train_stateflow(config: RunConfig) -> None:
    library = config.load_library()
    dataset = _load_dataset(config, library)
    model, metrics = train_stateflow(
        dataset, config.schedule, library, config.stateflow, run_seed=config.seed
    )
    paths = _paths(config)
    model.store.save(paths["stateflow_ckpt"], meta=config.meta())
    _write_jsonl(paths["stateflow_metrics"], config.meta(), metrics)
    log.info("final running loss %.5f", metrics[-1]["running_loss"])


def cmd_train_policy(config: RunConfig) -> None:
    library = config.load_library()
    paths = _paths(config)
    if config.policy.objective == "ce":
        dataset = _load_dataset(config, library)
        policy, metrics = train_policy_ce(
            dataset, config.schedule, config.rules, library, config.policy, run_seed=config.seed
        )
    else:
        state_model = _load_stateflow(config, library)
        # the probe's table integrates every segment TB can sample; TB
        # starts from those rollouts
        rollout_cache: dict = {}
        table = oracle.enumerate_sequences(
            config.rules, config.schedule, state_model, library, config.reward, config.seed,
            rollout_cache=rollout_cache,
        )
        target = oracle.target_distribution(table)

        def probe(policy: PolicyModel) -> float:
            return oracle.tv_distance(oracle.model_distribution(policy, table), target)

        policy, metrics = train_policy_tb(
            state_model,
            config.schedule,
            config.rules,
            library,
            config.reward,
            config.policy,
            run_seed=config.seed,
            tv_probe=probe,
            rollout_cache=rollout_cache,
        )
    policy.store.save(paths["policy_ckpt"], meta=config.meta())
    _write_jsonl(paths["policy_metrics"], config.meta(), metrics)
    log.info("policy trained: %d iterations", len(metrics))


def cmd_sample(config: RunConfig, n: int) -> None:
    library = config.load_library()
    state_model = _load_stateflow(config, library)
    policy = _load_policy(config, library)
    # the state flow and the policy are both frozen for the whole call, so
    # one rollout cache, one prefix-node memo and one policy table serve
    # every trajectory
    rollout_cache: dict = {}
    node_memo: dict = {}
    policy_table: dict = {}
    rows = [
        sample_trajectory(
            policy,
            state_model,
            config.schedule,
            config.rules,
            library,
            config.reward,
            global_seed=config.seed,
            traj_seed=mix64(config.seed, "sample", j),
            eps_random=0.0,
            rollout_cache=rollout_cache,
            node_memo=node_memo,
            policy_table=policy_table,
        ).trajectory.to_dict()
        for j in range(n)
    ]
    _write_jsonl(_paths(config)["samples"], config.meta(), rows)
    log.info("wrote %d samples", n)


def cmd_oracle(config: RunConfig) -> None:
    library = config.load_library()
    state_model = _load_stateflow(config, library)
    table = oracle.enumerate_sequences(
        config.rules, config.schedule, state_model, library, config.reward, config.seed
    )
    target = oracle.target_distribution(table)
    paths = _paths(config)
    rows = []
    p_model = None
    if paths["policy_ckpt"].exists():
        policy = _load_policy(config, library)
        p_model = oracle.model_distribution(policy, table)
    for i, rec in enumerate(table.records):
        row = {
            "key": rec.key,
            "actions": [action_to_dict(a) for a in rec.actions],
            "length": len(rec.actions),
            "reward": float(np.exp(rec.log_reward)),
            "p_target": float(target[i]),
            "p_uniform": float(oracle.uniform_policy_distribution(table)[i]),
        }
        if p_model is not None:
            row["p_model"] = float(p_model[i])
        rows.append(row)
    summary = {
        "record": "summary",
        "n_sequences": len(table),
        "z_exact": table.z_exact(),
        "log_z_exact": table.log_z_exact(),
    }
    if p_model is not None:
        summary["p_model_sum"] = float(p_model.sum())
        summary["tv_model_vs_target"] = oracle.tv_distance(p_model, target)
    _write_jsonl(paths["oracle"], config.meta(), rows + [summary])
    log.info("oracle table: %d sequences, logZ=%.4f", len(table), summary["log_z_exact"])


def cmd_evaluate(config: RunConfig, samples_path: Path, table_path: Path) -> dict:
    _, sample_rows = read_jsonl(samples_path)
    _, table_rows = read_jsonl(table_path)
    summary = next((r for r in table_rows if r.get("record") == "summary"), None)
    if summary is None:
        raise ArtifactError(f"{table_path}: oracle table has no summary record")
    seq_rows = [r for r in table_rows if r.get("record") != "summary"]
    if not seq_rows:
        raise ArtifactError(f"{table_path}: oracle table has no sequence rows")
    try:
        log_z_exact = float(summary["log_z_exact"])
        keys = [r["key"] for r in seq_rows]
        target = np.array([float(r["p_target"]) for r in seq_rows])
        p_model = None
        if "p_model" in seq_rows[0]:
            p_model = np.array([float(r["p_model"]) for r in seq_rows])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ArtifactError(f"{table_path}: malformed oracle table: {type(exc).__name__}: {exc}") from None
    bad_keys = [k for k in keys if type(k) is not str]
    if bad_keys:
        raise ArtifactError(f"{table_path}: malformed oracle table: sequence key {bad_keys[0]!r} is not a string")

    counts = dict.fromkeys(keys, 0)
    rewards = []
    lengths = []
    for row in sample_rows:
        try:
            key = sequence_key(action_from_dict(a["action"]) for a in row["actions"])
            reward = float(row["reward"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ArtifactError(f"{samples_path}: malformed sample row: {type(exc).__name__}: {exc}") from None
        if key not in counts:
            raise InvariantError(f"sampled sequence {key} missing from oracle table")
        counts[key] += 1
        rewards.append(reward)
        lengths.append(len(row["actions"]))
    empirical = np.array([counts[k] for k in keys], dtype=np.float64)
    empirical /= max(1, len(sample_rows))

    report: dict = {
        "n_samples": len(sample_rows),
        "tv_empirical_vs_target": oracle.tv_distance(empirical, target),
        "mean_reward": float(np.mean(rewards)) if rewards else None,
        "length_histogram": {
            str(n): int(sum(1 for v in lengths if v == n)) for n in sorted(set(lengths))
        },
        "log_z_exact": log_z_exact,
    }
    if p_model is not None:
        report["tv_model_vs_target"] = oracle.tv_distance(p_model, target)
    paths = _paths(config)
    if paths["policy_ckpt"].exists():
        store, _ = ParamStore.load(paths["policy_ckpt"])
        log_z = float(store.get("log_Z"))
        report["log_z"] = log_z
        report["log_z_error"] = abs(log_z - log_z_exact)
    report["config_hash"] = config.config_hash()
    report["library_hash"] = config.library_hash()
    _write_json(paths["evaluate"], report)
    return report


def cmd_gradcheck(config: RunConfig) -> dict:
    from .compstate import decompose
    from .gflownet import ce_batch, ce_loss_node, tb_loss_node
    from .seeding import rng_from
    from .stateflow import interpolate

    library = config.load_library()
    sched = config.schedule
    rules = config.rules
    data = generate_dataset(64, config.seed, library, rules, sched, sigma_data=config.stateflow.sigma_data)
    sf = StateFlowModel.create(sched, library, seed=config.seed + 1)
    policy = PolicyModel.create(sched, library, seed=config.seed + 2)
    rng = rng_from(config.seed, "gradcheck")

    batch = []
    for _ in range(4):
        obj = data[int(rng.integers(len(data)))]
        plan = decompose(obj, library, rng=rng)
        batch.append(
            interpolate(plan, int(rng.integers(1, sched.n_steps + 1)), 0.05, sched, library, rng, int(rng.integers(1 << 63)))
        )

    def build_state(tape: Tape) -> int:
        return state_loss(sf, tape, batch)

    results = {}
    results["state_loss"] = finite_difference_check(build_state, sf.store, rng_from(config.seed, "fd1"))

    def build_tb(tape: Tape) -> int:
        sampled = sample_trajectory(
            policy, sf, sched, rules, library, config.reward,
            global_seed=config.seed, traj_seed=17, eps_random=0.0, tape=tape,
        )
        return tb_loss_node(tape, sampled)

    results["tb_loss"] = finite_difference_check(build_tb, policy.store, rng_from(config.seed, "fd2"))

    items = ce_batch(data, rules, library, sched, rng_from(config.seed, "ce"), 4)

    def build_ce(tape: Tape) -> int:
        return ce_loss_node(tape, policy, items)

    results["ce_loss"] = finite_difference_check(build_ce, policy.store, rng_from(config.seed, "fd3"))

    report = {
        "max_rel_err": results,
        "tolerance": 1e-4,
        "pass": all(v < 1e-4 for v in results.values()),
        "config_hash": config.config_hash(),
        "library_hash": config.library_hash(),
    }
    _write_json(_paths(config)["gradcheck"], report)
    return report


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _setup_logging() -> None:
    level = os.environ.get("CGFLOW_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(
        level=levels.get(level, logging.ERROR),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgflow",
        description="Compositional generative flows on the planar synthon toy domain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to run-config JSON")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")

    for name in ("gen-data", "train-stateflow", "train-policy", "oracle", "gradcheck"):
        common(sub.add_parser(name))
    p_sample = sub.add_parser("sample")
    common(p_sample)
    p_sample.add_argument("-n", type=int, default=1000, help="number of trajectories")
    p_eval = sub.add_parser("evaluate")
    common(p_eval)
    p_eval.add_argument("--samples", default=None, help="samples JSONL path")
    p_eval.add_argument("--table", default=None, help="oracle table JSONL path")
    return parser


def _fail(code: int, kind: str, message: str) -> int:
    record = {"error": {"code": code, "kind": kind, "message": message}}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, seed_override=args.seed)
        if args.out is not None:
            config = dataclasses.replace(config, out_dir=str(Path(args.out).resolve()))
        if args.command == "gen-data":
            cmd_gen_data(config)
        elif args.command == "train-stateflow":
            cmd_train_stateflow(config)
        elif args.command == "train-policy":
            cmd_train_policy(config)
        elif args.command == "sample":
            cmd_sample(config, n=args.n)
        elif args.command == "oracle":
            cmd_oracle(config)
        elif args.command == "evaluate":
            paths = _paths(config)
            samples = Path(args.samples) if args.samples else paths["samples"]
            table = Path(args.table) if args.table else paths["oracle"]
            report = cmd_evaluate(config, samples, table)
            print(json.dumps(report, indent=2, sort_keys=True))
        elif args.command == "gradcheck":
            report = cmd_gradcheck(config)
            print(json.dumps(report, indent=2, sort_keys=True))
            if not report["pass"]:
                return _fail(EXIT_NUMERIC, "gradcheck", "gradient check failed")
        return EXIT_OK
    except FileNotFoundError as exc:
        return _fail(EXIT_MISSING_FILE, "missing-file", str(exc))
    except InvariantError as exc:
        return _fail(exc.code, exc.kind, str(exc))
    except Exception as exc:  # pragma: no cover - last-resort diagnostics
        return _fail(EXIT_FAILURE, "internal", f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
