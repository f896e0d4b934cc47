"""Batch entry points: data generation, training, sampling, oracle, evaluate.

Every command is a pure function of (config, seed): given identical inputs
it writes byte-identical artifacts except for wall-clock fields inside
metrics lines.  Output files embed the config hash and the library hash.
Failures exit with a distinct code per error class and print one
machine-readable JSON error record to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import nn, oracle
from .compstate import (
    ComposedObject,
    CompositionError,
    SynthonLibrary,
    default_library_bytes,
    library_from_dict,
)
from .domain import (
    LibraryValidationError,
    RewardParams,
    RuleError,
    RuleSet,
    generate_dataset,
    validate_library,
)
from .gflownet import (
    PolicyHyper,
    PolicyModel,
    sample_trajectory,
    train_policy_ce,
    train_policy_tb,
)
from .nn import NNError, NumericalError, ParamStore, finite_difference_check
from .schedule import Schedule, ScheduleError
from .seeding import mix64
from .stateflow import StateFlowHyper, StateFlowModel, state_loss, train_stateflow
from .nn import Tape

log = logging.getLogger("cgflow")

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_MISSING_FILE = 3
EXIT_NUMERIC = 4
EXIT_INVARIANT = 5


class ConfigError(ValueError):
    pass


class ArtifactError(ValueError):
    """An artifact file exists but cannot be parsed: truncated or corrupt."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


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
        try:
            sched = Schedule(
                lam=float(doc["schedule"]["lambda"]),
                t_window=float(doc["schedule"]["t_window"]),
                n_steps=int(doc["schedule"]["n_steps"]),
                max_components=int(doc["schedule"]["max_components"]),
                integrator_mode=str(doc["schedule"]["integrator_mode"]),
            )
            rules = RuleSet(
                p_max=int(doc["rules"]["p_max"]),
                min_len=int(doc["rules"]["min_len"]),
                max_len=int(doc["rules"]["max_len"]),
            )
            reward = RewardParams(
                anchors=tuple((float(a[0]), float(a[1])) for a in doc["reward"]["anchors"]),
                r_min=float(doc["reward"]["r_min"]),
                temperature=float(doc["reward"]["temperature"]),
                beta=float(doc["reward"]["beta"]),
            )
            sf = StateFlowHyper(
                sigma=float(doc["stateflow"]["sigma"]),
                sigma_data=float(doc["stateflow"]["sigma_data"]),
                batch=int(doc["stateflow"]["batch"]),
                iters=int(doc["stateflow"]["iters"]),
                lr=float(doc["stateflow"]["lr"]),
                self_cond_prob=float(doc["stateflow"]["self_cond_prob"]),
            )
            pol = PolicyHyper(
                batch=int(doc["policy"]["batch"]),
                iters=int(doc["policy"]["iters"]),
                lr=float(doc["policy"]["lr"]),
                lr_log_z=float(doc["policy"]["lr_log_z"]),
                eps_random=float(doc["policy"]["eps_random"]),
                objective=str(doc["policy"]["objective"]),
            )
            if pol.objective not in ("tb", "ce"):
                raise ConfigError(f"policy.objective must be tb or ce, got {pol.objective!r}")
            library_path = str(doc["library"])
            out_dir = str(doc["paths"]["out_dir"])
            if library_path != "default":
                resolved = (base_dir / library_path).resolve()
                if not resolved.exists():
                    raise FileNotFoundError(f"library file not found: {resolved}")
                library_path = str(resolved)
            return cls(
                seed=int(doc["seed"]),
                schedule=sched,
                library_path=library_path,
                rules=rules,
                reward=reward,
                stateflow=sf,
                policy=pol,
                dataset_size=int(doc["dataset_size"]),
                out_dir=str((base_dir / out_dir).resolve()),
            )
        except KeyError as exc:
            raise ConfigError(f"missing config field: {exc}") from exc

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "schedule": {
                "lambda": self.schedule.lam,
                "t_window": self.schedule.t_window,
                "n_steps": self.schedule.n_steps,
                "max_components": self.schedule.max_components,
                "integrator_mode": self.schedule.integrator_mode,
            },
            "library": self.library_path,
            "rules": {
                "p_max": self.rules.p_max,
                "min_len": self.rules.min_len,
                "max_len": self.rules.max_len,
            },
            "reward": {
                "anchors": [list(a) for a in self.reward.anchors],
                "r_min": self.reward.r_min,
                "temperature": self.reward.temperature,
                "beta": self.reward.beta,
            },
            "stateflow": dataclasses.asdict(self.stateflow),
            "policy": dataclasses.asdict(self.policy),
            "dataset_size": self.dataset_size,
            "paths": {"out_dir": self.out_dir},
        }

    def library_bytes(self) -> bytes:
        if self.library_path == "default":
            return default_library_bytes()
        return Path(self.library_path).read_bytes()

    def load_library(self) -> SynthonLibrary:
        return library_from_dict(json.loads(self.library_bytes().decode("utf-8")))

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
    doc = json.loads(path.read_text(encoding="utf-8"))
    if seed_override is not None:
        doc["seed"] = int(seed_override)
    return RunConfig.from_dict(doc, base_dir=path.parent)


def default_config_dict() -> dict:
    return {
        "seed": 20240810,
        "schedule": {
            "lambda": 0.3,
            "t_window": 0.4,
            "n_steps": 20,
            "max_components": 3,
            "integrator_mode": "paper",
        },
        "library": "default",
        "rules": {"p_max": 12, "min_len": 2, "max_len": 3},
        "reward": {
            "anchors": [[-3.5, 0.0], [-1.5, 0.0], [0.5, 0.0], [2.5, 0.0], [4.5, 0.0]],
            "r_min": 0.6,
            "temperature": 0.55,
            "beta": 1.0,
        },
        "stateflow": {
            "sigma": 0.05,
            "sigma_data": 0.05,
            "batch": 64,
            "iters": 2000,
            "lr": 0.005,
            "self_cond_prob": 0.5,
        },
        "policy": {
            "batch": 64,
            "iters": 1500,
            "lr": 0.0001,
            "lr_log_z": 0.001,
            "eps_random": 0.05,
            "objective": "tb",
        },
        "dataset_size": 10000,
        "paths": {"out_dir": "runs/default"},
    }


# ---------------------------------------------------------------------------
# Artifact I/O
# ---------------------------------------------------------------------------


def _write_jsonl(path: Path, meta: dict, rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"record": "meta", **meta}, sort_keys=True) + "\n")
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def read_jsonl(path: str | Path) -> tuple[dict, list[dict]]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"missing artifact: {path}")
    meta: dict = {}
    rows: list[dict] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.endswith("\n"):
                    raise ArtifactError(f"{path}:{lineno}: truncated line (no newline)")
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ArtifactError(f"{path}:{lineno}: corrupt JSONL line: {exc}") from None
                if not isinstance(doc, dict):
                    raise ArtifactError(f"{path}:{lineno}: JSONL line is not an object")
                if doc.get("record") == "meta":
                    meta = doc
                else:
                    rows.append(doc)
    except UnicodeDecodeError as exc:
        raise ArtifactError(f"{path}: not UTF-8 text: {exc}") from None
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


def _load_dataset(config: RunConfig) -> list[ComposedObject]:
    _, rows = read_jsonl(_paths(config)["dataset"])
    return [ComposedObject.from_dict(r) for r in rows]


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
    rows = [obj.to_dict() for obj in data]
    _write_jsonl(_paths(config)["dataset"], config.meta(), rows)
    log.info("wrote %d objects", len(rows))


def cmd_train_stateflow(config: RunConfig) -> None:
    library = config.load_library()
    dataset = _load_dataset(config)
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
        dataset = _load_dataset(config)
        policy, metrics = train_policy_ce(
            dataset, config.schedule, config.rules, library, config.policy, run_seed=config.seed
        )
    else:
        state_model = _load_stateflow(config, library)
        table = oracle.enumerate_sequences(
            config.rules, config.schedule, state_model, library, config.reward, config.seed
        )
        target = oracle.target_distribution(table, config.reward.beta)

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
        )
    policy.store.save(paths["policy_ckpt"], meta=config.meta())
    _write_jsonl(paths["policy_metrics"], config.meta(), metrics)
    log.info("policy trained: %d iterations", len(metrics))


def cmd_sample(config: RunConfig, n: int) -> None:
    library = config.load_library()
    state_model = _load_stateflow(config, library)
    policy = _load_policy(config, library)
    rollout_cache: dict = {}
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
    target = oracle.target_distribution(table, config.reward.beta)
    paths = _paths(config)
    rows = []
    p_model = None
    if paths["policy_ckpt"].exists():
        policy = _load_policy(config, library)
        p_model = oracle.model_distribution(policy, table)
    for i, rec in enumerate(table.records):
        row = {
            "key": rec.key,
            "actions": [dataclasses.asdict(a) | {"type": type(a).__name__} for a in rec.actions],
            "length": len(rec.actions),
            "reward": rec.reward,
            "p_target": float(target[i]),
            "p_uniform": float(oracle.uniform_policy_distribution(table)[i]),
        }
        if p_model is not None:
            row["p_model"] = float(p_model[i])
        rows.append(row)
    summary = {
        "record": "summary",
        "n_sequences": len(table),
        "z_exact": table.z_exact(config.reward.beta),
        "log_z_exact": table.log_z_exact(config.reward.beta),
    }
    if p_model is not None:
        summary["p_model_sum"] = float(p_model.sum())
        summary["tv_model_vs_target"] = oracle.tv_distance(p_model, target)
    _write_jsonl(paths["oracle"], config.meta(), rows + [summary])
    log.info("oracle table: %d sequences, logZ=%.4f", len(table), summary["log_z_exact"])


def cmd_evaluate(config: RunConfig, samples_path: Path, table_path: Path) -> dict:
    _, sample_rows = read_jsonl(samples_path)
    _, table_rows = read_jsonl(table_path)
    summary = next(r for r in table_rows if r.get("record") == "summary")
    seq_rows = [r for r in table_rows if r.get("record") != "summary"]
    keys = [r["key"] for r in seq_rows]
    target = np.array([r["p_target"] for r in seq_rows])

    counts = dict.fromkeys(keys, 0)
    rewards = []
    lengths = []
    for row in sample_rows:
        key = ";".join(
            _action_row_key(a["action"]) for a in row["actions"]
        )
        if key not in counts:
            raise OracleMismatch(f"sampled sequence {key} missing from oracle table")
        counts[key] += 1
        rewards.append(row["reward"])
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
        "log_z_exact": summary["log_z_exact"],
    }
    if "p_model" in seq_rows[0]:
        p_model = np.array([r["p_model"] for r in seq_rows])
        report["tv_model_vs_target"] = oracle.tv_distance(p_model, target)
    paths = _paths(config)
    if paths["policy_ckpt"].exists():
        store, _ = ParamStore.load(paths["policy_ckpt"])
        log_z = float(store.get("log_Z"))
        report["log_z"] = log_z
        report["log_z_error"] = abs(log_z - summary["log_z_exact"])
    report["config_hash"] = config.config_hash()
    report["library_hash"] = config.library_hash()
    out = paths["evaluate"]
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return report


class OracleMismatch(RuntimeError):
    pass


def _action_row_key(action_doc: dict) -> str:
    from .compstate import action_from_dict, action_key

    return action_key(action_from_dict(action_doc))


def cmd_gradcheck(config: RunConfig) -> dict:
    from .compstate import decompose
    from .gflownet import ce_batch, ce_loss_node, tb_loss_node
    from .seeding import rng_from
    from .stateflow import interpolate

    library = config.load_library()
    sched = config.schedule
    rules = config.rules
    data = generate_dataset(64, config.seed, library, rules, sched)
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

    items = ce_batch(data, policy, rules, library, sched, rng_from(config.seed, "ce"), 4)

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
    out = _paths(config)["gradcheck"]
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
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
    except (ConfigError, ScheduleError, RuleError, json.JSONDecodeError) as exc:
        return _fail(EXIT_CONFIG, "invalid-config", str(exc))
    except NumericalError as exc:
        return _fail(EXIT_NUMERIC, "numeric", str(exc))
    except (ArtifactError, NNError) as exc:
        return _fail(EXIT_INVARIANT, "invalid-artifact", str(exc))
    except (oracle.OracleError, OracleMismatch, CompositionError, LibraryValidationError) as exc:
        return _fail(EXIT_INVARIANT, "invariant", str(exc))
    except Exception as exc:  # pragma: no cover - last-resort diagnostics
        return _fail(EXIT_FAILURE, "internal", f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
