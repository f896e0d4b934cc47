"""cgflow benchmark: drives the public CLI in-process on generated configs.

Run from the repository root::

    python3 perfbench/run.py --workload tb-default --seed 1 --seconds 30 --trace 0

Each run builds a config from ``configs/default.json`` plus the workload's
overrides and the given seed, runs the workload's set-up stages three times
(``setup_s`` is their median), then repeats the timed stages until
``--seconds`` have passed (at least two repetitions, whose artifacts must be
byte-identical).  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` repetitions alternate untraced and
traced, and the line carries per-layer metrics from the traced ones.  The
line before it is a report with the host record, every stage throughput
under its own name, quality readouts and workload properties.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads: every model here is a chain of
# small matmuls, which a BLAS thread pool only slows down.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["CGFLOW_LOG"] = "error"

import argparse
import contextlib
import copy
import ctypes
import glob
import gzip
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_REPS = 3
MIN_REPS = 2


def import_cgflow() -> None:
    """Import the package from this checkout's ``src``, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "cgflow" / "cli.py").is_file() or not (ROOT / "configs" / "default.json").is_file():
        raise SystemExit(f"perfbench: no cgflow sources under {ROOT} (need src/cgflow and configs/default.json)")
    sys.path.insert(0, str(src))
    import cgflow.cli

    if Path(cgflow.cli.__file__).resolve().parent != (src / "cgflow").resolve():
        raise SystemExit(f"perfbench: imported cgflow from {cgflow.cli.__file__}, not from {src}")


import_cgflow()
import numpy as np  # noqa: E402  (after the thread pins)
from cgflow import cli  # noqa: E402
from cgflow.compstate import EMPTY_OBJECT, transition  # noqa: E402
from cgflow.domain import action_space  # noqa: E402
from tracing import Tracer, per_layer_metrics, stage_span_name  # noqa: E402


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """Config overrides, set-up stages and the timed stages of one workload.

    ``reported`` names the timed stages whose throughput the report lists;
    ``bounded`` names the two of them that become ``lead_stage_per_s`` and
    ``second_stage_per_s``.  With ``setup_overrides`` the set-up runs as a
    warm-up on its own config and output directory.
    """

    name: str
    overrides: dict
    setup: tuple[tuple[str, ...], ...]
    timed: tuple[tuple[str, ...], ...]
    bounded: tuple[str, str]
    reported: tuple[str, ...]
    setup_overrides: dict | None = None


_CE = {"objective": "ce", "lr": 1e-3}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tb-default",
            overrides={"dataset_size": 1000, "stateflow": {"iters": 30}, "policy": {"iters": 6}},
            setup=(("gen-data",), ("train-stateflow",)),
            timed=(("train-policy",), ("sample", "-n", "200"), ("oracle",), ("evaluate",)),
            bounded=("train-policy", "sample"),
            reported=("train-policy", "sample"),
        ),
        Workload(
            name="oracle-wide",
            overrides={
                "dataset_size": 1000,
                "schedule": {"lambda": 0.1, "max_components": 8},
                "rules": {"max_len": 7, "p_max": 18},
                "stateflow": {"iters": 30},
                "policy": {"iters": 10, **_CE},
            },
            setup=(("gen-data",), ("train-stateflow",), ("train-policy",)),
            timed=(("oracle",), ("sample", "-n", "256"), ("evaluate",)),
            bounded=("oracle", "sample"),
            reported=("oracle", "sample"),
        ),
        Workload(
            name="dataset-fit",
            overrides={"stateflow": {"iters": 20}, "policy": {"iters": 12, **_CE}},
            setup=(("gen-data",), ("train-stateflow",), ("train-policy",)),
            setup_overrides={"dataset_size": 200, "stateflow": {"iters": 4}, "policy": {"iters": 4, **_CE}},
            timed=(("gen-data",), ("train-stateflow",), ("train-policy",)),
            bounded=("train-stateflow", "train-policy"),
            reported=("gen-data", "train-stateflow", "train-policy"),
        ),
    )
}

ARTIFACTS = {
    "gen-data": ("dataset.jsonl",),
    "train-stateflow": ("stateflow.ckpt", "stateflow_metrics.jsonl"),
    "train-policy": ("policy.ckpt", "policy_metrics.jsonl"),
    "sample": ("samples.jsonl",),
    "oracle": ("oracle.jsonl",),
    "evaluate": ("evaluate.json",),
}


def merge(base: dict, overrides: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in overrides.items():
        out[key] = merge(out[key], value) if isinstance(value, dict) else value
    return out


def write_config(work: Path, sub: str, seed: int, overrides: dict) -> tuple[Path, dict]:
    doc = json.loads((ROOT / "configs" / "default.json").read_text(encoding="utf-8"))
    doc = merge(doc, overrides)
    doc["seed"] = seed
    out_dir = work / sub
    out_dir.mkdir(parents=True, exist_ok=True)
    doc["paths"]["out_dir"] = str(out_dir)
    path = work / f"{sub}.json"
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return path, doc


def stage_work(stage: tuple[str, ...], doc: dict, seq_space: int) -> tuple[str, int]:
    """(metric name, items processed) for one stage of the pipeline."""
    cmd = stage[0]
    if cmd == "gen-data":
        return "gen_data_obj_per_s", doc["dataset_size"]
    if cmd == "train-stateflow":
        return "train_stateflow_samples_per_s", doc["stateflow"]["iters"] * doc["stateflow"]["batch"]
    if cmd == "train-policy":
        kind = "train_tb_traj_per_s" if doc["policy"]["objective"] == "tb" else "train_ce_objects_per_s"
        return kind, doc["policy"]["iters"] * doc["policy"]["batch"]
    if cmd == "sample":
        return "sample_traj_per_s", int(stage[stage.index("-n") + 1])
    if cmd == "oracle":
        return "oracle_seq_per_s", seq_space
    raise ValueError(f"no throughput defined for stage {cmd!r}")


def count_sequences(config_path: Path) -> int:
    """Size of the action-sequence space, by symbolic enumeration."""
    config = cli.load_config(config_path)
    library = config.load_library()

    def walk(x) -> int:
        if x.is_terminal:
            return 1
        return sum(
            walk(transition(x, a, library, config.schedule, 0, p_max=config.rules.p_max))
            for a in action_space(x, config.rules, library)
        )

    return walk(EMPTY_OBJECT)


# ---------------------------------------------------------------------------
# Running stages and checking their outputs
# ---------------------------------------------------------------------------


def digest(path: Path) -> str:
    if path.suffix == ".jsonl" and path.stem.endswith("_metrics"):
        # metrics lines must match except for their wall-clock field
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        for row in rows:
            row.pop("wall_ms", None)
        data = json.dumps(rows, sort_keys=True).encode("utf-8")
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def jsonl_rows(path: Path) -> list[dict]:
    """Data rows of a JSONL artifact, without its meta record."""
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    return [r for r in rows if r.get("record") != "meta"]


@dataclass
class Rep:
    stage_s: dict[str, float] = field(default_factory=dict)
    wall_s: float = 0.0
    digests: dict[str, str] = field(default_factory=dict)
    artifact_bytes: int = 0
    traced: bool = False


@dataclass
class Ledger:
    """Operations attempted and failed, with a message per failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok


def run_stages(stages, config_path: Path, out_dir: Path, ledger: Ledger, tracer: Tracer | None) -> Rep | None:
    """Run stages in order through ``cli.main``; None if one exits non-zero."""
    rep = Rep(traced=tracer is not None)
    start = time.perf_counter()
    for stage in stages:
        argv = [stage[0], "--config", str(config_path), *stage[1:]]
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            if tracer is None:
                code = cli.main(argv)
            else:
                tracer.begin_stage(stage[0])
                with tracer.span(stage_span_name(stage[0])):
                    code = cli.main(argv)
        rep.stage_s[stage[0]] = time.perf_counter() - t0
        if not ledger.check(code == 0, f"{stage[0]} exited {code}"):
            return None
    rep.wall_s = time.perf_counter() - start
    for stage in stages:
        for name in ARTIFACTS[stage[0]]:
            path = out_dir / name
            rep.digests[name] = digest(path)
            rep.artifact_bytes += path.stat().st_size
    return rep


def check_identical(reps: list[Rep], what: str, ledger: Ledger) -> None:
    for rep in reps[1:]:
        for name, value in rep.digests.items():
            ledger.check(value == reps[0].digests[name], f"{what}: {name} differs between repetitions")


def check_outputs(wl: Workload, doc: dict, out_dir: Path, seq_space: int, ledger: Ledger) -> dict:
    """Validate the final artifacts; return quality and workload readouts."""
    readouts: dict = {"sequence_space": seq_space}
    cmds = {s[0]: s for s in wl.timed}
    if "oracle" in cmds:
        rows = jsonl_rows(out_dir / "oracle.jsonl")
        summary = next(r for r in rows if r.get("record") == "summary")
        ledger.check(summary["n_sequences"] == seq_space,
                     f"oracle table has {summary['n_sequences']} sequences, enumeration gives {seq_space}")
        if "p_model_sum" in summary:
            ledger.check(abs(summary["p_model_sum"] - 1.0) <= 1e-6, f"p_model_sum {summary['p_model_sum']!r}")
    if "evaluate" in cmds:
        report = json.loads((out_dir / "evaluate.json").read_text(encoding="utf-8"))
        n = stage_work(cmds["sample"], doc, seq_space)[1]
        found = sum(report["length_histogram"].values())
        ledger.check(report["n_samples"] == n and found == n, f"evaluate placed {found} of {n} samples")
        for key in ("tv_model_vs_target", "log_z_error", "tv_empirical_vs_target"):
            if key in report:
                readouts[key] = report[key]
    if "sample" in cmds:
        rows = jsonl_rows(out_dir / "samples.jsonl")
        readouts["mean_trajectory_length"] = statistics.fmean(len(r["actions"]) for r in rows)
    else:
        rows = jsonl_rows(out_dir / "dataset.jsonl")
        readouts["mean_trajectory_length"] = statistics.fmean(len(r["components"]) for r in rows)
    return readouts


def check_trace_counts(wl: Workload, doc: dict, tracer: Tracer, reps: int, seq_space: int, ledger: Ledger) -> None:
    """Traced call counts must equal what the config implies for each stage."""
    n_steps = doc["schedule"]["n_steps"]

    def expect(name, stage, want, parent=None, extra=None):
        spans = tracer.select(name, stage=stage, parent=parent)
        got = sum(extra(r[5]) for r in spans) if extra else len(spans)
        label = f"{name}{'.' + extra.__name__ if extra else ''} in {stage}{' under ' + parent if parent else ''}"
        ledger.check(got == want * reps, f"trace count {label}: {got} != {want * reps}")

    def steps(e):
        return e[0]

    def sequences(e):
        return e

    for stage in wl.timed:
        cmd = stage[0]
        if cmd == "gen-data":
            expect("domain.validate_library", cmd, 1)
            expect("domain.generate_dataset", cmd, 1)
            expect("seeding.rng_from", cmd, doc["dataset_size"], parent="domain.generate_dataset")
        elif cmd == "train-stateflow":
            iters, batch = doc["stateflow"]["iters"], doc["stateflow"]["batch"]
            for name in ("stateflow.state_loss", "nn.Tape.backward", "nn.adam_step"):
                expect(name, cmd, iters)
            expect("compstate.decompose", cmd, iters * batch)
            expect("stateflow.interpolate", cmd, iters * batch)
            expect("nn.ParamStore.save", cmd, 1)
        elif cmd == "train-policy":
            iters, batch = doc["policy"]["iters"], doc["policy"]["batch"]
            expect("nn.Tape.backward", cmd, iters)
            expect("nn.adam_step", cmd, iters)
            expect("nn.ParamStore.save", cmd, 1)
            if doc["policy"]["objective"] == "tb":
                expect("gflownet.sample_trajectory", cmd, iters * batch)
                expect("gflownet.tb_loss_node", cmd, iters * batch)
                expect("stateflow.euler_rollout", cmd, iters * batch * n_steps,
                       parent="gflownet.sample_trajectory", extra=steps)
                expect("oracle.enumerate_sequences", cmd, 1)
            else:
                expect("gflownet.ce_batch", cmd, iters)
                expect("gflownet.ce_loss_node", cmd, iters)
                expect("compstate.decompose", cmd, iters * batch, parent="gflownet.ce_batch")
        elif cmd == "sample":
            n = stage_work(stage, doc, seq_space)[1]
            expect("gflownet.sample_trajectory", cmd, n)
            expect("stateflow.euler_rollout", cmd, n * n_steps, extra=steps)
            expect("nn.ParamStore.load", cmd, 2)
        elif cmd == "oracle":
            expect("oracle.enumerate_sequences", cmd, 1)
            expect("oracle.enumerate_sequences", cmd, seq_space, extra=sequences)
            expect("domain.log_reward", cmd, seq_space, parent="oracle.enumerate_sequences")
            # cmd_oracle recomputes the whole uniform distribution once per table row
            expect("oracle.uniform_policy_distribution", cmd, seq_space)
            expect("oracle.sequence_log_probs", cmd, 1)
        elif cmd == "evaluate":
            expect("cli.read_jsonl", cmd, 2)


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------


def host_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(str(Path(np.__file__).resolve().parent.parent / "numpy.libs" / "libscipy_openblas*.so"))
    if libs:
        fn = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": threads,
    }


def median_rate(reps: list[Rep], stage: tuple[str, ...], doc: dict, seq_space: int) -> float:
    items = stage_work(stage, doc, seq_space)[1]
    return statistics.median(items / rep.stage_s[stage[0]] for rep in reps)


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict, Tracer | None]:
    ledger = Ledger()
    config_path, doc = write_config(work, "run", seed, wl.overrides)
    seq_space = count_sequences(config_path)
    setup_dir, setup_path = "run", config_path
    if wl.setup_overrides is not None:
        setup_dir = "warmup"
        setup_path, _ = write_config(work, setup_dir, seed, wl.setup_overrides)

    setups: list[Rep] = []
    for _ in range(SETUP_REPS):
        rep = run_stages(wl.setup, setup_path, work / setup_dir, ledger, None)
        if rep is None:
            return failed(ledger), {}, None
        setups.append(rep)
    check_identical(setups, "setup", ledger)

    tracer = Tracer() if trace else None
    reps: list[Rep] = []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start + reps[-1].wall_s / 2 < seconds:
        traced = trace and len(reps) % 2 == 1
        if traced:
            tracer.install()
        try:
            rep = run_stages(wl.timed, config_path, work / "run", ledger, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if rep is None:
            return failed(ledger), {}, tracer
        reps.append(rep)
    check_identical(reps, "timed", ledger)
    readouts = check_outputs(wl, doc, work / "run", seq_space, ledger)

    plain = [r for r in reps if not r.traced]
    by_cmd = {s[0]: s for s in wl.timed}
    named = {
        "setup_s": (statistics.median(r.wall_s for r in setups), "s"),
        "wall_s": (statistics.median(r.wall_s for r in plain), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for cmd in wl.reported:
        metric = stage_work(by_cmd[cmd], doc, seq_space)[0]
        named[metric] = (median_rate(plain, by_cmd[cmd], doc, seq_space), "1/s")

    if trace:
        traced_reps = [r for r in reps if r.traced]
        check_trace_counts(wl, doc, tracer, len(traced_reps), seq_space, ledger)
        overhead = statistics.median(r.wall_s for r in traced_reps) / named["wall_s"][0] - 1.0
        metrics = per_layer_metrics(tracer, len(traced_reps), traced_reps[0].artifact_bytes, overhead)
        for key in ("domain.action_space.actions", "stateflow.euler_rollout.distinct_share",
                    "gflownet.policy_distribution.distinct_share"):
            readouts[key] = metrics[key]["value"]
    else:
        lead, second = (stage_work(by_cmd[c], doc, seq_space)[0] for c in wl.bounded)
        slots = {"lead_stage_per_s": named[lead], "second_stage_per_s": named[second]}
        keep = {k: named[k] for k in ("setup_s", "wall_s", "peak_rss_mb")}
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in (keep | slots).items()}
    named["fail_frac"] = (len(ledger.failures) / ledger.attempted, "ratio")

    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": metrics,
    }
    report = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": host_record(),
        "setup_reps_s": [r.wall_s for r in setups],
        "timed_reps_stage_s": [r.stage_s for r in plain],
        "traced_reps": len(reps) - len(plain),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "bounded": {"lead_stage_per_s": wl.bounded[0], "second_stage_per_s": wl.bounded[1]},
        "readouts": readouts,
        "failures": ledger.failures,
    }
    if trace:
        report["trace_sites"] = tracer.sites
    return result, report, tracer


def failed(ledger: Ledger) -> dict:
    return {"correct": False, "attempted": max(1, ledger.attempted), "failed": len(ledger.failures), "metrics": {}}


def dump_spans(tracer: Tracer, path: Path) -> None:
    names = sorted({s[0] for s in tracer.spans} | {s[4] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    doc = {"fields": ["name", "start_ns", "end_ns", "parent", "stage"], "names": names,
           "spans": [[index[s[0]], s[1], s[2], s[3], index[s[4]]] for s in tracer.spans]}
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    try:
        result, report, tracer = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps({"report": report, "result": result}, indent=2), encoding="utf-8")
    if tracer is not None:
        dump_spans(tracer, results / f"{tag}.spans.json.gz")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
