"""Fast self-test of the benchmark harness at tiny sizes.

Run from the repository root::

    python3 perfbench/selftest.py

Each workload runs shrunk (a few iterations, a handful of samples, a smaller
sequence space for ``oracle-wide``) untraced and traced.  The test checks that
every run is correct, that the metric names are exactly those in
``BENCHMARK.json``, that the traced call counts match the config, that the
tracer restores every binding it replaced, and that the benchmark exits
non-zero without a result line in a directory holding only its own files.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
from tracing import TARGETS

TINY = {
    "tb-default": {
        "overrides": {"dataset_size": 40, "stateflow": {"iters": 2, "batch": 4}, "policy": {"iters": 2, "batch": 4}},
        "timed": (("train-policy",), ("sample", "-n", "5"), ("oracle",), ("evaluate",)),
    },
    "oracle-wide": {
        "overrides": {"dataset_size": 40, "rules": {"max_len": 4, "p_max": 12},
                      "stateflow": {"iters": 2, "batch": 4}, "policy": {"iters": 2, "batch": 4}},
        "timed": (("oracle",), ("sample", "-n", "5"), ("evaluate",)),
    },
    "dataset-fit": {
        "overrides": {"dataset_size": 40, "stateflow": {"iters": 2, "batch": 4}, "policy": {"iters": 2, "batch": 4}},
        "timed": None,
    },
}


def shrink(wl: run.Workload) -> run.Workload:
    tiny = TINY[wl.name]
    setup_overrides = None
    if wl.setup_overrides is not None:
        setup_overrides = run.merge(wl.setup_overrides, tiny["overrides"])
    return dataclasses.replace(
        wl,
        overrides=run.merge(wl.overrides, tiny["overrides"]),
        setup_overrides=setup_overrides,
        timed=tiny["timed"] or wl.timed,
    )


def bindings() -> dict[str, object]:
    out = {}
    for name, (module_name, attr, _) in TARGETS.items():
        owner_name, _, member = attr.rpartition(".")
        module = sys.modules[module_name]
        owner = getattr(module, owner_name) if owner_name else module
        out[name] = owner.__dict__[member] if owner_name else getattr(owner, member)
    return out


def check_workloads(spec: dict) -> None:
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert set(run.WORKLOADS) == {w["name"] for w in spec["workloads"]}
    before = bindings()
    for wl in run.WORKLOADS.values():
        for trace in (False, True):
            work = run.OUT / f"selftest-{wl.name}-{int(trace)}"
            try:
                result, report, _ = run.run_workload(shrink(wl), seed=3, seconds=0, trace=trace, work=work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            assert result["correct"], (wl.name, trace, report["failures"])
            assert result["attempted"] >= 1 and result["failed"] == 0
            assert set(result["metrics"]) == (per_layer if trace else end_to_end), (wl.name, trace)
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            assert report["host"]["blas_threads"] in (1, None), report["host"]
            if trace:
                assert result["metrics"]["stateflow.euler_rollout.steps"]["value"] >= 0
            print(f"selftest: {wl.name} trace={int(trace)} ok ({result['attempted']} operations)")
    assert bindings() == before, "tracer left a wrapped binding behind"


def check_bare_directory() -> None:
    """Without the cgflow sources the benchmark must fail and print no result."""
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(Path(__file__).resolve().parent, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "tb-default", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("selftest: bare directory exits", proc.returncode, "without a result")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_workloads(spec)
    check_bare_directory()
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
