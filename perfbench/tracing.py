"""In-memory span tracer that wraps cgflow's public functions from outside.

The tracer never edits the package: it replaces each traced function at every
module attribute that holds it (``transition`` is imported by name into
``domain``, ``gflownet`` and ``oracle``, ``euler_rollout`` into ``gflownet``
and ``oracle``, and so on), and replaces traced methods on their class.
Each call records one span ``[name, start_ns, end_ns, parent, stage, extra]``;
``extra`` is a per-function counter value computed from the call's arguments
and result.  ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Stages in which the policy is frozen, so an untaped policy call at the same
# (action prefix, step) always returns the same distribution.
FROZEN_POLICY_STAGES = ("sample", "oracle")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Records spans around the functions named in :data:`TARGETS`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stage = ""
        self._stack: list[int] = []
        self._seen: set = set()
        self._restore: list[tuple[object, str, object]] = []
        self.sites: dict[str, list[str]] = {}

    # -- recording -----------------------------------------------------------

    def begin_stage(self, stage: str) -> None:
        """Start a CLI stage: later spans carry its name; first-seen keys reset."""
        self.stage = stage
        self._seen = set()

    def first_seen(self, key) -> bool:
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, t0, time.perf_counter_ns(), None)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0, 0, self._stack[-1] if self._stack else -1, self.stage, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: int, t1: int, extra) -> None:
        rec = self.spans[idx]
        rec[1], rec[2], rec[5] = t0, t1, extra
        self._stack.pop()

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            t0 = time.perf_counter_ns()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter_ns()
                extra = hook(tracer, args, kwargs, out) if hook is not None and out is not None else None
                tracer._close(idx, t0, end, extra)

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind it at each cgflow import site."""
        modules = {n: m for n, m in sys.modules.items() if n == "cgflow" or n.startswith("cgflow.")}
        for name, (module_name, attr, hook) in TARGETS.items():
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                owner = getattr(modules[module_name], owner_name)
                raw = owner.__dict__[member]
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(name, raw.__func__, hook))
                else:
                    replacement = self._wrap(name, raw, hook)
                self._restore.append((owner, member, raw))
                setattr(owner, member, replacement)
                self.sites[name] = [f"{module_name}.{owner_name}"]
                continue
            original = getattr(modules[module_name], attr)
            wrapped = self._wrap(name, original, hook)
            sites = []
            for mod_name, module in sorted(modules.items()):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapped)
                        sites.append(f"{mod_name}.{key}")
            self.sites[name] = sites

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    # -- aggregation ---------------------------------------------------------

    def layer_table(self) -> dict[str, dict[str, float]]:
        """calls, total ms and self ms per span name (self = minus child spans)."""
        child_ns = [0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child_ns[rec[3]] += rec[2] - rec[1]
        table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for i, rec in enumerate(self.spans):
            row = table[rec[0]]
            dur = rec[2] - rec[1]
            row["calls"] += 1
            row["ms"] += dur / 1e6
            row["self_ms"] += (dur - child_ns[i]) / 1e6
        return dict(table)

    def select(self, name: str, stage: str | None = None, parent: str | None = None) -> list[list]:
        out = []
        for rec in self.spans:
            if rec[0] != name or (stage is not None and rec[4] != stage):
                continue
            if parent is not None and (rec[3] < 0 or self.spans[rec[3]][0] != parent):
                continue
            out.append(rec)
        return out

    def durations_ms(self, name: str) -> list[float]:
        return [(r[2] - r[1]) / 1e6 for r in self.select(name)]


# -- counter hooks: (tracer, args, kwargs, result) -> span extra -------------


def _actions(tracer, args, kwargs, out):
    return len(out)


def _tape_nodes(tracer, args, kwargs, out):
    return len(args[0])


def _euler(tracer, args, kwargs, out):
    x = _arg(args, kwargs, 0, "x")
    lo = _arg(args, kwargs, 3, "from_step")
    hi = _arg(args, kwargs, 4, "to_step")
    return (hi - lo, tracer.first_seen(("euler", x.components, lo, hi)))


def _points(tracer, args, kwargs, out):
    return sum(len(p) for p in out)


def _policy(tracer, args, kwargs, out):
    taped = _arg(args, kwargs, 4, "tape") is not None
    first = None
    if not taped and tracer.stage in FROZEN_POLICY_STAGES:
        x = _arg(args, kwargs, 1, "x")
        first = tracer.first_seen(("policy", x.components, _arg(args, kwargs, 2, "t_step")))
    return (taped, first)


def _sequences(tracer, args, kwargs, out):
    return len(out)


# name -> (defining module, attribute or Class.method, counter hook)
TARGETS: dict[str, tuple[str, str, object]] = {
    "compstate.transition": ("cgflow.compstate", "transition", None),
    "compstate.decompose": ("cgflow.compstate", "decompose", None),
    "compstate.ground_truth_layout": ("cgflow.compstate", "ground_truth_layout", None),
    "compstate.ComposedObject.with_states": ("cgflow.compstate", "ComposedObject.with_states", None),
    "seeding.rng_from": ("cgflow.seeding", "rng_from", None),
    "domain.action_space": ("cgflow.domain", "action_space", _actions),
    "domain.log_reward": ("cgflow.domain", "log_reward", None),
    "domain.validate_library": ("cgflow.domain", "validate_library", None),
    "domain.generate_dataset": ("cgflow.domain", "generate_dataset", None),
    "nn.Tape.backward": ("cgflow.nn", "Tape.backward", _tape_nodes),
    "nn.adam_step": ("cgflow.nn", "adam_step", None),
    "nn.ParamStore.save": ("cgflow.nn", "ParamStore.save", None),
    "nn.ParamStore.load": ("cgflow.nn", "ParamStore.load", None),
    "stateflow.euler_rollout": ("cgflow.stateflow", "euler_rollout", _euler),
    "stateflow.StateFlowModel.predict": ("cgflow.stateflow", "StateFlowModel.predict", _points),
    "stateflow.featurize_points": ("cgflow.stateflow", "featurize_points", None),
    "stateflow.interpolate": ("cgflow.stateflow", "interpolate", None),
    "stateflow.state_loss": ("cgflow.stateflow", "state_loss", None),
    "gflownet.sample_trajectory": ("cgflow.gflownet", "sample_trajectory", None),
    "gflownet.policy_distribution": ("cgflow.gflownet", "policy_distribution", _policy),
    "gflownet.ce_batch": ("cgflow.gflownet", "ce_batch", None),
    "gflownet.ce_loss_node": ("cgflow.gflownet", "ce_loss_node", None),
    "gflownet.tb_loss_node": ("cgflow.gflownet", "tb_loss_node", None),
    "oracle.enumerate_sequences": ("cgflow.oracle", "enumerate_sequences", _sequences),
    "oracle.sequence_log_probs": ("cgflow.oracle", "sequence_log_probs", None),
    "oracle.uniform_policy_distribution": ("cgflow.oracle", "uniform_policy_distribution", None),
    "cli.read_jsonl": ("cgflow.cli", "read_jsonl", None),
}

CLI_STAGES = ("gen-data", "train-stateflow", "train-policy", "sample", "oracle", "evaluate")


def stage_span_name(stage: str) -> str:
    return f"cli.stage.{stage.replace('-', '_')}"


def per_layer_metrics(tracer: Tracer, reps: int, artifact_bytes: float, overhead: float) -> dict:
    """Per-layer values per traced repetition, named as BENCHMARK.json lists them."""
    table = tracer.layer_table()
    out: dict[str, dict] = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for name in TARGETS:
        row = table.get(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        put(f"{name}.calls", row["calls"] / reps, "count")
        put(f"{name}.ms", row["ms"] / reps, "ms")
        put(f"{name}.self_ms", row["self_ms"] / reps, "ms")

    def mean_extra(name):
        vals = [r[5] for r in tracer.select(name) if r[5] is not None]
        return statistics.fmean(vals) if vals else 0.0

    def share(flags):
        flags = [f for f in flags if f is not None]
        return sum(flags) / len(flags) if flags else 0.0

    put("domain.action_space.actions", mean_extra("domain.action_space"), "count")
    put("nn.Tape.backward.nodes", mean_extra("nn.Tape.backward"), "count")
    euler = [r[5] for r in tracer.select("stateflow.euler_rollout") if r[5] is not None]
    put("stateflow.euler_rollout.steps", sum(e[0] for e in euler) / reps, "count")
    put("stateflow.euler_rollout.distinct_share", share([e[1] for e in euler]), "ratio")
    put("stateflow.StateFlowModel.predict.points", mean_extra("stateflow.StateFlowModel.predict"), "count")
    durations = sorted(tracer.durations_ms("gflownet.sample_trajectory"))
    put("gflownet.sample_trajectory.p50_ms", _quantile(durations, 0.50), "ms")
    put("gflownet.sample_trajectory.p99_ms", _quantile(durations, 0.99), "ms")
    policy = [r[5] for r in tracer.select("gflownet.policy_distribution") if r[5] is not None]
    put("gflownet.policy_distribution.taped_share", share([p[0] for p in policy]), "ratio")
    put("gflownet.policy_distribution.distinct_share", share([p[1] for p in policy]), "ratio")
    put("oracle.enumerate_sequences.sequences",
        sum(r[5] for r in tracer.select("oracle.enumerate_sequences") if r[5] is not None) / reps, "count")
    for stage in CLI_STAGES:
        span = stage_span_name(stage)
        put(f"{span}.s", table.get(span, {"ms": 0.0})["ms"] / 1000.0 / reps, "s")
    put("cli.artifact_bytes", artifact_bytes, "bytes")
    put("trace_overhead_frac", overhead, "ratio")
    return out


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]
