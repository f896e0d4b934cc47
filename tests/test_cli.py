from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cgflow import cli, stateflow
from cgflow.cli import RunConfig, _composition, _load_dataset, _write_jsonl, iter_lines, load_config, main, read_jsonl
from cgflow.compstate import decode_states, default_library_bytes, encode_states
from cgflow.domain import generate_dataset
from cgflow.errors import EXIT_CONFIG, EXIT_INVARIANT, EXIT_MISSING_FILE, ArtifactError


DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.json"


def default_config_dict() -> dict:
    return json.loads(DEFAULT_CONFIG.read_text(encoding="utf-8"))


def tiny_config_dict() -> dict:
    doc = default_config_dict()
    doc["dataset_size"] = 60
    doc["stateflow"]["iters"] = 12
    doc["stateflow"]["batch"] = 8
    doc["policy"]["iters"] = 8
    doc["policy"]["batch"] = 4
    doc["paths"]["out_dir"] = "out"
    return doc


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(tiny_config_dict(), indent=2))
    return path


def run(args):
    return main([str(a) for a in args])


def with_field(doc, section, key, value):
    doc[section][key] = value
    return doc


MALFORMED_CONFIGS = {
    "n_steps-string": lambda d: with_field(d, "schedule", "n_steps", "abc"),
    "n_steps-float": lambda d: with_field(d, "schedule", "n_steps", 20.7),
    "schedule-list": lambda d: {**d, "schedule": [1, 2]},
    "top-level-list": lambda d: [1],
    "anchor-one-coordinate": lambda d: with_field(d, "reward", "anchors", [[1.0]]),
    "lr-null": lambda d: with_field(d, "policy", "lr", None),
    "lr-int-beyond-float": lambda d: with_field(d, "policy", "lr", 10**400),
    "dataset_size-bool": lambda d: {**d, "dataset_size": True},
    "unknown-key": lambda d: with_field(d, "stateflow", "sigmaa", 0.05),
    # json.dumps writes these as the non-standard literals NaN and Infinity
    "temperature-nan": lambda d: with_field(d, "reward", "temperature", float("nan")),
    "sigma_data-infinity": lambda d: with_field(d, "stateflow", "sigma_data", float("inf")),
}


class TestConfig:
    def test_round_trip_identity(self, tiny_config):
        cfg = load_config(tiny_config)
        doc = cfg.to_dict()
        cfg2 = RunConfig.from_dict(doc, base_dir=tiny_config.parent)
        assert cfg2.to_dict() == doc

    def test_seed_override(self, tiny_config):
        cfg = load_config(tiny_config, seed_override=99)
        assert cfg.seed == 99

    def test_missing_file(self, tmp_path):
        assert run(["gen-data", "--config", tmp_path / "nope.json"]) == EXIT_MISSING_FILE

    def test_invalid_schedule_rejected(self, tmp_path):
        doc = default_config_dict()
        doc["schedule"]["lambda"] = 0.17  # off the 20-step grid (3.4 steps)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["gen-data", "--config", path]) == EXIT_CONFIG

    @pytest.mark.parametrize("edit", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS.keys())
    def test_malformed_value_is_config_error(self, tmp_path, capsys, edit):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(edit(default_config_dict())))
        assert run(["oracle", "--config", path]) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"]["kind"] == "invalid-config"

    def test_unknown_objective_is_config_error(self, tmp_path):
        doc = default_config_dict()
        doc["policy"]["objective"] = "db"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["oracle", "--config", path]) == EXIT_CONFIG

    def test_config_hash_pinned(self, tmp_path):
        assert load_config(DEFAULT_CONFIG).config_hash() == "687e428bc556edc8"
        doc = default_config_dict()
        doc["schedule"]["integrator_mode"] = "rectified"
        doc["policy"]["objective"] = "ce"
        path = tmp_path / "ce.json"
        path.write_text(json.dumps(doc))
        assert load_config(path).config_hash() == "78b9406dc6fadd95"

    def test_hashes_stable(self, tiny_config):
        cfg = load_config(tiny_config)
        assert cfg.config_hash() == load_config(tiny_config).config_hash()
        assert len(cfg.library_hash()) == 16


class TestPipeline:
    def test_full_tiny_pipeline(self, tiny_config, tmp_path):
        assert run(["gen-data", "--config", tiny_config]) == 0
        out = tmp_path / "out"
        meta, rows = read_jsonl(out / "dataset.jsonl")
        assert len(rows) == 60
        assert "config_hash" in meta and "library_hash" in meta

        assert run(["train-stateflow", "--config", tiny_config]) == 0
        assert (out / "stateflow.ckpt").exists()
        _, metrics = read_jsonl(out / "stateflow_metrics.jsonl")
        assert len(metrics) == 12

        assert run(["train-policy", "--config", tiny_config]) == 0
        assert (out / "policy.ckpt").exists()

        assert run(["sample", "--config", tiny_config, "-n", "20"]) == 0
        _, samples = read_jsonl(out / "samples.jsonl")
        assert len(samples) == 20
        assert all(2 <= len(s["actions"]) <= 3 for s in samples)

        assert run(["oracle", "--config", tiny_config]) == 0
        _, orows = read_jsonl(out / "oracle.jsonl")
        summary = [r for r in orows if r.get("record") == "summary"][0]
        assert summary["n_sequences"] == 24
        assert abs(summary["p_model_sum"] - 1.0) < 1e-9

        assert run(["evaluate", "--config", tiny_config]) == 0
        report = json.loads((out / "evaluate.json").read_text())
        assert report["n_samples"] == 20
        assert 0 <= report["tv_empirical_vs_target"] <= 1
        assert "log_z_error" in report
        assert set(report["length_histogram"]) <= {"2", "3"}
        # every artifact was written through a temp file that is gone now
        assert not [p.name for p in out.iterdir() if p.name.startswith(".")]

    def test_sampling_missing_checkpoints(self, tiny_config):
        assert run(["gen-data", "--config", tiny_config]) == 0
        assert run(["sample", "--config", tiny_config, "-n", "3"]) == EXIT_MISSING_FILE

    def test_gen_data_idempotent(self, tiny_config, tmp_path):
        assert run(["gen-data", "--config", tiny_config]) == 0
        first = (tmp_path / "out" / "dataset.jsonl").read_bytes()
        assert run(["gen-data", "--config", tiny_config]) == 0
        assert (tmp_path / "out" / "dataset.jsonl").read_bytes() == first

    def test_metrics_idempotent_modulo_wall_clock(self, tiny_config, tmp_path):
        run(["gen-data", "--config", tiny_config])
        run(["train-stateflow", "--config", tiny_config])
        path = tmp_path / "out" / "stateflow_metrics.jsonl"
        first = path.read_text().splitlines()
        run(["train-stateflow", "--config", tiny_config])
        second = path.read_text().splitlines()

        def strip(lines):
            rows = [json.loads(l) for l in lines]
            for r in rows:
                r.pop("wall_ms", None)
            return rows

        assert strip(first) == strip(second)
        # checkpoints byte-identical
        ck = (tmp_path / "out" / "stateflow.ckpt").read_bytes()
        run(["train-stateflow", "--config", tiny_config])
        assert (tmp_path / "out" / "stateflow.ckpt").read_bytes() == ck

    def test_tb_integrates_no_segment_of_the_probe_table(self, tiny_config, monkeypatch):
        # the TV probe's table fills the rollout cache TB starts from, so no
        # TB rollout misses it (a miss integrates through stateflow's own
        # integrate_packed; the oracle holds its own binding)
        assert run(["gen-data", "--config", tiny_config]) == 0
        assert run(["train-stateflow", "--config", tiny_config]) == 0
        calls = []
        original = stateflow.integrate_packed
        monkeypatch.setattr(stateflow, "integrate_packed", lambda xs, *a: calls.append(len(xs)) or original(xs, *a))
        assert run(["train-policy", "--config", tiny_config]) == 0
        assert calls == []

    def test_sampling_reuses_rollouts_and_stays_reproducible(self, tiny_config, tmp_path):
        run(["gen-data", "--config", tiny_config])
        run(["train-stateflow", "--config", tiny_config])
        run(["train-policy", "--config", tiny_config])
        assert run(["sample", "--config", tiny_config, "-n", "12"]) == 0
        first = (tmp_path / "out" / "samples.jsonl").read_bytes()
        assert run(["sample", "--config", tiny_config, "-n", "12"]) == 0
        assert (tmp_path / "out" / "samples.jsonl").read_bytes() == first


class TestCorruptArtifacts:
    def test_corrupt_config_json_is_config_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"seed": 1,')
        assert run(["gen-data", "--config", path]) == EXIT_CONFIG

    def test_cut_dataset_jsonl_is_invariant_error(self, tiny_config, tmp_path, capsys):
        assert run(["gen-data", "--config", tiny_config]) == 0
        path = tmp_path / "out" / "dataset.jsonl"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert run(["train-stateflow", "--config", tiny_config]) == EXIT_INVARIANT
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"]["kind"] == "invalid-artifact"

    def test_cut_samples_jsonl_is_invariant_error(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "samples.jsonl").write_text('{"record": "meta"}\n{"actions": [{"action": ')
        assert run(["evaluate", "--config", tiny_config]) == EXIT_INVARIANT

    def test_truncated_checkpoint_is_invariant_error(self, tiny_config, tmp_path):
        assert run(["gen-data", "--config", tiny_config]) == 0
        assert run(["train-stateflow", "--config", tiny_config]) == 0
        path = tmp_path / "out" / "stateflow.ckpt"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 3])
        assert run(["oracle", "--config", tiny_config]) == EXIT_INVARIANT

    def test_dataset_row_missing_fields_is_invariant_error(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "dataset.jsonl").write_text('{"record": "meta"}\n{"a": 1}\n')
        assert run(["train-stateflow", "--config", tiny_config]) == EXIT_INVARIANT
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"]["kind"] == "invalid-artifact"

    @pytest.mark.parametrize(
        "table",
        [
            '{"record": "meta"}\n{"record": "summary", "log_z_exact": 0.0}\n',
            '{"record": "meta"}\n{"key": "F:b2a", "p_target": 1.0}\n',
        ],
        ids=["no-sequence-rows", "no-summary"],
    )
    def test_malformed_oracle_table_is_invariant_error(self, tiny_config, tmp_path, capsys, table):
        out = tmp_path / "out"
        out.mkdir()
        (out / "samples.jsonl").write_text('{"record": "meta"}\n')
        (out / "oracle.jsonl").write_text(table)
        assert run(["evaluate", "--config", tiny_config]) == EXIT_INVARIANT
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"]["kind"] == "invalid-artifact"

    @pytest.mark.parametrize(
        "samples, table",
        [
            ('{"reward": 1.0}', '{"key": "F(b2a)", "p_target": 1.0}'),
            ('{"actions": [{"step_index": 0}], "reward": 1.0}', '{"key": "F(b2a)", "p_target": 1.0}'),
            ('{"actions": [{"action": {"type": "first", "synthon_id": "b2a"}}]}', '{"key": "F(b2a)", "p_target": 1.0}'),
            ("", '{"p_target": 1.0}'),
            ("", '{"key": "F(b2a)"}'),
        ],
        ids=["sample-no-actions", "sample-no-action", "sample-no-reward", "table-no-key", "table-no-p_target"],
    )
    def test_evaluate_row_missing_fields_is_invariant_error(self, tiny_config, tmp_path, capsys, samples, table):
        out = tmp_path / "out"
        out.mkdir()
        (out / "samples.jsonl").write_text('{"record": "meta"}\n' + (samples + "\n" if samples else ""))
        summary = '{"record": "summary", "log_z_exact": 0.0}'
        (out / "oracle.jsonl").write_text(f'{{"record": "meta"}}\n{table}\n{summary}\n')
        assert run(["evaluate", "--config", tiny_config]) == EXIT_INVARIANT
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"]["kind"] == "invalid-artifact"

    @pytest.mark.parametrize(
        "content",
        [b'{"record": "meta"}\n{"a": 1}', b'{"a": 1}\n[1, 2]\n', b'{"a": 1}\n\xff\xfe\n'],
        ids=["no-final-newline", "not-an-object", "not-utf8"],
    )
    def test_read_jsonl_rejects(self, tmp_path, content):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(content)
        with pytest.raises(ArtifactError):
            read_jsonl(path)


class TestGradcheckCommand:
    def test_gradcheck_passes(self, tiny_config, tmp_path, capsys):
        assert run(["gradcheck", "--config", tiny_config]) == 0
        report = json.loads((tmp_path / "out" / "gradcheck.json").read_text())
        assert report["pass"] is True
        assert set(report["max_rel_err"]) == {"state_loss", "tb_loss", "ce_loss"}
        assert all(v < 1e-4 for v in report["max_rel_err"].values())


class TestAtomicWrites:
    def test_failed_write_keeps_old_artifact_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "out" / "rows.jsonl"
        _write_jsonl(path, {"config_hash": "a"}, [{"i": 0}])
        before = path.read_bytes()
        # the meta line and the first row reach the temp file before the
        # unencodable row raises
        with pytest.raises(TypeError):
            _write_jsonl(path, {"config_hash": "b"}, [{"i": 1}, {"i": object()}])
        assert path.read_bytes() == before
        assert [p.name for p in path.parent.iterdir()] == ["rows.jsonl"]


# -- one row per kind of failure: each setup edits the tiny config document,
#    writes the files the command reads under tmp_path and returns the
#    config file's bytes (or None when it made the config path itself)

META = '{"record": "meta"}\n'
TABLE_ROW = '{"key": "F(b2a)", "p_target": 1.0}\n'
SUMMARY = '{"record": "summary", "log_z_exact": 0.0}\n'


def config_bytes(doc) -> bytes:
    return json.dumps(doc).encode("utf-8")


def empty_dataset(objective):
    def setup(tmp_path, doc):
        doc["policy"]["objective"] = objective
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "dataset.jsonl").write_text(META)
        return config_bytes(doc)

    return setup


def dataset_row(synthon_id="b2a", states=((0.0, 0.0), (1.0, 0.0))):
    """A one-brick row: its attachment is open, so it is not terminal."""
    return json.dumps({
        "components": [{"synthon_id": synthon_id, "parent_component": None, "parent_attachment": None,
                        "child_attachment": None, "t_gen_step": 0}],
        "states": encode_states(np.array(states)),
        "open_attachments": [[0, 0]],
    }) + "\n"


# b2a, then l_ab on its alpha attachment, then b2b on the linker's free
# alpha attachment: a terminal chain of the default library
CHAIN = [
    {"synthon_id": "b2a", "parent_component": None, "parent_attachment": None,
     "child_attachment": None, "t_gen_step": 0},
    {"synthon_id": "l_ab", "parent_component": 0, "parent_attachment": 0,
     "child_attachment": 0, "t_gen_step": 6},
    {"synthon_id": "b2b", "parent_component": 1, "parent_attachment": 1,
     "child_attachment": 0, "t_gen_step": 12},
]


def chain_row(component=None, edit=None, n=3, states=None, open_attachments=()):
    """The first ``n`` components of ``CHAIN`` as a dataset row, with
    ``edit`` applied to component ``component``; ``states`` lists each
    component's (x, y) rows (two points each by default)."""
    components = [dict(c) for c in CHAIN[:n]]
    if edit is not None:
        components[component].update(edit)
    states = states if states is not None else [[[0.0, 0.0], [1.0, 0.0]]] * n
    return json.dumps({
        "components": components,
        "states": encode_states(np.concatenate([np.array(s) for s in states])),
        "open_attachments": [list(o) for o in open_attachments],
    }) + "\n"


def chain_row_with_states_field(value):
    """The chain row with ``value`` as its raw ``states`` field."""
    doc = json.loads(chain_row())
    doc["states"] = value
    return json.dumps(doc) + "\n"


# the chain's states with a one-point state for the two-point brick b2b
SHORT_CHAIN_STATES = [[[0.0, 0.0], [1.0, 0.0]]] * 2 + [[[0.0, 0.0]]]


def b3b_chain_row(b3b_points):
    """The chain ending in the three-point brick b3b instead of b2b, with
    ``b3b_points`` points in its last state."""
    return chain_row(2, {"synthon_id": "b3b"}, states=[[[0.0, 0.0], [1.0, 0.0]]] * 2 + [[[0.0, 0.0]] * b3b_points])


def dataset_rows(rows, objective="tb"):
    """A dataset file of a valid lead row (the terminal chain), then ``rows``."""
    def setup(tmp_path, doc):
        doc["policy"]["objective"] = objective
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "dataset.jsonl").write_text(META + chain_row() + rows)
        return config_bytes(doc)

    return setup


def evaluate_inputs(samples, table):
    def setup(tmp_path, doc):
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "samples.jsonl").write_text(META + samples)
        (tmp_path / "out" / "oracle.jsonl").write_text(META + table + SUMMARY)
        return config_bytes(doc)

    return setup


def edited_library(edit):
    def setup(tmp_path, doc):
        library = json.loads(default_library_bytes())
        library["synthons"] = edit(library["synthons"])
        (tmp_path / "library.json").write_text(json.dumps(library))
        doc["library"] = "library.json"
        return config_bytes(doc)

    return setup


def directory_config(tmp_path, doc):
    (tmp_path / "config.json").mkdir()


def directory_library(tmp_path, doc):
    (tmp_path / "library.json").mkdir()
    doc["library"] = "library.json"
    return config_bytes(doc)


FAILURES = {
    "empty-dataset-train-stateflow": (
        "train-stateflow", empty_dataset("tb"), EXIT_INVARIANT, "invalid-artifact"),
    "empty-dataset-ce-train-policy": (
        "train-policy", empty_dataset("ce"), EXIT_INVARIANT, "invalid-artifact"),
    # b3b has three points: a row with two, or four, is not an object of this library
    "dataset-short-state-train-stateflow": (
        "train-stateflow", dataset_rows(b3b_chain_row(2)), EXIT_INVARIANT, "invalid-artifact"),
    "dataset-short-state-ce-train-policy": (
        "train-policy", dataset_rows(b3b_chain_row(2), "ce"), EXIT_INVARIANT, "invalid-artifact"),
    "dataset-long-state": (
        "train-stateflow", dataset_rows(b3b_chain_row(4)), EXIT_INVARIANT, "invalid-artifact"),
    # a lone brick keeps its attachment open: an object never finished
    "dataset-non-terminal-row-train-stateflow": (
        "train-stateflow", dataset_rows(dataset_row()), EXIT_INVARIANT, "invalid-artifact"),
    "dataset-non-terminal-row-ce-train-policy": (
        "train-policy", dataset_rows(dataset_row(), "ce"), EXIT_INVARIANT, "invalid-artifact"),
    # the states field: the old list form, text that is not base64, a cut
    # value, and values that do not parse as finite floats
    "dataset-list-form-states": (
        "train-stateflow", dataset_rows(chain_row_with_states_field([[[0.0, 0.0], [1.0, 0.0]]] * 3)),
        EXIT_INVARIANT, "invalid-artifact"),
    "dataset-states-not-base64": (
        "train-stateflow", dataset_rows(chain_row_with_states_field("not base64!")), EXIT_INVARIANT, "invalid-artifact"),
    "dataset-states-partial-value": (
        "train-stateflow", dataset_rows(chain_row_with_states_field(encode_states(np.zeros((1, 2)))[:16])),
        EXIT_INVARIANT, "invalid-artifact"),
    "dataset-states-nan": (
        "train-stateflow",
        dataset_rows(chain_row(states=[[[0.0, 0.0], [1.0, 0.0]]] * 2 + [[[np.nan, 0.0], [1.0, 0.0]]])),
        EXIT_INVARIANT, "invalid-artifact"),
    "dataset-unknown-synthon": (
        "train-stateflow", dataset_rows(dataset_row(synthon_id="zz")), EXIT_INVARIANT, "invalid-artifact"),
    # rows whose composition is not what its own components build
    "dataset-parent-out-of-range": (
        "train-stateflow", dataset_rows(chain_row(2, {"parent_component": 7})), EXIT_INVARIANT, "invalid-artifact"),
    "dataset-parent-attachment-out-of-range": (
        "train-stateflow", dataset_rows(chain_row(1, {"parent_attachment": 9})), EXIT_INVARIANT, "invalid-artifact"),
    "dataset-child-attachment-out-of-range": (
        "train-stateflow", dataset_rows(chain_row(1, {"child_attachment": 5})), EXIT_INVARIANT, "invalid-artifact"),
    "dataset-later-component-without-parent": (
        "train-stateflow", dataset_rows(chain_row(1, {"parent_component": None})), EXIT_INVARIANT, "invalid-artifact"),
    "dataset-terminal-row-with-open-attachment": (
        "train-stateflow",
        dataset_rows(chain_row(1, {"synthon_id": "b2b"}, n=2, open_attachments=[(0, 0)])),
        EXIT_INVARIANT, "invalid-artifact"),
    # the second chain row hits the composition memo and is still shape-checked
    "dataset-seen-composition-short-state": (
        "train-stateflow",
        dataset_rows(chain_row() + chain_row(states=SHORT_CHAIN_STATES)),
        EXIT_INVARIANT, "invalid-artifact"),
    # every field is what the replay records, in type too: 6.0 and false
    # equal 6 and 0, but they are not the replay's JSON integers
    "dataset-t_gen_step-float": (
        "train-stateflow", dataset_rows(chain_row(1, {"t_gen_step": 6.0})), EXIT_INVARIANT, "invalid-artifact"),
    "dataset-first-t_gen_step-false": (
        "train-stateflow", dataset_rows(chain_row(0, {"t_gen_step": False})), EXIT_INVARIANT, "invalid-artifact"),
    # a row whose composition equals a seen one's is still type-checked:
    # false equals 0, but an index must be a JSON integer
    "dataset-seen-composition-bool-index": (
        "train-stateflow", dataset_rows(chain_row(1, {"parent_component": False})), EXIT_INVARIANT, "invalid-artifact"),
    "dataset-deeply-nested-line": (
        "train-stateflow", dataset_rows("[" * 100_000 + "]" * 100_000 + "\n"), EXIT_INVARIANT, "invalid-artifact"),
    "dataset-integer-past-the-digit-limit": (
        "train-stateflow", dataset_rows('{"a": 1' + "0" * 5000 + "}\n"), EXIT_INVARIANT, "invalid-artifact"),
    "evaluate-action-index-infinite": (
        "evaluate",
        evaluate_inputs('{"actions": [{"action": {"type": "add", "parent_component": Infinity, "parent_attachment": 0, '
                        '"synthon_id": "b2b", "child_attachment": 0}}], "reward": 1.0}\n', TABLE_ROW),
        EXIT_INVARIANT, "invalid-artifact"),
    "evaluate-reward-beyond-float": (
        "evaluate",
        evaluate_inputs('{"actions": [{"action": {"type": "first", "synthon_id": "b2a"}}], "reward": 1' + "0" * 400 + "}\n",
                        TABLE_ROW),
        EXIT_INVARIANT, "invalid-artifact"),
    "evaluate-table-key-is-a-list": (
        "evaluate", evaluate_inputs("", '{"key": ["F(b2a)"], "p_target": 1.0}\n'), EXIT_INVARIANT, "invalid-artifact"),
    "evaluate-p_target-beyond-float": (
        "evaluate", evaluate_inputs("", '{"key": "F(b2a)", "p_target": 1' + "0" * 400 + "}\n"),
        EXIT_INVARIANT, "invalid-artifact"),
    "evaluate-action-not-object": (
        "evaluate", evaluate_inputs('{"actions": [{"action": 3}]}\n', TABLE_ROW),
        EXIT_INVARIANT, "invalid-artifact"),
    "evaluate-unknown-action-type": (
        "evaluate", evaluate_inputs('{"actions": [{"action": {"type": "jump"}}], "reward": 1.0}\n', TABLE_ROW),
        EXIT_INVARIANT, "invalid-artifact"),
    "evaluate-p_target-not-numeric": (
        "evaluate", evaluate_inputs("", '{"key": "F(b2a)", "p_target": "x"}\n'),
        EXIT_INVARIANT, "invalid-artifact"),
    "evaluate-p_target-null": (
        "evaluate", evaluate_inputs("", '{"key": "F(b2a)", "p_target": null}\n'),
        EXIT_INVARIANT, "invalid-artifact"),
    "evaluate-p_model-missing-in-later-row": (
        "evaluate",
        evaluate_inputs("", '{"key": "F(b2a)", "p_target": 0.5, "p_model": 0.5}\n{"key": "F(b3a)", "p_target": 0.5}\n'),
        EXIT_INVARIANT, "invalid-artifact"),
    # evaluate reads the first summary record
    "evaluate-summary-without-log_z_exact": (
        "evaluate", evaluate_inputs("", TABLE_ROW + '{"record": "summary"}\n'), EXIT_INVARIANT, "invalid-artifact"),
    "evaluate-sample-not-in-table": (
        "evaluate",
        evaluate_inputs('{"actions": [{"action": {"type": "first", "synthon_id": "b3a"}}], "reward": 1.0}\n', TABLE_ROW),
        EXIT_INVARIANT, "invariant"),
    "library-synthon-without-attachments": (
        "gen-data",
        edited_library(lambda s: [{k: v for k, v in s[0].items() if k != "attachments"}, *s[1:]]),
        EXIT_CONFIG, "invalid-config"),
    "library-synthon-kind-blob": (
        "gen-data", edited_library(lambda s: [{**s[0], "kind": "blob"}, *s[1:]]), EXIT_CONFIG, "invalid-config"),
    # only the two alpha bricks: nothing can attach to the first component
    "dead-end-library": ("gen-data", edited_library(lambda s: s[:2]), EXIT_CONFIG, "invalid-config"),
    "non-utf8-config": ("gen-data", lambda tmp_path, doc: b"\xff" + config_bytes(doc), EXIT_CONFIG, "invalid-config"),
    "config-is-directory": ("gen-data", directory_config, EXIT_CONFIG, "invalid-config"),
    "library-is-directory": ("gen-data", directory_library, EXIT_CONFIG, "invalid-config"),
}


class TestDatasetLoad:
    def test_loaded_objects_equal_generated_ones(self, tiny_config):
        assert run(["gen-data", "--config", tiny_config]) == 0
        config = load_config(tiny_config)
        library = config.load_library()
        loaded = _load_dataset(config, library)
        generated = generate_dataset(
            config.dataset_size, config.seed, library, config.rules, config.schedule,
            sigma_data=config.stateflow.sigma_data,
        )
        assert len(loaded) == len(generated)
        for a, b in zip(loaded, generated):
            assert (a.components, a.open_attachments) == (b.components, b.open_attachments)
            assert a.states.tobytes() == b.states.tobytes()
            assert a.self_cond.tobytes() == b.self_cond.tobytes()
        # rows of one composition share its components; each row holds one
        # read-only matrix of its own, its states and its self-conditioning
        first = {}
        for x in loaded:
            assert first.setdefault(x.components, x.components) is x.components
        assert len(first) < len(loaded)
        assert all(x.self_cond is x.states for x in loaded)
        assert all(x.states.shape == (x.total_points(library), 2) for x in loaded)
        assert len({id(x.states) for x in loaded}) == len(loaded)
        assert not any(x.states.flags.writeable for x in loaded)

    def test_memo_hit_is_shape_checked_and_named_by_its_row(self, tmp_path, capsys):
        # the states text stores no per-component shape, so a state one
        # point short shows as a value count two short
        path = tmp_path / "config.json"
        path.write_bytes(dataset_rows(chain_row() + chain_row(states=SHORT_CHAIN_STATES))(tmp_path, tiny_config_dict()))
        assert run(["train-stateflow", "--config", path]) == EXIT_INVARIANT
        message = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]["message"]
        assert "object row 3: states hold 10 values, want 12 (2 per point)" in message

    @pytest.mark.parametrize("overrides", [{}, {"schedule": {"lambda": 0.1, "max_components": 8},
                                                "rules": {"max_len": 7, "p_max": 18}}], ids=["default", "wide"])
    def test_gen_data_lines_are_object_dicts(self, tmp_path, overrides):
        # the writer makes each composition's text once; every line is
        # still the object's own to_dict, dumped with sorted keys
        doc = tiny_config_dict()
        doc["dataset_size"] = 400
        for section, values in overrides.items():
            doc[section].update(values)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert run(["gen-data", "--config", path]) == 0
        config = load_config(path)
        library = config.load_library()
        data = generate_dataset(
            config.dataset_size, config.seed, library, config.rules, config.schedule,
            sigma_data=config.stateflow.sigma_data,
        )
        lines = (tmp_path / "out" / "dataset.jsonl").read_text(encoding="utf-8").splitlines()
        assert lines[0] == json.dumps({"record": "meta", **config.meta()}, sort_keys=True)
        assert lines[1:] == [json.dumps(x.to_dict(), sort_keys=True) for x in data]
        assert len({x.components for x in data}) < len(data) // 4

    def test_states_decode_to_the_written_values(self, tmp_path):
        doc = tiny_config_dict()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        states = [[[-0.0, 5e-324], [1.5, -2.2250738585072014e-308]], [[1e308, -1e-310], [0.1, 0.2]],
                  [[3.0, 4.0], [-7.25, 1 / 3]]]
        dataset_rows(chain_row(states=states))(tmp_path, doc)
        config = load_config(path)
        lead, x = _load_dataset(config, config.load_library())
        written = np.concatenate([np.array(s) for s in states])
        assert x.states.tobytes() == written.tobytes()
        assert x.self_cond.tobytes() == written.tobytes()
        assert np.signbit(x.states[0, 0])
        # one read-only matrix per row: the states and the self-conditioning
        # are that matrix, a write raises, and no other row shares it
        assert x.self_cond is x.states and x.states.shape == (6, 2)
        with pytest.raises(ValueError):
            x.states[0, 0] = 1.0
        assert not np.shares_memory(x.states, lead.states)

    def test_valid_rows_train(self, tmp_path):
        # the rows the failure cases edit are valid as they stand
        path = tmp_path / "config.json"
        b3b_end = chain_row(2, {"synthon_id": "b3b"}, states=[[[0.0, 0.0], [1.0, 0.0]]] * 2 + [[[0.0, 0.0]] * 3])
        path.write_bytes(dataset_rows(chain_row() + b3b_end + chain_row())(tmp_path, tiny_config_dict()))
        assert run(["train-stateflow", "--config", path]) == 0

    def test_dataset_of_another_schedule_is_rejected(self, tiny_config, tmp_path, capsys):
        # every later component records t_gen_step = index * lambda * n_steps
        assert run(["gen-data", "--config", tiny_config]) == 0
        doc = tiny_config_dict()
        doc["schedule"]["lambda"] = 0.2
        tiny_config.write_text(json.dumps(doc))
        assert run(["train-stateflow", "--config", tiny_config]) == EXIT_INVARIANT
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"]["kind"] == "invalid-artifact"
        assert "t_gen_step" in record["error"]["message"]


# valid chain states: 12 values
CHAIN_STATES_TEXT = encode_states(np.array([[0.0, 0.0], [1.0, 0.0]] * 3))

STATES_FIELDS = st.one_of(
    st.text(max_size=40),
    st.integers(0, len(CHAIN_STATES_TEXT)).map(lambda k: CHAIN_STATES_TEXT[:k]),
    # any count of any float64 values: wrong lengths, NaN and infinities,
    # and now and then exactly 12 finite values
    st.lists(st.floats(), max_size=16).map(lambda v: encode_states(np.array(v, dtype=np.float64))),
    # the old list form, with NaN and infinities (json writes them as literals)
    st.lists(st.lists(st.lists(st.floats(), min_size=2, max_size=2), max_size=3), max_size=3),
    st.none(),
    st.integers(),
    st.floats(),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "config.json").write_text(json.dumps(tiny_config_dict()))
    (path / "out").mkdir()
    return path


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(value=STATES_FIELDS)
def test_states_field_fuzz_never_fails_internally(fuzz_dir, value):
    # a dataset row whose states field is anything either loads with
    # finite values of the right count, or is rejected as an invalid
    # artifact (exit 5); nothing else may escape (exit 1)
    (fuzz_dir / "out" / "dataset.jsonl").write_text(META + chain_row() + chain_row_with_states_field(value))
    config = load_config(fuzz_dir / "config.json")
    try:
        data = _load_dataset(config, config.load_library())
    except ArtifactError as exc:
        assert "object row 2" in str(exc)
        return
    assert isinstance(value, str)
    assert data[1].states.shape == (6, 2) and np.isfinite(data[1].states).all()


class TestFailureCodes:
    @pytest.mark.parametrize("command, setup, code, kind", FAILURES.values(), ids=FAILURES.keys())
    def test_exit_code_and_kind(self, tmp_path, capsys, command, setup, code, kind):
        path = tmp_path / "config.json"
        config = setup(tmp_path, tiny_config_dict())
        if config is not None:
            path.write_bytes(config)
        assert run([command, "--config", path]) == code
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (record["error"]["code"], record["error"]["kind"]) == (code, kind)


# -- whole-row fuzzing: text edits of valid lines, anywhere in a line and
#    around the "states": boundary that the dataset loader's text memo cuts at

EDIT_CHARS = '"\\{}[]:, .-+/=0169eAZaztrunlfsE\n\té '


@st.composite
def edited_text(draw, text: str, cuts: list[int]):
    """``text`` after one to three character edits (insert, delete or
    replace), each placed anywhere or within a few characters of one of
    ``cuts``."""
    for _ in range(draw(st.integers(1, 3))):
        if cuts and draw(st.booleans()):
            at = draw(st.sampled_from(cuts)) + draw(st.integers(-12, 12))
        else:
            at = draw(st.integers(0, len(text)))
        at = min(max(at, 0), len(text))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        char = draw(st.sampled_from(EDIT_CHARS))
        if op == "insert":
            text = text[:at] + char + text[at:]
        elif op == "delete":
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at] + char + text[at + 1 :]
    return text


def boundaries(text: str, marker: str) -> list[int]:
    """Offsets in ``text`` just before and just after each ``marker``."""
    out, at = [], text.find(marker)
    while at >= 0:
        out += [at, at + len(marker)]
        at = text.find(marker, at + 1)
    return out


def reference_load(path, config, library):
    """The dataset as one ``json.loads`` per line reads it: a list of
    (components, open attachments, states bytes), or the marker the
    loader's error must name (the line, or the object row)."""
    out = []
    lines = iter_lines(path)  # the loader's line reader: a cut last line fails when it is reached
    while True:
        try:
            lineno, line = next(lines)
        except StopIteration:
            break
        except ArtifactError as exc:
            return str(exc)
        try:
            doc = json.loads(line)
        except (ValueError, RecursionError):
            return f":{lineno}: "
        if not isinstance(doc, dict):
            return f":{lineno}: "
        if doc.get("record") == "meta":
            continue
        try:
            key = (
                tuple((c["synthon_id"], c["parent_component"], c["parent_attachment"], c["child_attachment"],
                       c["t_gen_step"]) for c in doc["components"]),
                tuple(tuple(o) for o in doc["open_attachments"]),
            )
            components, opens, n_points = _composition(key, library, config)
            states = decode_states(doc["states"], n_points)
        except (KeyError, TypeError, ValueError, ArtifactError):
            return f"object row {len(out) + 1}: "
        out.append((components, opens, states.tobytes()))
    return out or "dataset has no object rows"


@pytest.fixture(scope="module")
def dataset_fuzz(tmp_path_factory):
    """A fuzz directory and its base dataset text: gen-data lines (each
    composition more than once, so the text memo hits) and the hand-built
    chain rows, whose keys are unsorted, so they always go through
    ``json.loads``."""
    path = tmp_path_factory.mktemp("dataset-fuzz")
    doc = tiny_config_dict()
    doc["dataset_size"] = 16
    (path / "config.json").write_text(json.dumps(doc))
    assert run(["gen-data", "--config", path / "config.json"]) == 0
    lines = (path / "out" / "dataset.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    heads = [line[: line.rfind('"states": ')] for line in lines[1:]]
    assert len(set(heads)) < len(heads)
    text = lines[0] + "".join(lines[1:9]) + chain_row() + b3b_chain_row(3) + chain_row() + "".join(lines[9:])
    return path, text


def test_text_memo_parses_each_composition_once(dataset_fuzz, monkeypatch):
    # gen-data lines of a seen composition skip json.loads; unsorted rows
    # and the meta line are parsed every time
    path, text = dataset_fuzz
    (path / "out" / "dataset.jsonl").write_text(text, encoding="utf-8")
    config = load_config(path / "config.json")
    parsed = []
    original = cli.parse_line
    monkeypatch.setattr(cli, "parse_line", lambda p, n, line: parsed.append(n) or original(p, n, line))
    data = _load_dataset(config, config.load_library())
    canonical = [line for line in text.splitlines(keepends=True)[1:] if line.startswith('{"components": [{"child')]
    compositions = {line[: line.rfind('"states": ')] for line in canonical}
    assert len(data) == len(text.splitlines()) - 1
    assert len(parsed) == 1 + len(compositions) + 3 < len(data)
    assert [(x.components, x.open_attachments, x.states.tobytes()) for x in data] == reference_load(
        path / "out" / "dataset.jsonl", config, config.load_library()
    )


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_dataset_line_edits_load_as_json_loads_reads_them(dataset_fuzz, data):
    # an edited dataset loads to exactly what a per-line json.loads gives,
    # or fails as an invalid artifact naming the line or object row that
    # the reference fails on; nothing else may escape (exit 1)
    path, text = dataset_fuzz
    edited = data.draw(edited_text(text, boundaries(text, '"states": ')))
    target = path / "out" / "dataset.jsonl"
    target.write_text(edited, encoding="utf-8")
    config = load_config(path / "config.json")
    want = reference_load(target, config, config.load_library())
    try:
        got = [(x.components, x.open_attachments, x.states.tobytes()) for x in _load_dataset(config, config.load_library())]
    except ArtifactError as exc:
        assert isinstance(want, str) and want in str(exc), (want, str(exc))
        return
    assert got == want


SAMPLE_ROWS = (
    '{"actions": [{"action": {"synthon_id": "b2a", "type": "first"}, "log_prob": -1.3, "step_index": 0}, '
    '{"action": {"child_attachment": 0, "parent_attachment": 0, "parent_component": 0, "synthon_id": "b2b", '
    '"type": "add"}, "log_prob": -0.7, "step_index": 6}], "log_z_used": 0.0, "reward": 0.25}\n'
    '{"actions": [{"action": {"synthon_id": "b2a", "type": "first"}, "log_prob": -1.3, "step_index": 0}], '
    '"log_z_used": 0.0, "reward": 0.5}\n'
)
TABLE_ROWS = (
    '{"key": "F(b2a)", "length": 1, "p_model": 0.5, "p_target": 0.4, "p_uniform": 0.5, "reward": 0.5}\n'
    '{"key": "F(b2a);A(0.0>b2b.0)", "length": 2, "p_model": 0.5, "p_target": 0.6, "p_uniform": 0.5, "reward": 0.25}\n'
    '{"log_z_exact": -0.3, "n_sequences": 2, "record": "summary", "z_exact": 0.75}\n'
)


@pytest.fixture(scope="module")
def evaluate_fuzz(tmp_path_factory):
    path = tmp_path_factory.mktemp("evaluate-fuzz")
    (path / "config.json").write_text(json.dumps(tiny_config_dict()))
    (path / "out").mkdir()
    (path / "out" / "samples.jsonl").write_text(META + SAMPLE_ROWS)
    (path / "out" / "oracle.jsonl").write_text(META + TABLE_ROWS)
    assert run(["evaluate", "--config", path / "config.json"]) == 0
    return path


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), table=st.booleans())
def test_evaluate_row_edits_never_fail_internally(evaluate_fuzz, capsys, data, table):
    # an edited sample or oracle-table row either evaluates or exits 5;
    # nothing may escape as exit 1
    name, rows = ("oracle.jsonl", TABLE_ROWS) if table else ("samples.jsonl", SAMPLE_ROWS)
    edited = data.draw(edited_text(rows, [i for key in ('"key": ', '"action": ', '"reward": ', '"p_target": ',
                                                          '"parent_component": ', '"log_z_exact": ')
                                          for i in boundaries(rows, key)]))
    target = evaluate_fuzz / "out" / name
    target.write_text(META + edited, encoding="utf-8")
    try:
        code = run(["evaluate", "--config", evaluate_fuzz / "config.json"])
    finally:
        target.write_text(META + rows, encoding="utf-8")
    err = capsys.readouterr().err
    assert code in (0, EXIT_INVARIANT), err


@pytest.mark.parametrize("second_key", ['"\\"states"', '"st\\u0061tes"'], ids=["quoted-key", "escaped-key"])
def test_text_memo_reads_the_states_key_json_loads_reads(tmp_path, second_key):
    # a row whose last '"states": ' is not the key json.loads reads as
    # "states" must not seed the memo: the next row with that head takes
    # its states from the key json.loads reads
    doc = tiny_config_dict()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    a = encode_states(np.arange(12.0).reshape(6, 2))
    b = encode_states(np.arange(12.0).reshape(6, 2) + 1.0)
    rows = {"components": CHAIN, "open_attachments": []}
    if second_key == '"\\"states"':
        head = json.dumps(rows)[:-1] + f', "states": "{a}", {second_key}: '
    else:
        head = json.dumps(rows)[:-1] + f', {second_key}: "{a}", "states": '
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "dataset.jsonl").write_text(META + head + f'"{a}"}}\n' + head + f'"{b}"}}\n')
    config = load_config(path)
    got = [x.states.tobytes() for x in _load_dataset(config, config.load_library())]
    want = [x[2] for x in reference_load(tmp_path / "out" / "dataset.jsonl", config, config.load_library())]
    assert got == want
    assert got[1] == (np.arange(12.0).reshape(6, 2) + (0.0 if second_key == '"\\"states"' else 1.0)).tobytes()


@pytest.mark.parametrize(
    "edit",
    [lambda t: t.replace("/", "\\/", 1), lambda t: "\\u0041" + t[1:], lambda t: t[:4] + "\t" + t[4:],
     lambda t: t[:4] + "\\" + t[4:], lambda t: t + " "],
    ids=["escaped-solidus", "unicode-escape", "raw-tab", "backslash", "trailing-space"],
)
def test_memo_hit_with_an_unusual_states_token_loads_as_json_loads_reads_it(dataset_fuzz, edit):
    # a repeated gen-data composition whose states string is spelled with
    # escapes or control characters is parsed, not cut out of the line
    path, text = dataset_fuzz
    lines = text.splitlines(keepends=True)
    heads = [line[: line.rfind('"states": ') + 10] for line in lines]
    # a gen-data line whose head an earlier gen-data line stored: a memo hit
    j = next(i for i in range(2, len(lines)) if lines[i].endswith('"}\n') and heads[i] in heads[1:i])
    tail = lines[j][len(heads[j]) :]
    states = tail[1:-3]
    assert "/" in states
    lines[j] = heads[j] + '"' + edit(states) + '"}\n'
    target = path / "out" / "dataset.jsonl"
    target.write_text("".join(lines), encoding="utf-8")
    config = load_config(path / "config.json")
    want = reference_load(target, config, config.load_library())
    try:
        got = [(x.components, x.open_attachments, x.states.tobytes()) for x in _load_dataset(config, config.load_library())]
    except ArtifactError as exc:
        assert isinstance(want, str) and want in str(exc), (want, str(exc))
        return
    assert got == want
