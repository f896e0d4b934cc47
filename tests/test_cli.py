from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from cgflow.cli import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_MISSING_FILE,
    ArtifactError,
    RunConfig,
    default_config_dict,
    load_config,
    main,
    read_jsonl,
)


@pytest.fixture()
def tiny_config(tmp_path):
    doc = default_config_dict()
    doc["dataset_size"] = 60
    doc["stateflow"]["iters"] = 12
    doc["stateflow"]["batch"] = 8
    doc["policy"]["iters"] = 8
    doc["policy"]["batch"] = 4
    doc["paths"]["out_dir"] = "out"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc, indent=2))
    return path


def run(args):
    return main([str(a) for a in args])


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
