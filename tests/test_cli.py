import json

import pytest

from plcfe.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_VALIDATION,
    build_config,
    main,
    run_pipeline,
    train_test_split,
    _Workspace,
)
from plcfe.errors import ParameterError

TINY = {
    "seed": 11,
    "dataset": {"classes": 4, "per_class": 25, "dim": 8, "separation": 6.0},
    "cfe": {"epochs": 3, "batch_positives": 16, "queue_capacity": 32,
            "hidden_dims": [16], "embed_dim": 8},
    "cluster": {"k": 8},
    "episodes": {"ways": 3, "shots": 1, "queries": 3, "candidate_neighbors": 2},
    "maml": {"epochs": 2, "steps_per_epoch": 10},
    "eval": {"tasks": 30, "shots": [1]},
}


def write_tiny_config(tmp_path, **extra):
    raw = json.loads(json.dumps(TINY))
    raw.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


class TestConfigParsing:
    def test_defaults_build(self):
        config = build_config({})
        assert config.method == "maml"
        assert config.cfe.temperature == 0.2

    def test_unknown_key_named(self):
        with pytest.raises(ParameterError, match="unknown config key: dataset.bogus"):
            build_config({"dataset": {"bogus": 1}})

    def test_keep_rate_violation_names_field(self):
        with pytest.raises(ParameterError, match="episodes.keep_rate"):
            build_config({"episodes": {"keep_rate": 1.2}})

    def test_augment_propagates_into_cfe(self):
        config = build_config({"augment": {"noise_std": 0.7}})
        assert config.cfe.augment.noise_std == 0.7

    def test_split_is_deterministic_and_disjoint(self):
        train1, test1 = train_test_split(100, 0.2, seed=5)
        train2, test2 = train_test_split(100, 0.2, seed=5)
        assert train1.tolist() == train2.tolist()
        assert set(train1) | set(test1) == set(range(100))
        assert not set(train1) & set(test1)
        assert test1.size == 20


class TestCliValidation:
    def test_bad_config_value_exits_2(self, tmp_path, capsys):
        path = write_tiny_config(tmp_path, episodes={"keep_rate": 1.2})
        code = main(["gen-data", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        assert "keep_rate" in capsys.readouterr().err

    def test_bad_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["gen-data", "--config", str(path)]) == EXIT_VALIDATION

    def test_missing_artifact_exits_2(self, tmp_path):
        path = write_tiny_config(tmp_path)
        code = main(["train-cfe", "--config", str(path), "--out", str(tmp_path / "empty")])
        assert code == EXIT_VALIDATION

    def test_removed_first_order_key_exits_2(self, tmp_path, capsys):
        path = write_tiny_config(tmp_path, maml={"first_order": True})
        assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        assert "unknown config key: maml.first_order" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["cfe", "episodes", "maml"])
    def test_removed_section_seed_key_exits_2(self, tmp_path, capsys, section):
        # every stream derives from the top-level seed, so a section seed
        # would be silently ignored; it is rejected instead
        path = write_tiny_config(tmp_path, **{section: {"seed": 5}})
        assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        assert f"unknown config key: {section}.seed" in capsys.readouterr().err

    def test_out_dir_under_regular_file_exits_3(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        code = main(["gen-data", "--out", str(blocker / "run")])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


class TestPipeline:
    def test_smoke_and_manifest(self, tmp_path, capsys):
        path = write_tiny_config(tmp_path)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(path), "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        for name in (
            "dataset.plds",
            "cfe_trained.plcf",
            "embeddings.plem",
            "similarity_initial.csv",
            "similarity_trained.csv",
            "pca_trained.csv",
            "clusters_assignment.csv",
            "clustering_quality.csv",
            "meta_model.plcf",
            "eval_maml_shot1.csv",
        ):
            assert name in manifest["artifacts"], name
            assert (out / name).exists()
        assert manifest["seed"] == 11

    def test_identical_runs_are_byte_identical(self, tmp_path):
        path = write_tiny_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["pipeline", "--config", str(path), "--out", str(out1)]) == EXIT_OK
        assert main(["pipeline", "--config", str(path), "--out", str(out2)]) == EXIT_OK
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["artifacts"] == m2["artifacts"]
        for name in m1["artifacts"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_stagewise_run_matches_pipeline(self, tmp_path):
        path = write_tiny_config(tmp_path)
        whole = tmp_path / "whole"
        staged = tmp_path / "staged"
        assert main(["pipeline", "--config", str(path), "--out", str(whole)]) == EXIT_OK
        for stage in ("gen-data", "train-cfe", "embed", "metrics", "cluster",
                      "meta-train", "meta-eval"):
            assert main([stage, "--config", str(path), "--out", str(staged)]) == EXIT_OK
        manifest = json.loads((whole / "manifest.json").read_text())
        for name in manifest["artifacts"]:
            assert (whole / name).read_bytes() == (staged / name).read_bytes(), name

    def test_meta_train_does_not_need_embeddings(self, tmp_path):
        path = write_tiny_config(tmp_path)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(path), "--out", str(out)]) == EXIT_OK
        before = (out / "meta_model.plcf").read_bytes()
        (out / "embeddings.plem").unlink()
        assert main(["meta-train", "--config", str(path), "--out", str(out)]) == EXIT_OK
        assert (out / "meta_model.plcf").read_bytes() == before
        assert main(["build-tasks", "--config", str(path), "--out", str(out),
                     "--tasks", "2"]) == EXIT_OK

    def test_progressive_fraction_is_per_epoch(self, tmp_path):
        # gate 0 makes every batch progressive once a snapshot exists,
        # which is from epoch 1 on
        path = write_tiny_config(tmp_path, episodes={**TINY["episodes"], "gate_threshold": 0.0})
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(path), "--out", str(out),
                     "--episodes", "progressive"]) == EXIT_OK
        rows = (out / "meta_history.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["0.000000", "1.000000"]

    def test_build_tasks_stage(self, tmp_path):
        path = write_tiny_config(tmp_path)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(path), "--out", str(out)]) == EXIT_OK
        assert main(["build-tasks", "--config", str(path), "--out", str(out),
                     "--tasks", "5"]) == EXIT_OK
        lines = (out / "tasks.csv").read_text().splitlines()
        assert lines[0] == "task_id,role,way,sample_index,source_cluster,progressive_flag"
        # 5 tasks x 3 ways x (1 support + 3 queries)
        assert len(lines) == 1 + 5 * 3 * 4

    def test_proto_method_flag(self, tmp_path):
        path = write_tiny_config(tmp_path)
        out = tmp_path / "proto_run"
        assert main(["pipeline", "--config", str(path), "--out", str(out),
                     "--method", "proto"]) == EXIT_OK
        assert (out / "eval_proto_shot1.csv").exists()

    def test_cli_overrides_change_episode_config(self, tmp_path):
        path = write_tiny_config(tmp_path)
        out = tmp_path / "run"
        assert main(["gen-data", "--config", str(path), "--out", str(out),
                     "--ways", "2", "--seed", "99"]) == EXIT_OK
        # overrides validated: bad ways rejected
        assert main(["gen-data", "--config", str(path), "--out", str(out),
                     "--ways", "1"]) == EXIT_VALIDATION


def test_run_pipeline_returns_manifest(tmp_path):
    config = build_config(json.loads(json.dumps(TINY)))
    config.out_dir = str(tmp_path / "direct")
    manifest = run_pipeline(config, _Workspace(config.out_dir))
    assert set(manifest["stages"]) == {
        "gen-data", "train-cfe", "embed", "metrics", "cluster", "meta-train", "meta-eval"
    }
