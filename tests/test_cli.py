import ast
import contextlib
import hashlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
import warnings
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plcfe
from plcfe import cfe, data, metalearn
from plcfe.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_VALIDATION,
    PipelineConfig,
    build_config,
    main,
    run_pipeline,
    stage_gen_data,
    stage_train_cfe,
    train_test_split,
    _Workspace,
)
from plcfe.errors import ParameterError
from plcfe.numcore import ACTIVATIONS

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


def tiny_json(**extra) -> bytes:
    return json.dumps({**TINY, **extra}).encode()


def write_tiny_config(tmp_path, **extra):
    path = tmp_path / "config.json"
    path.write_bytes(tiny_json(**extra))
    return path


def snapshot(out) -> dict:
    """Every file in a run directory, by name, with its bytes."""
    return {path.name: path.read_bytes() for path in out.iterdir()}


def manifest_edit(change):
    """An edit of manifest.json's text that applies `change` to the parsed manifest."""
    def edit(text):
        manifest = json.loads(text)
        change(manifest)
        return json.dumps(manifest)
    return edit


def perfbench_workloads() -> dict:
    """The WORKLOADS config dict of perfbench/run.py, read without importing it."""
    source = (Path(__file__).resolve().parent.parent / "perfbench" / "run.py").read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "WORKLOADS":
            return ast.literal_eval(node.value)
    raise LookupError("perfbench/run.py defines no WORKLOADS")


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

    def test_augment_propagates_into_cfe(self, tmp_path, monkeypatch):
        # the augmentation is held once, in the top-level section, and the
        # CFE stage hands that object to every augment call
        config = build_config({**TINY, "augment": {"noise_std": 0.7}, "out_dir": str(tmp_path)})
        assert config.augment == data.AugmentConfig(noise_std=0.7, scale_range=(0.9, 1.1))
        received = []

        def recording_augment(sample, augmentation, rng):
            received.append(augmentation)
            return data.augment(sample, augmentation, rng)

        monkeypatch.setattr(cfe, "augment", recording_augment)
        ws = _Workspace(config.out_dir)
        stage_gen_data(config, ws)
        stage_train_cfe(config, ws)
        assert received and all(augmentation is config.augment for augmentation in received)

    def test_value_types_follow_field_defaults(self):
        config = build_config({"cluster": {"k": None}, "dataset": {"separation": 5}})
        assert config.cluster.k is None and config.dataset.separation == 5
        assert build_config({"cluster": {"k": 12}}).cluster.k == 12
        with pytest.raises(ParameterError, match=r"unknown config key: cfe.normalize"):
            build_config({"cfe": {"normalize": 1}})
        with pytest.raises(ParameterError, match=r"cfe.temperature must be a number, not true"):
            build_config({"cfe": {"temperature": True}})
        with pytest.raises(ParameterError, match=r"maml.epochs must be an integer, not true"):
            build_config({"maml": {"epochs": True}})
        with pytest.raises(ParameterError, match=r"eval.shots\[1\] must be an integer, not 1.5"):
            build_config({"eval": {"shots": [1, 1.5]}})

    def test_readme_defaults_match_config(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## Configuration", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        assert asdict(build_config(json.loads(block))) == asdict(PipelineConfig())

    @pytest.mark.parametrize("workload", ["default", "maml-progressive", "proto-scaled", "maml-eval"])
    def test_manifest_config_echo_builds_the_run_config(self, tmp_path, workload):
        # each stage record holds every field of the config it ran with
        # once, so it is itself a valid --config
        raw = {} if workload == "default" else perfbench_workloads()[workload]
        config = build_config({**raw, "seed": 1, "out_dir": str(tmp_path)})
        run_pipeline(config, _Workspace(config.out_dir))
        stages = json.loads((tmp_path / "manifest.json").read_text())["stages"]
        assert len(stages) == 7
        for name, record in stages.items():
            assert asdict(build_config(record["config"])) == asdict(config), name

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

    @pytest.mark.parametrize(
        "content, message",
        [
            (tiny_json(seed="x"), 'config key seed must be an integer, not "x"'),
            (tiny_json(cfe={"hidden_dims": None}), "config key cfe.hidden_dims must be a list, not null"),
            (tiny_json(dataset={"per_class": 2.5}), "config key dataset.per_class must be an integer, not 2.5"),
            (tiny_json(cluster={"k": "x"}), 'cluster.k must be null or an integer, not "x"'),
            # a config file that is not a JSON object, or not UTF-8
            (b"[]", "a config must be a JSON object, not []"),
            (b"null", "a config must be a JSON object, not null"),
            (b"3", "a config must be a JSON object, not 3"),
            (b'{"out_dir": "\xe9"}', "'utf-8' codec can't decode byte 0xe9"),
        ],
        ids=["seed", "hidden_dims", "per_class", "cluster_k", "list", "null", "number", "latin_1"],
    )
    def test_ill_typed_value_exits_2(self, tmp_path, capsys, content, message):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        out = tmp_path / "o"
        assert main(["pipeline", "--config", str(path), "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"configuration error: {message}" in err and "Traceback" not in err
        assert not any(out.glob("*"))

    def test_augment_inside_cfe_section_exits_2(self, tmp_path, capsys):
        # the augmentation is the top-level section only; CfeConfig has no
        # augment field
        path = write_tiny_config(tmp_path, cfe={**TINY["cfe"], "augment": {"noise_std": 0.1}})
        assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        assert "unknown config key: cfe.augment" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, values, field",
        [
            ("cfe", {"batch_positives": 1, "queue_capacity": 4}, "cfe.batch_positives"),
            ("cfe", {"queue_capacity": 0}, "cfe.queue_capacity"),
            ("cfe", {"embed_dim": 1}, "cfe.embed_dim"),
            ("cfe", {"activation": "sigmoid"}, "cfe.activation"),
            ("maml", {"activation": "sigmoid"}, "maml.activation"),
            # the unnormalized CFE path was deleted: its ratio loss is unbounded
            ("cfe", {"normalize": False}, "unknown config key: cfe.normalize"),
            # each shot count names its own eval CSV
            ("eval", {"shots": [1, 1]}, "eval.shots"),
            ("eval", {"shots": []}, "eval.shots"),
            # a scale range is [lo, hi]
            ("augment", {"scale_range": []}, "augment.scale_range"),
            ("augment", {"scale_range": [0.9]}, "augment.scale_range"),
            ("augment", {"scale_range": [0.9, 1.1, 1.2]}, "augment.scale_range"),
            # every layer has at least one unit
            ("cfe", {"hidden_dims": [0]}, "cfe.hidden_dims"),
            ("cfe", {"hidden_dims": [-2]}, "cfe.hidden_dims"),
            ("maml", {"encoder_hidden": [0]}, "maml.encoder_hidden"),
            ("maml", {"encoder_hidden": [-1]}, "maml.encoder_hidden"),
            ("maml", {"encoder_dim": 0}, "maml.encoder_dim"),
            ("cluster", {"k": 0}, "cluster.k"),
            ("cluster", {"k": -3}, "cluster.k"),
        ],
        ids=["batch_positives", "queue_capacity", "embed_dim", "cfe_activation", "maml_activation",
             "cfe_normalize", "repeated_eval_shots", "empty_eval_shots", "empty_scale_range",
             "short_scale_range", "long_scale_range", "zero_cfe_hidden", "negative_cfe_hidden",
             "zero_maml_hidden", "negative_maml_hidden", "zero_maml_encoder_dim", "zero_cluster_k",
             "negative_cluster_k"],
    )
    def test_config_that_cannot_run_writes_nothing(self, tmp_path, capsys, section, values, field):
        # each of these used to pass the config check, write artifacts and
        # fail in a later stage, or fail in the config check with a traceback
        path = write_tiny_config(tmp_path, **{section: {**TINY.get(section, {}), **values}})
        out = tmp_path / "o"
        code = main(["pipeline", "--config", str(path), "--out", str(out), "--seed", "1"])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert not any(out.glob("*"))

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_seed_writes_nothing(self, tmp_path, capsys, where):
        # SeedSequence refuses a negative seed with a traceback in the first stage
        path = write_tiny_config(tmp_path, **({"seed": -1} if where == "config" else {}))
        out = tmp_path / "o"
        flags = ["--seed", "-1"] if where == "flag" else []
        assert main(["gen-data", "--config", str(path), "--out", str(out), *flags]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "seed must be >= 0, not -1" in err and "Traceback" not in err
        assert not any(out.glob("*"))

    def test_tasks_flag_refusals(self, tmp_path, capsys):
        # --tasks 0 used to write 100 tasks and --tasks -3 a header-only
        # tasks.csv, and any other command ignored the flag
        path = write_tiny_config(tmp_path)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(path), "--out", str(out)]) == EXIT_OK
        cases = [["build-tasks", "--tasks", "0"], ["build-tasks", "--tasks", "-3"],
                 ["meta-eval", "--tasks", "5"], ["pipeline", "--tasks", "5"]]
        for argv in cases:
            capsys.readouterr()
            assert main([*argv, "--config", str(path), "--out", str(out)]) == EXIT_VALIDATION, argv
            err = capsys.readouterr().err
            assert "--tasks" in err and "Traceback" not in err, argv
        assert not (out / "tasks.csv").exists()

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
        assert set(manifest) == {"format", "stages", "artifacts"}
        assert all(set(record) == {"inputs", "outputs", "config"} for record in manifest["stages"].values())
        assert manifest["stages"]["gen-data"]["config"]["seed"] == 11

    @pytest.mark.parametrize("method", ["maml", "proto"])
    @pytest.mark.parametrize("episodes", ["standard", "progressive"])
    def test_identical_runs_are_byte_identical(self, tmp_path, episodes, method):
        # gate 0 makes every progressive batch after the first epoch run the
        # progressive sampler
        path = write_tiny_config(tmp_path, episodes={**TINY["episodes"], "gate_threshold": 0.0})
        flags = ["--config", str(path), "--episodes", episodes, "--method", method]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["pipeline", *flags, "--out", str(out1)]) == EXIT_OK
        assert main(["pipeline", *flags, "--out", str(out2)]) == EXIT_OK
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
        assert json.loads((staged / "manifest.json").read_text())["artifacts"] == manifest["artifacts"]

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

    def test_clusters_from_another_seed_exit_2(self, tmp_path, capsys):
        path = write_tiny_config(tmp_path)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(path), "--out", str(out),
                     "--seed", "1234"]) == EXIT_OK
        for stage in ("meta-train", "build-tasks"):
            capsys.readouterr()
            assert main([stage, "--config", str(path), "--out", str(out),
                         "--seed", "99"]) == EXIT_VALIDATION
            err = capsys.readouterr().err
            assert f"runs with seed 99, but its inputs in {out} were made with 1234" in err
            assert "Traceback" not in err
        # a sample_index column edited by hand passes the manifest check,
        # and the cluster reader refuses it
        assignment = out / "clusters_assignment.csv"
        header, first, second, *rest = assignment.read_text().splitlines()
        assignment.write_text("\n".join([header, second, first, *rest]) + "\n")
        assert main(["meta-train", "--config", str(path), "--out", str(out),
                     "--seed", "1234"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "sample_index column" in err and "Traceback" not in err

    def test_out_of_range_cluster_id_exits_2(self, tmp_path, capsys):
        # a row outside [0, k) must be refused, not dropped from the index
        path = write_tiny_config(tmp_path)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(path), "--out", str(out)]) == EXIT_OK
        assignment = out / "clusters_assignment.csv"
        header, first, *rest = assignment.read_text().splitlines()
        sample = first.split(",")[0]
        for cluster_id in (-1, 8):
            assignment.write_text("\n".join([header, f"{sample},{cluster_id}", *rest]) + "\n")
            for episodes in ("standard", "progressive"):
                capsys.readouterr()
                assert main(["meta-train", "--config", str(path), "--out", str(out),
                             "--episodes", episodes]) == EXIT_VALIDATION
                err = capsys.readouterr().err
                assert "pseudo-labels must lie in [0, 8)" in err
                assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            (
                "clusters_assignment.csv",
                lambda rows: rows[1].replace(rows[1].split(",")[1], "abc"),
                "line 2: invalid literal for int() with base 10: 'abc'",
            ),
            (
                "clusters_centers.csv",
                lambda rows: rows[1].rsplit(",", 1)[0] + ",abc",
                "line 2: could not convert string to float: 'abc'",
            ),
            (
                "clusters_centers.csv",
                lambda rows: rows[1].rsplit(",", 1)[0],
                "line 2: 8 columns, the header has 9",
            ),
            (
                "clusters_centers.csv",
                lambda rows: "7" + rows[1][rows[1].index(","):],
                "line 2: cluster_id 7, expected 0",
            ),
        ],
        ids=["non-integer-cell", "non-float-cell", "short-row", "centers-id"],
    )
    def test_malformed_cluster_csv_exits_2(self, tmp_path, capsys, name, edit, message):
        path = write_tiny_config(tmp_path)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(path), "--out", str(out)]) == EXIT_OK
        rows = (out / name).read_text().splitlines()
        (out / name).write_text("\n".join([rows[0], edit(rows), *rows[2:]]) + "\n")
        capsys.readouterr()
        assert main(["meta-train", "--config", str(path), "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{out / name} {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name, stage, at, before, after, message",
        [
            ("cfe_trained.plcf", "embed", 20, (8, 16), (1, 135),
             "layer 1 expects 135 inputs but layer 0 outputs 16"),
            ("meta_model.plcf", "meta-eval", 28, (3, 16), (17, 2),
             "layer 2 expects 2 inputs but layer 1 outputs 16"),
        ],
        ids=["encoder-layer", "fewshot-head"],
    )
    def test_checkpoint_shape_chain_exits_2(self, tmp_path, capsys, name, stage, at, before, after, message):
        # the rewritten (rows, cols) keeps the float count, so the file
        # parses to its end and only the layer chain shows it is malformed
        path = write_tiny_config(tmp_path)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(path), "--out", str(out)]) == EXIT_OK
        raw = bytearray((out / name).read_bytes())
        assert struct.unpack_from("<II", raw, at) == before
        struct.pack_into("<II", raw, at, *after)
        (out / name).write_bytes(bytes(raw))
        capsys.readouterr()
        assert main([stage, "--config", str(path), "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{message} (at byte offset {at})" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "section, values, field",
        [("cfe", {"batch_positives": 81}, "cfe.batch_positives"), ("cluster", {"k": 81}, "cluster.k")],
    )
    def test_size_beyond_training_split_writes_nothing(self, tmp_path, capsys, section, values, field):
        # 4 x 25 rows less the 20-row test split leave 80 training rows;
        # both used to fail only after earlier stages wrote their artifacts
        path = write_tiny_config(tmp_path, **{section: {**TINY[section], **values}})
        out = tmp_path / "o"
        assert main(["pipeline", "--config", str(path), "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{field} is 81, more than the 80 training rows" in err and "Traceback" not in err
        assert not any(out.glob("*"))

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"episodes": {**TINY["episodes"], "ways": 9}}, "episodes.ways is 9, more than cluster.k = 8"),
            # the 20 held-out rows fall 7, 5, 6 and 2 into the 4 classes
            ({"episodes": {**TINY["episodes"], "ways": 5}},
             "episodes.ways is 5, more than the 3 held-out classes with eval.shots entry 1 + episodes.queries = 4 "
             "or more rows"),
            (
                {"episode_mode": "progressive", "episodes": {**TINY["episodes"], "candidate_neighbors": 8}},
                "episodes.candidate_neighbors is 8; progressive episodes need it below cluster.k = 8",
            ),
            # 4 x 25 rows: 80 training rows and a 20-row held-out split
            (
                {"episodes": {**TINY["episodes"], "queries": 30}},
                "episodes.ways x (episodes.shots + episodes.queries) is 93, more than the 80 training rows",
            ),
            (
                {"eval": {**TINY["eval"], "shots": [1, 4]}},
                "episodes.ways is 3, more than the 1 held-out classes with eval.shots entry 4 + episodes.queries "
                "= 7 or more rows",
            ),
            (
                {"dataset": {**TINY["dataset"], "test_fraction": 0.01}},
                "episodes.ways is 3, more than the 0 held-out classes with eval.shots entry 1 + episodes.queries "
                "= 4 or more rows",
            ),
        ],
        ids=["ways-above-k", "ways-above-classes", "progressive-neighbors-at-k", "task-beyond-training-rows",
             "eval-task-beyond-held-out-rows", "held-out-split-below-one-task"],
    )
    def test_impossible_episodes_write_nothing(self, tmp_path, capsys, extra, message):
        # each used to exit 2 or 3 only after gen-data, train-cfe and more
        # had written their artifacts
        path = write_tiny_config(tmp_path, **extra)
        out = tmp_path / "o"
        assert main(["pipeline", "--config", str(path), "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not any(out.glob("*"))

    def test_meta_eval_draw_failure_names_held_out_classes(self, tmp_path, capsys):
        # 18 of the 20 held-out rows would do, but the held-out classes have
        # 7, 5, 6 and 2 rows, so only two can give 6 rows; meta-eval used to
        # draw its tasks, and exit 3, after every other stage had written
        path = write_tiny_config(tmp_path, eval={**TINY["eval"], "shots": [3]})
        out = tmp_path / "o"
        assert main(["pipeline", "--config", str(path), "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert ("episodes.ways is 3, more than the 2 held-out classes with eval.shots entry 3 + "
                "episodes.queries = 6 or more rows") in err and "Traceback" not in err
        assert not any(out.glob("*"))

    def test_held_out_classes_too_small_for_a_task_write_nothing(self, tmp_path):
        # seed 1's held-out classes have 26, 27, 9, 18, 25, 15, 24 and 16
        # rows, so only 4 give 15 shots + 5 queries to the 5 ways; this ran
        # every stage, wrote 14 artifacts and exited 3 in meta-eval
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"eval": {"shots": [15]}}))
        out = tmp_path / "o"
        src = str(Path(plcfe.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "plcfe", "pipeline", "--config", str(path), "--out", str(out), "--seed", "1"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == EXIT_VALIDATION, proc.stderr
        assert proc.stderr.splitlines() == [
            "validation error in pipeline: episodes.ways is 5, more than the 4 held-out classes with "
            "eval.shots entry 15 + episodes.queries = 20 or more rows"
        ]
        assert not any(out.glob("*"))

    def test_small_temperature_runs_to_a_finite_ratio(self, tmp_path):
        # exp(mu . mu / tau) overflows at tau = 0.001, so metrics used to
        # exit 3 after train-cfe and embed had written
        path = write_tiny_config(tmp_path, cfe={**TINY["cfe"], "temperature": 0.001})
        out = tmp_path / "o"
        assert main(["pipeline", "--config", str(path), "--out", str(out)]) == EXIT_OK
        for tag in ("initial", "trained"):
            rows = dict(line.split(",") for line in (out / f"similarity_{tag}.csv").read_text().splitlines())
            assert rows["temperature"] == "0.001"
            assert 0.0 < float(rows["ratio"]) < float("inf"), (tag, rows["ratio"])

    @pytest.mark.parametrize(
        "name, stage, outputs, head_field",
        [("cfe_trained.plcf", "embed", "embeddings.plem", False),
         ("meta_model.plcf", "meta-eval", "eval_*.csv", True)],
        ids=["encoder-pair", "fewshot-model"],
    )
    def test_version_1_checkpoint_exits_2(self, tmp_path, capsys, name, stage, outputs, head_field):
        # version 1 activated every encoder's last layer, so its networks
        # must not be read as this version's, which end linearly; a
        # version-1 few-shot model listed only its encoder's layers, and
        # its head's shape after them
        path = write_tiny_config(tmp_path)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(path), "--out", str(out)]) == EXIT_OK
        for produced in out.glob(outputs):
            produced.unlink()
        raw = bytearray((out / name).read_bytes())
        layers = struct.unpack_from("<H", raw, 10)[0]
        struct.pack_into("<HH", raw, 4, 1, *struct.unpack_from("<H", raw, 6))
        struct.pack_into("<H", raw, 10, layers - head_field)
        (out / name).write_bytes(bytes(raw))
        capsys.readouterr()
        assert main([stage, "--config", str(path), "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert "unsupported format version 1, expected 2" in err and "Traceback" not in err
        assert not list(out.glob(outputs))

    def test_standard_episodes_ignore_candidate_neighbors(self, tmp_path):
        path = write_tiny_config(tmp_path, episodes={**TINY["episodes"], "candidate_neighbors": 8})
        assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_OK

    def test_train_cfe_refuses_batch_before_writing(self, tmp_path, capsys):
        path = write_tiny_config(tmp_path, cfe={**TINY["cfe"], "batch_positives": 81})
        out = tmp_path / "o"
        assert main(["gen-data", "--config", str(path), "--out", str(out)]) == EXIT_OK
        before = snapshot(out)
        capsys.readouterr()
        assert main(["train-cfe", "--config", str(path), "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "cfe.batch_positives is 81, more than the 80 training rows" in err
        assert snapshot(out) == before

    @pytest.mark.parametrize(
        "section, values",
        # the similarity ratio overflows where a class center is shorter than
        # another and points along it: after CFE training at 1e-8, and with
        # these two-layer encoders untrained
        [("cfe", {"temperature": 1e-8}), ("maml", {"outer_lr": 1e6}), ("maml", {"inner_lr": 1e6}),
         ("cfe", {"epochs": 0, "hidden_dims": [16, 16], "temperature": 1e-6})],
        ids=["cfe-temperature", "maml-outer-lr", "maml-inner-lr", "similarity-temperature"],
    )
    def test_overflow_exits_3_with_one_stderr_line(self, tmp_path, section, values):
        # numpy warnings go to stderr in a plain interpreter, not under
        # pytest's capture, so the run is a subprocess
        path = write_tiny_config(tmp_path, **{section: {**TINY[section], **values}})
        src = str(Path(plcfe.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "plcfe", "pipeline", "--config", str(path), "--out", str(tmp_path / "o")],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == EXIT_RUNTIME, proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert "non-finite" in proc.stderr

    def test_meta_eval_refuses_split_of_another_seed(self, tmp_path, capsys):
        # with seed 99 the test split overlaps rows the seed-1234 encoder
        # and model were trained on
        path = write_tiny_config(tmp_path)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(path), "--out", str(out),
                     "--seed", "1234"]) == EXIT_OK
        capsys.readouterr()
        assert main(["meta-eval", "--config", str(path), "--out", str(out),
                     "--seed", "99"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"runs with seed 99, but its inputs in {out} were made with 1234" in err
        assert "Traceback" not in err

    def test_meta_eval_ways_must_match_maml_head(self, tmp_path, capsys):
        path = write_tiny_config(tmp_path)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(path), "--out", str(out)]) == EXIT_OK
        # one query per way leaves each of the 4 held-out classes enough rows
        for ways in ("2", "4"):
            capsys.readouterr()
            assert main(["meta-eval", "--config", str(path), "--out", str(out),
                         "--ways", ways, "--queries", "1"]) == EXIT_VALIDATION
            err = capsys.readouterr().err
            assert f"maml head has 3 ways, the episodes {ways}" in err
            assert "Traceback" not in err

    def test_meta_eval_proto_accepts_other_ways(self, tmp_path):
        path = write_tiny_config(tmp_path)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(path), "--out", str(out),
                     "--method", "proto"]) == EXIT_OK
        assert main(["meta-eval", "--config", str(path), "--out", str(out),
                     "--method", "proto", "--ways", "2"]) == EXIT_OK
        header, row = (out / "eval_proto_shot1.csv").read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["ways"] == "2"

    def test_meta_eval_refuses_shots_flag(self, tmp_path, capsys):
        path = write_tiny_config(tmp_path)
        code = main(["meta-eval", "--config", str(path), "--out", str(tmp_path / "o"),
                     "--shots", "5"])
        assert code == EXIT_VALIDATION
        assert "eval.shots" in capsys.readouterr().err

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

    def test_progressive_finetuning_follows_inner_steps(self, tmp_path, monkeypatch):
        # gate 0 makes every build-tasks task progressive, and each one
        # finetunes the loaded model on its support set once
        path = write_tiny_config(
            tmp_path,
            episodes={**TINY["episodes"], "gate_threshold": 0.0},
            maml={**TINY["maml"], "inner_steps": 2},
        )
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(path), "--out", str(out)]) == EXIT_OK
        steps = []
        adapt = metalearn.maml_inner_adapt

        def recording_adapt(model, support_x, support_y, alpha, n_steps):
            steps.append(n_steps)
            return adapt(model, support_x, support_y, alpha, n_steps)

        monkeypatch.setattr(metalearn, "maml_inner_adapt", recording_adapt)
        assert main(["build-tasks", "--config", str(path), "--out", str(out),
                     "--episodes", "progressive", "--tasks", "5"]) == EXIT_OK
        assert steps == [2] * 5

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


class TestStageRunner:
    """Every stage, run alone or inside `pipeline`, is checked against
    manifest.json before it writes and recorded in it after."""

    @staticmethod
    def run(tmp_path, **extra):
        """A TINY pipeline run, and a config file with `extra` over TINY."""
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(write_tiny_config(tmp_path)), "--out", str(out)]) == EXIT_OK
        return write_tiny_config(tmp_path, **extra), out

    @staticmethod
    def manifest(out) -> dict:
        return json.loads((out / "manifest.json").read_text())

    def test_rerun_records_its_outputs_and_drops_what_was_made_from_them(self, tmp_path):
        path, out = self.run(tmp_path)
        assert main(["meta-train", "--config", str(path), "--out", str(out), "--queries", "2"]) == EXIT_OK
        manifest = self.manifest(out)
        for name, digest in manifest["artifacts"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
        assert "meta_model.plcf" in manifest["artifacts"]
        assert not [name for name in manifest["artifacts"] if name.startswith("eval_")]
        assert "meta-eval" not in manifest["stages"]
        # a rerun drops every entry made from its outputs, directly or not
        assert main(["train-cfe", "--config", str(path), "--out", str(out)]) == EXIT_OK
        assert set(self.manifest(out)["artifacts"]) == {
            "dataset.plds", "cfe_initial.plcf", "cfe_trained.plcf", "cfe_loss_trace.csv"
        }
        # gen-data starts the manifest afresh
        assert main(["gen-data", "--config", str(path), "--out", str(out), "--seed", "5"]) == EXIT_OK
        assert set(self.manifest(out)["artifacts"]) == {"dataset.plds"}

    def test_failed_rerun_leaves_its_old_entries_unlisted(self, tmp_path, capsys):
        # finetuning at this inner_lr overflows the query scores, so meta-eval
        # fails after the runner has dropped its old entries
        path, out = self.run(tmp_path, maml={**TINY["maml"], "inner_lr": 1e6})
        assert main(["meta-eval", "--config", str(path), "--out", str(out)]) == EXIT_RUNTIME
        assert "non-finite query scores" in capsys.readouterr().err
        manifest = self.manifest(out)
        assert "meta-eval" not in manifest["stages"]
        assert not [name for name in manifest["artifacts"] if name.startswith("eval_")]

    def test_model_of_replaced_clusters_is_refused(self, tmp_path, capsys):
        path, out = self.run(tmp_path, cluster={"k": 6})
        assert main(["cluster", "--config", str(path), "--out", str(out)]) == EXIT_OK
        before = snapshot(out)
        capsys.readouterr()
        assert main(["meta-eval", "--config", str(path), "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"needs {out / 'meta_model.plcf'}, which is missing or was made stale" in err
        assert "Traceback" not in err
        assert snapshot(out) == before

    def test_cluster_refuses_k_below_ways_before_writing(self, tmp_path, capsys):
        # no 3-way task can be drawn from 2 clusters; cluster used to exit 0
        # here, and meta-train with the run's own k of 8 then exited 3
        path, out = self.run(tmp_path, cluster={"k": 2})
        before = snapshot(out)
        capsys.readouterr()
        assert main(["cluster", "--config", str(path), "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "episodes.ways is 3, more than cluster.k = 2" in err and len(err.splitlines()) == 1, err
        assert snapshot(out) == before

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"dataset": {**TINY["dataset"], "separation": 5.0}}, "runs with dataset.separation 5.0, but"),
            # no held-out class has 6 shots + 3 queries of rows
            ({"eval": {**TINY["eval"], "shots": [1, 6]}},
             "episodes.ways is 3, more than the 0 held-out classes with eval.shots entry 6 + episodes.queries = 9"),
        ],
        ids=["dataset-section", "eval-shots-beyond-held-out"],
    )
    def test_meta_eval_refusal_writes_nothing(self, tmp_path, capsys, extra, message):
        path, out = self.run(tmp_path, **extra)
        for produced in out.glob("eval_*.csv"):
            produced.unlink()
        before = snapshot(out)
        capsys.readouterr()
        assert main(["meta-eval", "--config", str(path), "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1, err
        assert snapshot(out) == before

    @pytest.mark.parametrize("stage", ["meta-eval", "build-tasks"])
    def test_method_other_than_the_models_is_refused(self, tmp_path, capsys, stage):
        path, out = self.run(tmp_path)
        before = snapshot(out)
        capsys.readouterr()
        code = main([stage, "--config", str(path), "--out", str(out),
                     "--method", "proto", "--episodes", "progressive"])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"stage '{stage}' runs with method \"proto\", but its inputs in {out} were made with \"maml\"" in err
        assert len(err.splitlines()) == 1, err
        assert snapshot(out) == before

    def test_meta_train_refuses_clusters_of_another_k(self, tmp_path, capsys):
        # meta-train sizes its tasks by its own cluster.k; it used to exit 0
        # here, training on the k = 8 clusters on disk
        path, out = self.run(tmp_path, cluster={"k": 6})
        before = snapshot(out)
        capsys.readouterr()
        assert main(["meta-train", "--config", str(path), "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"stage 'meta-train' runs with cluster.k 6, but its inputs in {out} were made with 8" in err
        assert len(err.splitlines()) == 1, err
        assert snapshot(out) == before

    def test_embed_records_the_config_it_ran_with(self, tmp_path):
        # embed re-derives no config key of its inputs' makers, so it runs;
        # its record says what it ran with, train-cfe's what made the checkpoint
        path, out = self.run(tmp_path, cfe={**TINY["cfe"], "embed_dim": 4})
        assert main(["embed", "--config", str(path), "--out", str(out)]) == EXIT_OK
        stages = self.manifest(out)["stages"]
        assert stages["embed"]["config"]["cfe"]["embed_dim"] == 4
        assert stages["train-cfe"]["config"]["cfe"]["embed_dim"] == 8
        assert data.read_embeddings(out / "embeddings.plem").shape == (100, 8)

    def test_format_2_run_directory_exits_2(self, tmp_path, capsys):
        # a format-2 directory can hold a proto meta_model.plcf with the
        # untrained head of older code, which meta-eval would score through
        path, out = self.run(tmp_path)
        manifest = self.manifest(out)
        stages = {name: {"inputs": record["inputs"], "outputs": record["outputs"]}
                  for name, record in manifest["stages"].items()}
        stages["meta-train"]["method"] = "maml"
        (out / "manifest.json").write_text(json.dumps({
            "format": 2, "seed": 11, "config": manifest["stages"]["meta-eval"]["config"],
            "stages": stages, "artifacts": manifest["artifacts"],
        }))
        before = snapshot(out)
        capsys.readouterr()
        assert main(["meta-eval", "--config", str(path), "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{out / 'manifest.json'} is missing or not a format-3 manifest; rerun from gen-data" in err
        assert len(err.splitlines()) == 1, err
        assert snapshot(out) == before

    def test_standard_build_tasks_reads_no_model(self, tmp_path):
        path, out = self.run(tmp_path)
        assert main(["build-tasks", "--config", str(path), "--out", str(out),
                     "--method", "proto", "--tasks", "2"]) == EXIT_OK
        assert "tasks.csv" in self.manifest(out)["artifacts"]

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: None,
            lambda text: text[: len(text) // 2],
            lambda text: "not json\n",
            lambda text: json.dumps({**json.loads(text), "format": None}),
            # the format written before the stage runner: no format field,
            # and the stages as a list
            lambda text: json.dumps({key: value for key, value in json.loads(text).items() if key != "format"}
                                    | {"stages": list(json.loads(text)["stages"])}),
            # this format with a field the runner reads gone or of another type
            lambda text: json.dumps({"format": json.loads(text)["format"]}),
            manifest_edit(lambda manifest: manifest.pop("artifacts")),
            manifest_edit(lambda manifest: manifest.pop("stages")),
            manifest_edit(lambda manifest: manifest.update(stages=list(manifest["stages"].values()))),
            manifest_edit(lambda manifest: manifest.update(artifacts=list(manifest["artifacts"]))),
            manifest_edit(lambda manifest: manifest["stages"]["meta-train"].pop("outputs")),
            manifest_edit(lambda manifest: manifest["stages"]["gen-data"].pop("config")),
            manifest_edit(lambda manifest: manifest["stages"]["train-cfe"].pop("inputs")),
            manifest_edit(lambda manifest: manifest["stages"]["train-cfe"].update(inputs="dataset.plds")),
            manifest_edit(lambda manifest: manifest["stages"]["cluster"]["inputs"].append(["dataset.plds"])),
            manifest_edit(lambda manifest: manifest["stages"]["meta-train"].update(config=[])),
            manifest_edit(lambda manifest: manifest["stages"]["gen-data"]["config"].pop("dataset")),
            # a listed input that no record names as an output
            manifest_edit(lambda manifest: manifest["stages"].pop("meta-train")),
        ],
        ids=["missing", "truncated", "not-json", "no-format", "older-format", "format-only", "no-artifacts",
             "no-stages", "stages-list", "artifacts-list", "record-without-outputs", "record-without-config",
             "record-without-inputs", "inputs-string", "input-not-string", "config-list", "config-without-key",
             "input-without-maker"],
    )
    def test_bad_manifest_exits_2(self, tmp_path, capsys, edit):
        path, out = self.run(tmp_path)
        manifest = out / "manifest.json"
        text = edit(manifest.read_text())
        if text is None:
            manifest.unlink()
        else:
            manifest.write_text(text)
        before = snapshot(out)
        capsys.readouterr()
        assert main(["meta-eval", "--config", str(path), "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert f"{manifest} is missing or not a format-3 manifest; rerun from gen-data" in err
        assert snapshot(out) == before


def test_run_pipeline_returns_manifest(tmp_path):
    config = build_config(json.loads(json.dumps(TINY)))
    config.out_dir = str(tmp_path / "direct")
    manifest = run_pipeline(config, _Workspace(config.out_dir))
    assert set(manifest["stages"]) == {
        "gen-data", "train-cfe", "embed", "metrics", "cluster", "meta-train", "meta-eval"
    }


def test_setup_loads_neither_numpy_random_nor_scipy():
    # the benchmark's setup_s times exactly this, in a fresh interpreter:
    # the import of plcfe.cli and the build of a workload's config
    raws = [{**raw, "seed": 1, "out_dir": "unused"} for raw in perfbench_workloads().values()]
    script = (
        "import json, sys\n"
        "import plcfe.cli\n"
        f"for raw in {raws!r}:\n"
        "    plcfe.cli.build_config(raw)\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.startswith('numpy.random'))))\n"
    )
    src = str(Path(plcfe.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_pipeline_never_loads_scipy(tmp_path):
    # the cluster stage scores the k-means labels with clustering_accuracy;
    # a top-level or a lazy scipy import would both leave scipy in
    # sys.modules of a fresh interpreter
    path = write_tiny_config(tmp_path)
    out = tmp_path / "o"
    script = (
        "import json, sys\n"
        "from plcfe.cli import main\n"
        f"code = main(['pipeline', '--config', {str(path)!r}, '--out', {str(out)!r}])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    src = str(Path(plcfe.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [EXIT_OK, []]
    assert (out / "clustering_quality.csv").exists()


# the values a string config key takes; every other key is fuzzed by the type of its default
STRING_CHOICES = {"method": ("maml", "proto"), "episode_mode": ("standard", "progressive"), "activation": ACTIVATIONS}


def near(value):
    """JSON values of `value`'s type, from 0 to about twice it."""
    if isinstance(value, (list, tuple)):
        return st.lists(near(value[0]), max_size=3)
    if isinstance(value, float):
        return st.floats(0.0, max(2 * value, 1.0))
    return st.integers(0, 2 * value + 1)


def key_strategies(default, tiny: dict, prefix: str = "") -> dict:
    """A strategy for every config key but out_dir, by its dotted name, read
    off PipelineConfig's own fields: values near its TINY value, or near its
    default where TINY does not set it."""
    keys = {}
    for f in fields(default):
        value = getattr(default, f.name)
        if is_dataclass(value):
            keys.update(key_strategies(value, tiny.get(f.name, {}), f"{prefix}{f.name}."))
        elif f.name in STRING_CHOICES:
            keys[prefix + f.name] = st.sampled_from(STRING_CHOICES[f.name])
        elif f.name != "out_dir":
            values = near(tiny.get(f.name, value))
            keys[prefix + f.name] = (values | st.none()) if value is None else values
    return keys


FUZZED_KEYS = key_strategies(PipelineConfig(), TINY)


@st.composite
def fuzzed_configs(draw) -> dict:
    """TINY with one to four keys set to fuzzed values."""
    raw = json.loads(json.dumps(TINY))
    for name in draw(st.lists(st.sampled_from(sorted(FUZZED_KEYS)), min_size=1, max_size=4, unique=True)):
        section, _, key = name.rpartition(".")
        (raw.setdefault(section, {}) if section else raw)[key] = draw(FUZZED_KEYS[name])
    return raw


# a runtime failure that no check of the config could foresee: k-means left
# too few large clusters, a trained encoder maps every row to one point, or
# a loss, score or norm overflowed
DATA_DEPENDENT = re.compile(r"only \d+ clusters have \d+\+ members, need \d+|data has no variance|non-finite")


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(raw=fuzzed_configs())
def test_fuzzed_config_runs_or_is_refused_in_one_line(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "run"
        path.write_text(json.dumps(raw))
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main(["pipeline", "--config", str(path), "--out", str(out)])
        lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
        written = sorted(p.name for p in out.iterdir()) if out.exists() else []
    if code == EXIT_OK:
        assert lines == []
    elif code == EXIT_VALIDATION:
        assert len(lines) == 1 and written == [], (lines, written)
    else:
        assert code == EXIT_RUNTIME and len(lines) == 1 and DATA_DEPENDENT.search(lines[0]), (code, lines)
