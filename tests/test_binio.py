import ast
import struct
from pathlib import Path

import numpy as np
import pytest

import plcfe
from plcfe._binio import artifact_file, write_csv
from plcfe.cfe import CfeConfig, EncoderPair, load_checkpoint, save_checkpoint
from plcfe.errors import FormatError
from plcfe.metalearn import MamlConfig, init_fewshot_model, load_model, save_model
from plcfe.numcore import MlpParams

from helpers import make_rng


class TestArtifactFile:
    def test_clean_exit_replaces_file(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("old\n")
        with artifact_file(path) as fh:
            fh.write("new\r\n")
        assert path.read_bytes() == b"new\r\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("mode, payload", [("w", "new"), ("wb", b"new")])
    def test_exception_keeps_previous_bytes(self, tmp_path, mode, payload):
        path = tmp_path / "a.bin"
        path.write_bytes(b"old bytes")
        with pytest.raises(RuntimeError, match="stage failed"):
            with artifact_file(path, mode) as fh:
                fh.write(payload)
                fh.flush()
                raise RuntimeError("stage failed")
        assert path.read_bytes() == b"old bytes"
        assert list(tmp_path.iterdir()) == [path]

    def test_exception_leaves_no_file_where_none_was(self, tmp_path):
        def rows():
            yield [1, 2]
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            write_csv(tmp_path / "a.csv", ["x", "y"], rows())
        assert list(tmp_path.iterdir()) == []


def test_checkpoint_header_checks_version_and_kind(tmp_path):
    pair_path, model_path = tmp_path / "pair.plcf", tmp_path / "model.plcf"
    save_checkpoint(EncoderPair.initialize(3, CfeConfig(), make_rng(1)), pair_path)
    save_model(init_fewshot_model(3, 2, MamlConfig(), make_rng(2)), model_path)
    with pytest.raises(FormatError, match="kind 0 is not a few-shot model") as excinfo:
        load_model(pair_path)
    assert excinfo.value.offset == 6
    with pytest.raises(FormatError, match="kind 1 is not an encoder pair"):
        load_checkpoint(model_path)
    raw = bytearray(pair_path.read_bytes())
    raw[4] = 9  # low byte of the u16 version
    pair_path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="unsupported format version 9") as excinfo:
        load_checkpoint(pair_path)
    assert excinfo.value.offset == 4


def test_only_binio_opens_files_for_writing():
    # audit: every artifact goes through _binio's atomic writer, so no other
    # module opens a file in a write mode or writes a path directly
    for source in sorted(Path(plcfe.__file__).parent.glob("*.py")):
        if source.name == "_binio.py":
            continue
        for node in ast.walk(ast.parse(source.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            where = f"{source.name}:{node.lineno}"
            assert name not in ("write_text", "write_bytes"), where
            if name == "open":
                modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
                for mode in modes:
                    assert isinstance(mode, ast.Constant) and not set(mode.value) & set("wax+"), where


def test_no_module_calls_add_at():
    # audit: group sums are one flat np.bincount over (group, column) ids,
    # which adds in the same row order as np.add.at and runs several times faster
    for source in sorted(Path(plcfe.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "at":
                assert getattr(node.value, "attr", None) != "add", f"{source.name}:{node.lineno}"


def test_fewshot_checkpoint_bytes_are_the_documented_layout(tmp_path):
    # header, the activation code and every layer's shape, the head's
    # (ways, input dim) last, then every layer's weight and bias, head last
    w1, b1 = np.arange(6.0).reshape(3, 2) / 7, np.array([0.5, -0.25, 1.0])
    w2, b2 = -np.arange(6.0).reshape(2, 3) / 3, np.array([2.0, -1.0])
    path = tmp_path / "model.plcf"
    save_model(MlpParams([(w1, b1), (w2, b2)], "tanh"), path)
    floats = [*w1.ravel(), *b1, *w2.ravel(), *b2]
    expected = (
        b"PLCF"
        + struct.pack("<HHHH", 2, 1, 1, 2)  # version, kind, tanh, two layers
        + struct.pack("<II", 3, 2)
        + struct.pack("<II", 2, 3)  # the head: ways, input dim
        + struct.pack(f"<{len(floats)}d", *floats)
    )
    assert path.read_bytes() == expected
    back = load_model(path)
    assert back.activation == "tanh" and back.shapes == ((3, 2), (2, 3))
    assert np.array_equal(back.vector, floats)


def test_checkpoint_without_layers_is_format_error(tmp_path):
    path = tmp_path / "pair.plcf"
    save_checkpoint(EncoderPair.initialize(3, CfeConfig(), make_rng(1)), path)
    raw = bytearray(path.read_bytes())
    raw[10:12] = struct.pack("<H", 0)  # the layer count
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="checkpoint encoder has no layers") as excinfo:
        load_checkpoint(path)
    assert excinfo.value.offset == 10
