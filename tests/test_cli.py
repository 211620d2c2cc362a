"""End-to-end runs of the command-line pipeline in temp directories."""

import csv
import hashlib
import json
import math
import os

import pytest

from meshmoe.cli import main
from meshmoe.mesh import load_off

TINY_INI = """
[run]
seed = 13

[gate]
encoder_layers = 1
decoder_layers = 1
d_model = 8
heads = 2
ff_width = 16

[experts]
specs = oracle:0,oracle:1

[trainer]
epochs = 2
batch_size = 4
walks_train = 4
walks_infer = 8

[data]
classes = 2
per_class = 4
"""


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_INI)
    return str(path)


def run(*argv):
    return main(list(argv))


def test_gen_data_outputs(tmp_path, tiny_config):
    out = str(tmp_path / "run")
    assert run("gen-data", "--config", tiny_config, "--out-dir", out) == 0
    data = os.path.join(out, "data")
    assert os.path.exists(os.path.join(data, "manifest.csv"))
    assert any(name.endswith(".off") for name in os.listdir(data))
    with open(os.path.join(out, "manifest_gen-data.json")) as fh:
        manifest = json.load(fh)
    assert manifest["seed"] == 13
    assert manifest["command"] == "gen-data"
    assert manifest["inputs"][tiny_config]  # sha256 of the config file
    assert manifest["config"]["data"]["classes"] == 2


def test_full_pipeline_report_rows(tmp_path, tiny_config):
    out = str(tmp_path / "run")
    assert run("gen-data", "--config", tiny_config, "--out-dir", out) == 0
    assert run("train", "--config", tiny_config, "--out-dir", out,
               "--static-lambda", "0") == 0
    assert os.path.exists(os.path.join(out, "model.ckpt"))
    assert os.path.exists(os.path.join(out, "train_log.csv"))
    assert run("eval", "--config", tiny_config, "--out-dir", out) == 0
    assert run("eval", "--config", tiny_config, "--out-dir", out,
               "--ensemble") == 0
    with open(os.path.join(out, "report.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["split", "method", "metric", "value"]
    assert len(rows) == 3
    methods = {row[1] for row in rows[1:]}
    assert methods == {"moe", "ensemble"}
    for row in rows[1:]:
        assert row[0] == "test" and row[2] == "accuracy"
        assert 0.0 <= float(row[3]) <= 1.0


def test_pretrain_pipeline_feeds_train(tmp_path):
    ini = tmp_path / "face.ini"
    ini.write_text(TINY_INI.replace("specs = oracle:0,oracle:1",
                                    "specs = face_mlp,face_mlp"))
    config = str(ini)
    out = str(tmp_path / "run")
    assert run("gen-data", "--config", config, "--out-dir", out) == 0
    assert run("pretrain-experts", "--config", config, "--out-dir", out) == 0
    experts_ckpt = os.path.join(out, "experts.ckpt")
    assert os.path.exists(experts_ckpt)
    assert os.path.exists(os.path.join(out, "pretrain_losses.csv"))
    assert run("pretrain-gate", "--config", config, "--out-dir", out) == 0
    gate_ckpt = os.path.join(out, "gate_init.ckpt")
    assert os.path.exists(gate_ckpt)
    assert run("train", "--config", config, "--out-dir", out,
               "--static-lambda", "0") == 0
    with open(os.path.join(out, "manifest_train.json")) as fh:
        inputs = json.load(fh)["inputs"]
    for path in (experts_ckpt, gate_ckpt):
        with open(path, "rb") as fh:
            assert inputs[path] == hashlib.sha256(fh.read()).hexdigest()
    assert run("eval", "--config", config, "--out-dir", out) == 0
    with open(os.path.join(out, "report.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2 and rows[1][:3] == ["test", "moe", "accuracy"]


def test_bad_config_syntax_reports_error(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("seed = 3\n")
    assert run("gen-data", "--config", str(bad), "--out-dir",
               str(tmp_path / "run")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad.ini" in err


def test_agent_train_and_lambda_trace(tmp_path, tiny_config):
    out = str(tmp_path / "run")
    assert run("gen-data", "--config", tiny_config, "--out-dir", out) == 0
    assert run("train", "--config", tiny_config, "--out-dir", out) == 0
    with open(os.path.join(out, "train_log.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    # 2 epochs x 2 batches of 4 from 6 train meshes
    assert len(rows) == 4
    for row in rows:
        assert -1.0 <= float(row["lambda"]) <= 1.0


def test_flag_overrides_config(tmp_path, tiny_config):
    out = str(tmp_path / "run")
    assert run("gen-data", "--config", tiny_config, "--out-dir", out,
               "--seed", "99") == 0
    with open(os.path.join(out, "manifest_gen-data.json")) as fh:
        manifest = json.load(fh)
    assert manifest["seed"] == 99


def test_crash_while_appending_to_report_keeps_old_report(tmp_path, tiny_config,
                                                          monkeypatch):
    import types
    from meshmoe import cli

    out = str(tmp_path / "run")
    assert run("gen-data", "--config", tiny_config, "--out-dir", out) == 0
    assert run("train", "--config", tiny_config, "--out-dir", out,
               "--static-lambda", "0") == 0
    assert run("eval", "--config", tiny_config, "--out-dir", out) == 0
    report = os.path.join(out, "report.csv")
    with open(report, "rb") as fh:
        before = fh.read()

    def dying_writer(fh):
        real = csv.writer(fh)

        def writerow(row):
            real.writerow(row)
            if row[0] != "split":
                raise RuntimeError("killed mid-write")

        return types.SimpleNamespace(writerow=writerow)

    monkeypatch.setattr(cli, "csv", types.SimpleNamespace(writer=dying_writer))
    with pytest.raises(RuntimeError, match="killed mid-write"):
        run("eval", "--config", tiny_config, "--out-dir", out, "--ensemble")
    with open(report, "rb") as fh:
        assert fh.read() == before
    assert not [name for name in os.listdir(out) if name.endswith(".tmp")]


def test_eval_without_checkpoint_fails(tmp_path, tiny_config, capsys):
    out = str(tmp_path / "run")
    assert run("gen-data", "--config", tiny_config, "--out-dir", out) == 0
    assert run("eval", "--config", tiny_config, "--out-dir", out) == 1
    assert "no checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("ini, message", [
    ("[dataset]\nnum_classes = two\n", "dataset.ini:2: num_classes"),
    ("num_classes = 2\n", "dataset.ini:1: "),
], ids=["non-integer", "no-section"])
def test_bad_dataset_ini_reports_error(tmp_path, tiny_config, capsys, command, ini, message):
    out = str(tmp_path / "run")
    assert run("gen-data", "--config", tiny_config, "--out-dir", out) == 0
    with open(os.path.join(out, "data", "dataset.ini"), "w") as fh:
        fh.write(ini)
    capsys.readouterr()
    assert run(command, "--config", tiny_config, "--out-dir", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_manifest_missing_a_column_reports_error(tmp_path, tiny_config, capsys):
    out = str(tmp_path / "run")
    assert run("gen-data", "--config", tiny_config, "--out-dir", out) == 0
    assert run("train", "--config", tiny_config, "--out-dir", out,
               "--static-lambda", "0") == 0
    manifest = os.path.join(out, "data", "manifest.csv")
    with open(manifest, encoding="utf-8") as fh:
        header, body = fh.read().split("\n", 1)
    assert header == "mesh_id,file,class,split"
    for renamed, column in (("id,file,class,split", "mesh_id"),
                            ("mesh_id,path,class,split", "file")):
        with open(manifest, "w", encoding="utf-8") as fh:
            fh.write(renamed + "\n" + body)
        capsys.readouterr()
        assert run("eval", "--config", tiny_config, "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert err == f"error: {manifest}:1: missing column '{column}'\n"


@pytest.mark.parametrize("text, message", [
    ("OFF\n-1 0 0\n", "bad.off:2: negative"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 3\n", "bad.off:6: face index out of range [0, 3) or repeated"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 1\n", "bad.off:6: face index out of range [0, 3) or repeated"),
], ids=["negative-count", "index-out-of-range", "repeated-vertex"])
def test_dump_walks_bad_off_reports_file_and_line(tmp_path, capsys, text, message):
    off = tmp_path / "bad.off"
    off.write_text(text)
    assert run("dump-walks", "--mesh-file", str(off), "--count", "2") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_dump_walks_format(tmp_path, tiny_config, capsys):
    out = str(tmp_path / "run")
    assert run("gen-data", "--config", tiny_config, "--out-dir", out) == 0
    data = os.path.join(out, "data")
    off = os.path.join(data, sorted(n for n in os.listdir(data)
                                    if n.endswith(".off"))[0])
    mesh = load_off(off)
    expected_len = max(2, math.ceil(0.4 * len(mesh.vertices)))
    capsys.readouterr()
    assert run("dump-walks", "--mesh-file", off, "--count", "3",
               "--seed", "5") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        fields = line.split()
        assert fields[0] == mesh.mesh_id
        assert int(fields[1]) == expected_len
        indices = [int(v) for v in fields[2:]]
        assert len(indices) == expected_len
        assert len(set(indices)) == expected_len


def test_dump_walks_deterministic(tmp_path, tiny_config, capsys):
    out = str(tmp_path / "run")
    assert run("gen-data", "--config", tiny_config, "--out-dir", out) == 0
    data = os.path.join(out, "data")
    off = os.path.join(data, sorted(n for n in os.listdir(data)
                                    if n.endswith(".off"))[0])
    capsys.readouterr()
    assert run("dump-walks", "--mesh-file", off, "--seed", "7") == 0
    first = capsys.readouterr().out
    assert run("dump-walks", "--mesh-file", off, "--seed", "7") == 0
    assert capsys.readouterr().out == first
    # --out writes the same listing, through a temp file that is renamed
    walks = tmp_path / "walks.txt"
    assert run("dump-walks", "--mesh-file", off, "--seed", "7",
               "--out", str(walks)) == 0
    assert walks.read_bytes() == first.encode("utf-8")
    assert not list(tmp_path.glob("*.tmp"))


def test_bad_lambda_range_fails(tmp_path, tiny_config, capsys):
    out = str(tmp_path / "run")
    assert run("gen-data", "--config", tiny_config, "--out-dir", out) == 0
    assert run("train", "--config", tiny_config, "--out-dir", out,
               "--lambda-range", "oops") == 1
    assert "lambda-range" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [
    ("train", ("--batch-size", "-1")),
    ("train", ("--batch-size", "0")),
    ("pretrain-experts", ("--batch-size", "-2")),
    ("pretrain-experts", ("--epochs", "0")),
    ("pretrain-gate", ("--epochs", "0")),
], ids=["train_negative_batch", "train_zero_batch", "pretrain_negative_batch",
        "pretrain_experts_zero_epochs", "pretrain_gate_zero_epochs"])
def test_bad_batch_size_or_epochs_fails_cleanly(tmp_path, capsys, command, flags):
    ini = tmp_path / "face.ini"
    ini.write_text(TINY_INI.replace("specs = oracle:0,oracle:1", "specs = face_mlp"))
    out = str(tmp_path / "run")
    assert run("gen-data", "--config", str(ini), "--out-dir", out) == 0
    capsys.readouterr()
    assert run(command, "--config", str(ini), "--out-dir", out, *flags) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not os.path.exists(os.path.join(out, "experts.ckpt"))
    assert not os.path.exists(os.path.join(out, "model.ckpt"))


def test_train_with_zero_epochs_still_saves(tmp_path, tiny_config):
    out = str(tmp_path / "run")
    assert run("gen-data", "--config", tiny_config, "--out-dir", out) == 0
    assert run("train", "--config", tiny_config, "--out-dir", out,
               "--static-lambda", "0", "--epochs", "0") == 0
    assert os.path.exists(os.path.join(out, "model.ckpt"))


def test_unknown_flag_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("gen-data", "--no-such-flag")
    assert exc.value.code == 2


def test_retrieval_eval_reports_map_and_ndcg(tmp_path):
    ini = tmp_path / "retrieval.ini"
    ini.write_text(TINY_INI.replace("classes = 2",
                                    "task = retrieval\nclasses = 2"))
    out = str(tmp_path / "run")
    assert run("gen-data", "--config", str(ini), "--out-dir", out) == 0
    assert run("train", "--config", str(ini), "--out-dir", out,
               "--static-lambda", "0") == 0
    assert run("eval", "--config", str(ini), "--out-dir", out) == 0
    with open(os.path.join(out, "report.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    assert [row[2] for row in rows[1:]] == ["map", "ndcg"]
    for row in rows[1:]:
        assert 0.0 <= float(row[3]) <= 1.0


def test_segmentation_pipeline(tmp_path):
    ini = tmp_path / "seg.ini"
    ini.write_text(TINY_INI.replace("classes = 2",
                                    "task = segmentation\nclasses = 2")
                   .replace("specs = oracle:0,oracle:1", "specs = edge_seg"))
    out = str(tmp_path / "run")
    assert run("gen-data", "--config", str(ini), "--out-dir", out) == 0
    assert run("train", "--config", str(ini), "--out-dir", out,
               "--static-lambda", "0") == 0
    assert run("eval", "--config", str(ini), "--out-dir", out) == 0
    with open(os.path.join(out, "report.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][2] == "edge_accuracy"
    # hard voting is undefined for per-edge labels
    assert run("eval", "--config", str(ini), "--out-dir", out,
               "--ensemble") == 1
