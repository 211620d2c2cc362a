"""End-to-end runs of the command-line pipeline in temp directories."""

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import re

import pytest

from meshmoe.cli import _FLAGS, _resolve_config, build_parser, main
from meshmoe.config import RunConfig
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


def ini_with(tmp_path, section: str, setting: str):
    """TINY_INI with `setting` ("key = value") in [section], in place of the
    key's own line if TINY_INI has one."""
    key = setting.split(" = ")[0]
    text = "".join(line for line in TINY_INI.splitlines(keepends=True)
                   if not line.startswith(f"{key} = "))
    if f"[{section}]\n" in text:
        text = text.replace(f"[{section}]\n", f"[{section}]\n{setting}\n")
    else:
        text += f"\n[{section}]\n{setting}\n"
    ini = tmp_path / "setting.ini"
    ini.write_text(text)
    return ini


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


@pytest.mark.parametrize("count", ["0", "-3"])
def test_dump_walks_count_below_one_names_the_flag(tmp_path, tiny_config, capsys, count):
    out = str(tmp_path / "run")
    assert run("gen-data", "--config", tiny_config, "--out-dir", out) == 0
    data = os.path.join(out, "data")
    off = os.path.join(data, sorted(n for n in os.listdir(data) if n.endswith(".off"))[0])
    capsys.readouterr()
    assert run("dump-walks", "--mesh-file", off, "--count", count) == 1
    assert capsys.readouterr().err == f"error: --count: count must be >= 1, got {count}\n"


@pytest.mark.parametrize("argv", [
    ("train", "--lambda-range", "-1,1"),
    ("train", "--lambda-range", "-0.5,-0.25", "--seed", "-3"),
    ("train", "--static-lambda", "-1e-3", "--lambda-range", "-2,-1"),
    ("dump-walks", "--mesh-file", "-m.off", "--count", "-3"),
], ids=["default_range", "negative_range", "exponent", "dump_walks"])
def test_a_value_that_starts_with_a_minus_may_follow_its_flag(argv):
    """`--flag -1,1` parses as `--flag=-1,1`; argparse alone exits 2 on it,
    taking `-1,1` for an option."""
    joined = [argv[0]] + [f"{flag}={value}" for flag, value in zip(argv[1::2], argv[2::2])]
    spaced, equals = build_parser().parse_args(argv), build_parser().parse_args(joined)
    assert vars(spaced) == vars(equals)
    if argv[0] == "train":
        assert _resolve_config(spaced)[0] == _resolve_config(equals)[0]


@pytest.mark.parametrize("argv, full", [
    (("train", "--lambda", "-1,1"), ("train", "--lambda-range=-1,1")),
    (("train", "--static", "-1e-3", "--se", "-3"),
     ("train", "--static-lambda=-1e-3", "--seed=-3")),
    (("dump-walks", "--mesh", "-m.off", "--cou", "-3"),
     ("dump-walks", "--mesh-file=-m.off", "--count=-3")),
], ids=["lambda", "static_and_seed", "dump_walks"])
def test_a_flag_prefix_takes_a_value_that_starts_with_a_minus(argv, full):
    """An unambiguous prefix names its flag, as argparse allows."""
    assert vars(build_parser().parse_args(argv)) == vars(build_parser().parse_args(full))


def test_an_ambiguous_flag_prefix_exits_two(capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(["train", "--l", "-1,1"])
    assert exit_info.value.code == 2
    assert "ambiguous option: --l could match --lambda-range, --loss-sim" \
        in capsys.readouterr().err


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
], ids=["train_negative_batch", "train_zero_batch", "pretrain_negative_batch"])
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


@pytest.mark.parametrize("command, outputs", [
    ("pretrain-experts", ["experts.ckpt", "pretrain_losses.csv"]),
    ("pretrain-gate", ["gate_init.ckpt"]),
], ids=["pretrain_experts", "pretrain_gate"])
def test_pretraining_at_zero_epochs_skips_the_fit(tmp_path, capsys, command, outputs):
    """`--epochs 0` is valid, as `[trainer] epochs = 0` is for `train`: the
    command skips the fit and still writes what it always writes."""
    ini = tmp_path / "face.ini"
    ini.write_text(TINY_INI.replace("specs = oracle:0,oracle:1", "specs = face_mlp"))
    out = str(tmp_path / "run")
    assert run("gen-data", "--config", str(ini), "--out-dir", out) == 0
    capsys.readouterr()
    assert run(command, "--config", str(ini), "--out-dir", out, "--epochs", "0") == 0
    assert "0 epochs" in capsys.readouterr().out
    with open(os.path.join(out, f"manifest_{command}.json")) as fh:
        assert json.load(fh)["outputs"] == [os.path.join(out, name) for name in outputs]
    if command == "pretrain-experts":
        with open(os.path.join(out, "pretrain_losses.csv")) as fh:
            assert fh.read().splitlines() == ["expert,epoch,loss"]


@pytest.mark.parametrize("flag", ["--walks-train", "--walks-infer"])
def test_zero_walk_flag_fails_before_training(tmp_path, capsys, tiny_config, flag):
    out = str(tmp_path / "run")
    assert run("gen-data", "--config", tiny_config, "--out-dir", out) == 0
    capsys.readouterr()
    train = ("train", "--config", tiny_config, "--out-dir", out,
             "--static-lambda", "0", flag, "0")
    if flag == "--walks-train":
        assert run(*train) == 1
    else:
        # train never reads --walks-infer; eval does, and must fail before
        # it looks for a checkpoint
        with pytest.raises(SystemExit) as exc:
            run(*train)
        assert exc.value.code == 2
        capsys.readouterr()
        assert run("eval", "--config", tiny_config, "--out-dir", out, flag, "0") == 1
        assert not os.path.exists(os.path.join(out, "report.csv"))
    assert capsys.readouterr().err.startswith(f"error: {flag}: ")
    assert not os.path.exists(os.path.join(out, "model.ckpt"))


@pytest.mark.parametrize("key", ["walks_train", "walks_infer"])
def test_zero_walk_config_value_names_file_and_line(tmp_path, capsys, key):
    ini = tmp_path / "walks.ini"
    ini.write_text(re.sub(rf"{key} = \d+", f"{key} = 0", TINY_INI))
    line = ini.read_text().splitlines().index(f"{key} = 0") + 1
    out = str(tmp_path / "run")
    assert run("train", "--config", str(ini), "--out-dir", out,
               "--static-lambda", "0") == 1
    assert capsys.readouterr().err.startswith(f"error: {ini}:{line}: ")
    assert not os.path.exists(out)


@pytest.mark.parametrize("command, section, key", [
    ("train", "trainer", "sim_loss"),
    ("gen-data", "data", "task"),
])
def test_config_value_outside_the_flag_choices_names_file_and_line(
        tmp_path, capsys, command, section, key):
    ini = tmp_path / "bogus.ini"
    ini.write_text(TINY_INI.replace(f"[{section}]\n", f"[{section}]\n{key} = bogus\n"))
    line = ini.read_text().splitlines().index(f"{key} = bogus") + 1
    out = str(tmp_path / "run")
    assert run(command, "--config", str(ini), "--out-dir", out) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {ini}:{line}: {key} must be one of ")
    assert not os.path.exists(out)


def test_train_with_zero_epochs_still_saves(tmp_path, tiny_config):
    out = str(tmp_path / "run")
    assert run("gen-data", "--config", tiny_config, "--out-dir", out) == 0
    assert run("train", "--config", tiny_config, "--out-dir", out,
               "--static-lambda", "0", "--epochs", "0") == 0
    assert os.path.exists(os.path.join(out, "model.ckpt"))


def test_zero_epoch_manifest_names_only_the_files_written(tmp_path, tiny_config):
    out = str(tmp_path / "run")
    assert run("gen-data", "--config", tiny_config, "--out-dir", out) == 0
    assert run("train", "--config", tiny_config, "--out-dir", out,
               "--static-lambda", "0", "--epochs", "0") == 0
    with open(os.path.join(out, "manifest_train.json")) as fh:
        outputs = json.load(fh)["outputs"]
    assert outputs == [os.path.join(out, "model.ckpt")]
    assert not os.path.exists(os.path.join(out, "train_log.csv"))


def test_negative_epochs_flag_fails(tmp_path, capsys, tiny_config):
    out = tmp_path / "run"
    assert run("train", "--config", tiny_config, "--out-dir", str(out),
               "--static-lambda", "0", "--epochs", "-1") == 1
    assert capsys.readouterr().err == "error: --epochs: epochs must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("section, setting, least", [
    ("experts", "hidden = 0", 1),
    ("gate", "d_model = 0", 1),
    ("gate", "encoder_layers = -1", 0),
    ("agent", "batch_size = 0", 1),
    ("agent", "buffer_capacity = 0", 1),
], ids=["experts_hidden", "gate_d_model", "gate_encoder_layers", "agent_batch_size",
        "agent_buffer_capacity"])
def test_integer_setting_below_its_minimum_names_file_and_line(tmp_path, capsys,
                                                                section, setting, least):
    ini = ini_with(tmp_path, section, setting)
    line = ini.read_text().splitlines().index(setting) + 1
    key, value = setting.split(" = ")
    out = tmp_path / "run"
    assert run("train", "--config", str(ini), "--out-dir", str(out)) == 1
    assert capsys.readouterr().err == (
        f"error: {ini}:{line}: {key} must be >= {least}, got {value}\n")
    assert not out.exists()


@pytest.mark.parametrize("text, key", [
    (TINY_INI.replace("heads = 2", "heads = 3"), "heads"),
    (TINY_INI.replace("heads = 2\n", "").replace("d_model = 8", "d_model = 6"), "d_model"),
], ids=["heads_line", "default_heads_names_d_model"])
def test_heads_not_dividing_d_model_names_file_and_line(tmp_path, capsys, text, key):
    """Checked with the other settings, before GateConfig could reject it
    without a line; the heads line is named, or d_model's when heads is
    left at its default."""
    ini = tmp_path / "heads.ini"
    ini.write_text(text)
    line = next(n for n, t in enumerate(text.splitlines(), 1) if t.startswith(key + " = "))
    d_model, heads = (8, 3) if key == "heads" else (6, 4)
    out = tmp_path / "run"
    assert run("train", "--config", str(ini), "--out-dir", str(out)) == 1
    assert capsys.readouterr().err == (
        f"error: {ini}:{line}: heads must divide d_model {d_model}, got {heads}\n")
    assert not out.exists()


@pytest.mark.parametrize("section, setting, rule", [
    ("trainer", "gate_lr = -0.5", "finite and > 0"),
    ("trainer", "expert_lr = inf", "finite and > 0"),
    ("agent", "lr = -1", "finite and > 0"),
    ("agent", "tau = 7", "in (0, 1]"),
    ("agent", "tau = 0", "in (0, 1]"),
    ("agent", "discount = -3", "in [0, 1]"),
], ids=["gate_lr", "expert_lr", "agent_lr", "tau_above_one", "tau_zero", "discount"])
def test_float_setting_out_of_range_names_file_and_line(tmp_path, capsys,
                                                        section, setting, rule):
    ini = ini_with(tmp_path, section, setting)
    line = ini.read_text().splitlines().index(setting) + 1
    key, value = setting.split(" = ")
    out = tmp_path / "run"
    assert run("train", "--config", str(ini), "--out-dir", str(out)) == 1
    assert capsys.readouterr().err == (
        f"error: {ini}:{line}: {key} must be {rule}, got {float(value)}\n")
    assert not out.exists()


def test_agent_buffer_below_its_batch_fails(tmp_path, capsys, tiny_config):
    data = str(tmp_path / "data")
    assert run("gen-data", "--config", tiny_config, "--out-dir", str(tmp_path / "gen"),
               "--data-dir", data) == 0
    capsys.readouterr()
    ini = ini_with(tmp_path, "agent", "buffer_capacity = 10")
    out = tmp_path / "run"
    assert run("train", "--config", str(ini), "--out-dir", str(out),
               "--data-dir", data) == 1
    line = ini.read_text().splitlines().index("buffer_capacity = 10") + 1
    assert capsys.readouterr().err == (
        f"error: {ini}:{line}: buffer_capacity 10 is below batch_size 64\n")
    assert not out.exists()


@pytest.mark.parametrize("setting, flags, message", [
    ("static_lambda = abc", (), "static_lambda must be a number or 'none', got 'abc'"),
    ("static_lambda = 0", ("--static-lambda", "abc"),
     "static_lambda must be a number or 'none', got 'abc'"),
    ("lambda_min = 2", (), "lambda range [2.0, 1.0] is empty"),
    ("lambda_max = -1", (), "lambda range [-1.0, -1.0] is empty"),
    ("lambda_min = -3", ("--lambda-range", "0.5,-0.5"), "lambda range [0.5, -0.5] is empty"),
    ("lambda_min = -3", ("--lambda-range", "nan,1"), "lambda_min must be finite, got nan"),
    ("lambda_min = -3", ("--lambda-range=-inf,1",), "lambda_min must be finite, got -inf"),
    ("static_lambda = 0", ("--static-lambda", "inf"), "static_lambda must be finite, got inf"),
    ("static_lambda = 0", ("--static-lambda", "nan"), "static_lambda must be finite, got nan"),
    ("lambda_min = -inf", (), "lambda_min must be finite, got -inf"),
    ("lambda_max = nan", (), "lambda_max must be finite, got nan"),
    ("static_lambda = inf", (), "static_lambda must be finite, got inf"),
], ids=["static_lambda", "static_lambda_flag", "lambda_min", "default_min_names_lambda_max",
        "lambda_range_flag", "nan_range_flag", "minus_inf_range_flag", "inf_static_flag",
        "nan_static_flag", "minus_inf_lambda_min", "nan_lambda_max", "inf_static_lambda"])
def test_agent_setting_error_names_its_flag_or_line(tmp_path, capsys, setting, flags,
                                                    message):
    """Checked with the other settings, before the agent is built: the flag
    that set the value is named, else its config line."""
    ini = ini_with(tmp_path, "agent", setting)
    line = ini.read_text().splitlines().index(setting) + 1
    out = tmp_path / "run"
    assert run("train", "--config", str(ini), "--out-dir", str(out), *flags) == 1
    where = flags[0].partition("=")[0] if flags else f"{ini}:{line}"
    assert capsys.readouterr().err == f"error: {where}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, section, setting, flags, blamed, message", [
    ("gen-data", "data", "classes = 3", ("--classes", "1"), "--classes",
     "need at least 2 classes"),
    ("gen-data", "data", "classes = 3", ("--classes", "11"), "--classes",
     "unsupported class count 11 (max 10)"),
    ("gen-data", "data", "per_class = 4", ("--per-class", "2"), "--per-class",
     "need at least 4 meshes per class"),
    ("gen-data", "data", "classes = 1", (), None, "need at least 2 classes"),
    ("gen-data", "data", "classes = 11", (), None, "unsupported class count 11 (max 10)"),
    ("gen-data", "data", "per_class = 2", (), None, "need at least 4 meshes per class"),
    ("gen-data", "data", "per_class = 2", ("--task", "segmentation"), None,
     "need at least 4 meshes per segment count"),
    ("train", "experts", "specs = oracle:0", ("--experts", "nope"), "--experts",
     "unknown expert spec: nope"),
    ("train", "experts", "specs = nope", (), None, "unknown expert spec: nope"),
    ("train", "experts", "specs = ,", (), None, "no expert specs configured"),
    ("train", "experts", "specs = oracle:0,oracle:5", (), None,
     "expert spec oracle:5: specialty class 5 is out of range for 2 classes"),
], ids=["classes_flag_low", "classes_flag_high", "per_class_flag", "classes_line_low",
        "classes_line_high", "per_class_line", "segments_per_class_line", "experts_flag",
        "specs_line", "empty_specs_line", "oracle_class_line"])
def test_generator_and_pool_errors_name_the_flag_or_line_at_fault(
        tmp_path, capsys, tiny_config, command, section, setting, flags, blamed, message):
    """The generators and `build_experts` check their own arguments; the CLI
    only prefixes the flag or config line of the value at fault (`blamed`,
    or the line of `setting` when None)."""
    data = str(tmp_path / "data")
    if command == "train":
        assert run("gen-data", "--config", tiny_config, "--out-dir", str(tmp_path / "gen"),
                   "--data-dir", data) == 0
        capsys.readouterr()
    ini = ini_with(tmp_path, section, setting)
    line = ini.read_text().splitlines().index(setting) + 1
    out = tmp_path / "run"
    assert run(command, "--config", str(ini), "--out-dir", str(out), "--data-dir", data,
               *flags) == 1
    assert capsys.readouterr().err == f"error: {blamed or f'{ini}:{line}'}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, task, message", [
    (("train", "--experts", "edge_seg,face_mlp", "--static-lambda", "0"), "classification",
     "expert edge_seg_0 predicts per-edge rows, which the classification task "
     "cannot score"),
    (("train", "--experts", "face_mlp,walk_rnn", "--static-lambda", "0"), "segmentation",
     "expert face_mlp_0 predicts one class vector per mesh, which the "
     "segmentation task cannot score"),
    (("pretrain-gate", "--experts", "edge_seg"), "segmentation",
     "expert edge_seg_0 predicts per-edge rows, which gate imitation (one class "
     "vector per mesh) cannot match"),
], ids=["train_edge_expert_on_classes", "train_class_experts_on_edges",
        "pretrain_gate_edge_expert"])
def test_pool_that_does_not_fit_the_task_fails_before_predicting(
        tmp_path, capsys, monkeypatch, argv, task, message):
    from meshmoe import experts
    ini = ini_with(tmp_path, "data", f"task = {task}")
    out = str(tmp_path / "run")
    assert run("gen-data", "--config", str(ini), "--out-dir", out) == 0
    capsys.readouterr()
    predicted = []
    for cls in (experts.FaceMlpExpert, experts.EdgeSegmenterExpert):
        monkeypatch.setattr(cls, "predict", lambda self, *a: predicted.append(self))
    monkeypatch.setattr(experts, "walk_batch", lambda *a: predicted.append(a))
    command, *flags = argv
    assert run(command, "--config", str(ini), "--out-dir", out, *flags) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert predicted == []


@pytest.mark.parametrize("experts, task, message", [
    ("edge_seg", "classification",
     "expert edge_seg_0 predicts per-edge rows, which the classification task "
     "cannot score"),
    ("face_mlp", "segmentation",
     "expert face_mlp_0 predicts one class vector per mesh, which the "
     "segmentation task cannot score"),
], ids=["edge_expert_on_classes", "class_expert_on_edges"])
def test_pretrain_experts_checks_the_pool_against_the_task(tmp_path, capsys,
                                                           experts, task, message):
    ini = ini_with(tmp_path, "data", f"task = {task}")
    out = str(tmp_path / "run")
    assert run("gen-data", "--config", str(ini), "--out-dir", out) == 0
    capsys.readouterr()
    assert run("pretrain-experts", "--config", str(ini), "--out-dir", out,
               "--experts", experts) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.path.exists(os.path.join(out, "experts.ckpt"))


def test_default_oracle_pool_on_two_classes_names_the_spec_and_class_count(
        tmp_path, capsys):
    ini = tmp_path / "two.ini"
    ini.write_text(TINY_INI.replace("specs = oracle:0,oracle:1\n", ""))
    out = str(tmp_path / "run")
    assert run("gen-data", "--config", str(ini), "--out-dir", out) == 0
    capsys.readouterr()
    assert run("train", "--config", str(ini), "--out-dir", out,
               "--static-lambda", "0") == 1
    assert capsys.readouterr().err == ("error: expert spec oracle:2: specialty class 2 "
                                       "is out of range for 2 classes\n")


@pytest.mark.parametrize("argv", [
    ("train", "--data-dir", "nodata", "--static-lambda", "0"),
    ("eval", "--data-dir", "nodata"),
    ("eval", "--data-dir", "data"),
    ("eval", "--data-dir", "data", "--ckpt", "nockpt"),
    ("gen-data", "--classes", "1"),
    ("train", "--data-dir", "data", "--config", "gate:heads = 3"),
    ("train", "--data-dir", "data", "--config", "agent:lambda_min = 2"),
    ("train", "--data-dir", "data", "--config", "agent:static_lambda = abc"),
    ("train", "--data-dir", "data", "--config", "trainer:batch_size = 0"),
    ("train", "--data-dir", "data", "--config", "experts:specs = nope"),
], ids=["train_no_dataset", "eval_no_dataset", "eval_no_default_checkpoint",
        "eval_no_checkpoint", "gen_data_one_class", "config_gate_heads",
        "config_agent_lambda_min", "config_agent_static_lambda",
        "config_trainer_batch_size", "config_experts_specs"])
def test_failed_input_leaves_no_out_dir(tmp_path, capsys, tiny_config, argv):
    command, *flags = argv
    if "data" in flags:
        assert run("gen-data", "--config", tiny_config, "--out-dir", str(tmp_path / "gen"),
                   "--data-dir", str(tmp_path / "data")) == 0
        capsys.readouterr()
    if "--config" in flags:       # "section:setting" names a TINY_INI variant
        at = flags.index("--config") + 1
        flags[at] = str(ini_with(tmp_path, *flags[at].split(":")))
    flags = [str(tmp_path / f) if f in ("nodata", "data", "nockpt") else f for f in flags]
    out = tmp_path / "run"
    assert run(command, "--out-dir", str(out), *flags) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("pretrain-gate", "--experts-ckpt"),
    ("train", "--experts-ckpt"),
    ("train", "--gate-init"),
    ("eval", "--ckpt"),
])
def test_missing_explicit_checkpoint_fails(tmp_path, capsys, tiny_config, command, flag):
    out = str(tmp_path / "run")
    assert run("gen-data", "--config", tiny_config, "--out-dir", out) == 0
    before = sorted(os.listdir(out))
    capsys.readouterr()
    missing = str(tmp_path / "no" / "such.ckpt")
    assert run(command, "--config", tiny_config, "--out-dir", out, flag, missing) == 1
    assert capsys.readouterr().err == f"error: {flag}: no checkpoint at {missing}\n"
    assert sorted(os.listdir(out)) == before


@pytest.mark.parametrize("seed", [0, 7])
def test_gradcheck_exit_code_follows_the_battery(capsys, seed):
    code = run("gradcheck", "--seed", str(seed))
    statuses = [line.split()[1] for line in capsys.readouterr().out.splitlines()]
    assert len(statuses) == 10 and set(statuses) <= {"PASS", "FAIL"}
    assert code == (1 if "FAIL" in statuses else 0)
    if seed == 0:
        assert statuses == ["PASS"] * 10


SUBCOMMAND_FLAGS = {
    "gen-data": "seed config out-dir data-dir classes per-class task",
    "pretrain-experts": "seed config out-dir data-dir epochs batch-size experts",
    "pretrain-gate": "seed config out-dir data-dir epochs batch-size experts "
                     "walks-train experts-ckpt",
    "train": "seed config out-dir data-dir epochs batch-size experts walks-train "
             "lambda-range static-lambda loss-sim experts-ckpt gate-init",
    "eval": "seed config out-dir data-dir experts walks-infer ckpt split ensemble",
    "dump-walks": "seed config mesh-file count out",
    "gradcheck": "seed config",
}


def test_each_subcommand_accepts_only_the_flags_it_reads():
    (sub,) = [action for action in build_parser()._actions
              if isinstance(action, argparse._SubParsersAction)]
    accepted = {name: {opt for action in parser._actions
                       for opt in action.option_strings} - {"-h", "--help"}
                for name, parser in sub.choices.items()}
    assert accepted == {name: {f"--{flag}" for flag in flags.split()}
                        for name, flags in SUBCOMMAND_FLAGS.items()}
    assert sum(map(len, accepted.values())) == 52


@pytest.mark.parametrize("flag", [flag for flag, (_, target) in _FLAGS.items() if target])
def test_flag_overrides_an_existing_config_field(flag):
    section, field = _FLAGS[flag][1]
    owner = RunConfig() if section == "run" else getattr(RunConfig(), section)
    assert field in {f.name for f in dataclasses.fields(owner)}


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
