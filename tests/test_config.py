import pytest

from meshmoe.config import ConfigError, RunConfig, config_snapshot, load_config


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


def test_defaults_round_trip(tmp_path):
    cfg = RunConfig()
    cfg.seed = 17
    cfg.trainer.epochs = 5
    cfg.agent.lambda_min = -0.5
    snapshot = config_snapshot(cfg)
    lines = [f"[run]\nseed = {snapshot.pop('seed')}"]
    for section, values in snapshot.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in values.items()]
    loaded = load_config(write(tmp_path, "\n".join(lines) + "\n"))
    assert config_snapshot(loaded) == config_snapshot(cfg)


def test_type_coercion(tmp_path):
    path = write(tmp_path, """
[run]
seed = 42
[trainer]
epochs = 7
gate_lr = 0.01
[agent]
lambda_min = -0.25
""")
    cfg = load_config(path)
    assert cfg.seed == 42 and isinstance(cfg.seed, int)
    assert cfg.trainer.epochs == 7
    assert abs(cfg.trainer.gate_lr - 0.01) < 1e-15
    assert abs(cfg.agent.lambda_min + 0.25) < 1e-15
    # untouched sections keep defaults
    assert cfg.gate.d_model == 64


def test_unknown_section_rejected(tmp_path):
    path = write(tmp_path, "[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown config section"):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = write(tmp_path, "[trainer]\nepochss = 3\n")
    with pytest.raises(ConfigError, match="has no key"):
        load_config(path)


def test_bad_value_rejected(tmp_path):
    path = write(tmp_path, "[trainer]\nepochs = banana\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(path)


@pytest.mark.parametrize("text, message", [
    ("[gate]\nd_model = 8\n\n[nonsense]\nx = 1\n",
     ":4: unknown config section [nonsense]"),
    ("[trainer]\nepochs = 3\nepochss = 3\n", ":3: [trainer] has no key 'epochss'"),
    ("[run]\n\nsee = 3\n", ":3: [run] has no key 'see'"),
    ("[agent]\nbatch_size = 8\n[trainer]\n# batch_size = 3\nBatch_Size = ten\n",
     ":5: [trainer] batch_size: cannot parse 'ten' as int"),
], ids=["section", "key", "run_key", "value"])
def test_errors_name_file_and_line(tmp_path, text, message):
    path = write(tmp_path, text)
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert str(exc.value) == path + message


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.ini"))


@pytest.mark.parametrize("text, message", [
    ("seed = 3\n", "no section headers"),
    ("[trainer]\nepochs = 3\nepochs = 4\n", "already exists"),
], ids=["missing_header", "duplicate_key"])
def test_syntax_errors_become_config_errors(tmp_path, text, message):
    path = write(tmp_path, text)
    with pytest.raises(ConfigError, match=message) as exc:
        load_config(path)
    assert "run.ini" in str(exc.value) and "line" in str(exc.value)


def test_expert_specs_split():
    cfg = RunConfig()
    cfg.experts.specs = " oracle:0, face_mlp ,walk_rnn"
    assert cfg.expert_specs() == ["oracle:0", "face_mlp", "walk_rnn"]
    cfg.experts.specs = " , "
    with pytest.raises(ConfigError):
        cfg.expert_specs()


def test_static_lambda_parsing():
    cfg = RunConfig()
    assert cfg.static_lambda_value() is None
    cfg.agent.static_lambda = "0.25"
    assert cfg.static_lambda_value() == 0.25
    cfg.agent.static_lambda = "junk"
    with pytest.raises(ConfigError):
        cfg.static_lambda_value()
