import configparser
from dataclasses import asdict, fields
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from meshmoe.checkpoint import read_ini
from meshmoe.config import ConfigError, RunConfig, load_config
from meshmoe.gate import GateConfig
from meshmoe.sac import SACConfig


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


def test_defaults_round_trip(tmp_path):
    cfg = RunConfig()
    cfg.seed = 17
    cfg.trainer.epochs = 5
    cfg.agent.lambda_min = -0.5
    snapshot = asdict(cfg)
    lines = [f"[run]\nseed = {snapshot.pop('seed')}"]
    for section, values in snapshot.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in values.items()]
    loaded, _ = load_config(write(tmp_path, "\n".join(lines) + "\n"))
    assert asdict(loaded) == asdict(cfg)


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
    cfg, _ = load_config(path)
    assert cfg.seed == 42 and isinstance(cfg.seed, int)
    assert cfg.trainer.epochs == 7
    assert abs(cfg.trainer.gate_lr - 0.01) < 1e-15
    assert abs(cfg.agent.lambda_min + 0.25) < 1e-15
    # untouched sections keep defaults
    assert cfg.gate.d_model == 64


def test_unknown_section_rejected(tmp_path):
    path = write(tmp_path, "[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert str(exc.value) == path + ":1: unknown section [nonsense]"


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
     ":4: unknown section [nonsense]"),
    ("[trainer]\nepochs = 3\nepochss = 3\n", ":3: [trainer] has no key 'epochss'"),
    ("[run]\n\nsee = 3\n", ":3: [run] has no key 'see'"),
    ("[agent]\nbatch_size = 8\n[trainer]\n# batch_size = 3\nBatch_Size = ten\n",
     ":5: [trainer] batch_size: cannot parse 'ten' as int"),
    ("[DEFAULT]\nfoo = 1\n[trainer]\nepochs = 2\n", ":1: unknown section [DEFAULT]"),
    ("[DEFAULT]\nseed = 5\n", ":1: unknown section [DEFAULT]"),
], ids=["section", "key", "run_key", "value", "default_key", "default_only"])
def test_errors_name_file_and_line(tmp_path, text, message):
    path = write(tmp_path, text)
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert str(exc.value) == path + message


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.ini"))


@pytest.mark.parametrize("text, line, message", [
    ("seed = 3\n", 1, "no section headers"),
    ("[trainer]\nepochs = 3\nepochs = 4\n", 3, "already exists"),
    ("[trainer]\nepochs = 3\nepochs\n", 3, r"not a \[section\] header or a key = value line"),
], ids=["missing_header", "duplicate_key", "neither_header_nor_key"])
def test_syntax_errors_become_config_errors(tmp_path, text, line, message):
    path = write(tmp_path, text)
    with pytest.raises(ConfigError, match=message) as exc:
        load_config(path)
    assert str(exc.value).startswith(f"{path}:{line}: ")


@pytest.mark.parametrize("raw, line", [
    (b"[trainer]\nepochs = \xff\n", 2),
    (b"[trainer]\n# " + b"x" * 10000 + b"\r\nepochs = 3\nbatch_size = \xe9\n", 4),
    (b"[trainer]\repochs = 3\r\nbatch_size = \xe9\n", 3),
], ids=["second_line", "past_a_read_buffer", "lone_cr"])
def test_non_utf8_bytes_name_file_and_line(tmp_path, raw, line):
    """The line comes from the decoder's byte offset in the whole file, with
    lines ended where the reader ends them."""
    path = tmp_path / "run.ini"
    path.write_bytes(raw)
    with pytest.raises(ConfigError) as exc:
        load_config(str(path))
    assert str(exc.value) == f"{path}:{line}: not UTF-8 text"


def test_percent_sign_is_a_plain_character(tmp_path):
    cfg, _ = load_config(write(tmp_path, "[agent]\nstatic_lambda = 50%\n"))
    assert cfg.agent.static_lambda == "50%"


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


def test_gate_and_agent_sections_mirror_their_config_objects():
    # the sections are derived from GateConfig/SACConfig, so a new field there
    # becomes a config key by itself; this pins which keys that yields
    cfg = RunConfig()
    assert [f.name for f in fields(cfg.gate)] == \
        "encoder_layers decoder_layers d_model heads ff_width".split()
    assert sorted(f.name for f in fields(cfg.agent)) == sorted(
        "discount tau lr buffer_capacity batch_size hidden lambda_min lambda_max "
        "static_lambda".split())
    assert GateConfig(num_experts=2, **asdict(cfg.gate)) == GateConfig(num_experts=2)
    agent = asdict(cfg.agent)
    assert agent.pop("static_lambda") == "none"
    assert SACConfig(state_dim=2, **agent) == SACConfig(state_dim=2)


@pytest.mark.parametrize("text, message", [
    ("[trainer]\nsim_loss = kld\n  batch_size = 5\nbatch_size = 0\n",
     "option 'batch_size' in section 'trainer' already exists"),
    ("[experts]\nspecs = oracle:0\n  hidden = 5\nhidden = 0\n",
     "option 'hidden' in section 'experts' already exists"),
], ids=["trainer_batch_size", "experts_hidden"])
def test_an_indented_line_is_a_line_of_its_own(tmp_path, text, message):
    """No value spans lines: the indented line 3 sets its own key, so the
    error is on line 4, the line that repeats it."""
    path = write(tmp_path, text)
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert str(exc.value) == f"{path}:4: {message}"


@pytest.mark.parametrize("odd", ["\x0c", "\x85", "\u2028"])
def test_a_value_holding_a_splitlines_break_keeps_later_line_numbers(tmp_path, odd):
    """`str.splitlines` would break inside the value; `\n` and `\r\n` end lines."""
    path = tmp_path / "run.ini"
    path.write_bytes(f"[agent]\r\nstatic_lambda = a{odd}b\n[trainer]\nepochs = x\n"
                     .encode("utf-8"))
    with pytest.raises(ConfigError) as exc:
        load_config(str(path))
    assert str(exc.value) == f"{path}:4: [trainer] epochs: cannot parse 'x' as int"
    path.write_bytes(f"[agent]\nstatic_lambda = a{odd}b\r\n[trainer]\nepochs = 3\n"
                     .encode("utf-8"))
    cfg, where = load_config(str(path))
    assert cfg.agent.static_lambda == f"a{odd}b" and cfg.trainer.epochs == 3
    assert where == {("agent", None): f"{path}:1", ("agent", "static_lambda"): f"{path}:2",
                     ("trainer", None): f"{path}:3", ("trainer", "epochs"): f"{path}:4"}


_names = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,5}", fullmatch=True)
_keys = st.from_regex(r"[A-Za-z]([A-Za-z0-9_ .-]{0,5}[A-Za-z0-9])?", fullmatch=True)
# the characters str.splitlines breaks at, but a line does not end at
_values = st.text(st.one_of(st.sampled_from("\x0b\x0c\x1c\x85\u2028 =:#;%["),
                            st.characters(blacklist_categories=("Cs",),
                                          blacklist_characters="\r\n")),
                  max_size=8)
_fillers = st.lists(st.one_of(st.sampled_from(["", "   "]),
                              st.builds("{}{}".format, st.sampled_from("#;"), _values)),
                    max_size=2)


@st.composite
def _ini_files(draw):
    """(lines without their endings, {(section, key): line number}) of a
    well-formed INI file with no indented line; headers have key None."""
    lines, lines_of = list(draw(_fillers)), {}
    for section in draw(st.lists(_names, min_size=1, max_size=3, unique=True)):
        lines.append(f"[{section}]")
        lines_of[section, None] = len(lines)
        for key in draw(st.lists(_keys, max_size=4, unique_by=str.lower)):
            lines += draw(_fillers)
            lines.append(key + draw(st.sampled_from(["=", " = ", ":", " : ", "\t=  "]))
                         + draw(_values))
            lines_of[section, key.lower()] = len(lines)
        lines += draw(_fillers)
    return lines, lines_of


@settings(deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_ini_files(), st.lists(st.sampled_from(["\n", "\r\n"]), min_size=1))
def test_read_ini_reads_what_configparser_reads_and_names_each_line(tmp_path, ini, endings):
    """configparser is the reference for the values of files it reads the
    same way; each returned 'path:line' must be the line that holds its key."""
    lines, lines_of = ini
    text = "".join(line + endings[i % len(endings)] for i, line in enumerate(lines))
    path = tmp_path / "gen.ini"
    path.write_bytes(text.encode("utf-8"))
    sections = {section: SimpleNamespace() for section, _ in lines_of}
    for section, key in lines_of:
        if key is not None:
            setattr(sections[section], key, "")
    where = read_ini(path, sections, ConfigError)
    reference = configparser.ConfigParser(default_section="", interpolation=None)
    reference.read_string(text)
    assert {name: vars(ns) for name, ns in sections.items()} == \
        {name: dict(reference[name]) for name in reference.sections()}
    assert where == {target: f"{path}:{line}" for target, line in lines_of.items()}
