"""Flat text checkpoints, bit-exact.

Format: header line `MME-CKPT v1`, then one line per parameter sorted by
path: `<path> <d0>x<d1>x... <base64>`, where the payload is the raw
little-endian float64 bytes.  Scalars use the shape token `scalar`.
Checkpoints, dataset indexes and the CLI's manifests, logs, reports and
walk listings are written by `atomic_write`: to a temp file that is
renamed into place.  `read_ini` reads the INI files (run configs,
dataset.ini), and `ini_where` points their errors at a file and line.
"""

import base64
import configparser
import io
import os
import re
from contextlib import contextmanager

import numpy as np

from .autodiff import Tensor

HEADER = "MME-CKPT v1"


class CheckpointError(ValueError):
    pass


def ini_where(path, section: str, key: str | None = None) -> str:
    """'path:line' of `key` inside [section], or of the [section] header
    when `key` is None; just the path when there is no such line."""
    inside = False
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line, text in enumerate(fh, start=1):
            header = re.match(r"\[(.+)\]", text.strip())
            if header:
                inside = header.group(1) == section
                if inside and key is None:
                    return f"{path}:{line}"
            elif inside and re.split("[=:]", text)[0].strip().lower() == key:
                return f"{path}:{line}"
    return str(path)


def read_ini(path, sections: dict, error) -> None:
    """Set each `key = value` of the INI file at `path` on `sections[<section>]`,
    as the type of the int, float or str attribute it replaces.  Bytes that
    are not UTF-8, a syntax error, an unknown section ([DEFAULT] too) or
    key, or a value that does not parse raises `error` with a message that
    starts 'path:line: '."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError:
        raise error(f"{path}: cannot read the file") from None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        line = raw.count(b"\n", 0, err.start) + 1
        raise error(f"{path}:{line}: not UTF-8 text") from None
    # no header can name the section "", so [DEFAULT] is an ordinary section
    parser = configparser.ConfigParser(default_section="", interpolation=None)
    try:
        parser.read_file(io.StringIO(text, newline=None), source=str(path))
    except configparser.MissingSectionHeaderError as err:
        raise error(f"{path}:{err.lineno}: file contains no section headers") from None
    except configparser.ParsingError as err:
        line, text = err.errors[0]
        raise error(f"{path}:{line}: not a [section] header or a key = value line: {text}") from None
    except configparser.Error as err:       # a section or key given twice
        raise error(f"{path}:{err.lineno}: {err.message.rpartition(']: ')[2]}") from None
    for section in parser.sections():
        if section not in sections:
            raise error(f"{ini_where(path, section)}: unknown section [{section}]")
        for key, raw in parser.items(section):
            kind = type(vars(sections[section]).get(key))
            if kind not in (int, float, str):
                raise error(f"{ini_where(path, section, key)}: [{section}] has no key {key!r}")
            try:
                setattr(sections[section], key, kind(raw))
            except ValueError:
                raise error(f"{ini_where(path, section, key)}: [{section}] {key}: "
                            f"cannot parse {raw!r} as {kind.__name__}") from None


def _shape_token(shape) -> str:
    return "scalar" if shape == () else "x".join(str(d) for d in shape)


def _parse_shape(token: str):
    if token == "scalar":
        return ()
    try:
        return tuple(int(d) for d in token.split("x"))
    except ValueError:
        raise CheckpointError(f"bad shape token: {token!r}") from None


@contextmanager
def atomic_write(path):
    """Text handle on `<path>.tmp` (its directory made if missing, so a
    directory appears with its first file), renamed over `path` on success.

    Any exception deletes the temp file, so a crash part-way through a
    write leaves an old file at `path` whole.  No newline translation.
    """
    tmp = f"{os.fspath(path)}.tmp"
    os.makedirs(os.path.dirname(tmp) or ".", exist_ok=True)
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_checkpoint(params: dict, path) -> None:
    """Write `params` in the format above, through `atomic_write`."""
    with atomic_write(path) as fh:
        fh.write(HEADER + "\n")
        for name in sorted(params):
            value = params[name]
            data = value.data if isinstance(value, Tensor) else np.asarray(value)
            data = np.asarray(data, dtype="<f8")
            payload = base64.b64encode(data.tobytes(order="C")).decode("ascii")
            fh.write(f"{name} {_shape_token(data.shape)} {payload}\n")


def load_checkpoint(path) -> dict:
    """Returns {path: Tensor with requires_grad=True}."""
    params = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != HEADER:
            raise CheckpointError(f"{path}: bad header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(" ")
            if len(parts) != 3:
                raise CheckpointError(f"{path}:{lineno}: expected 'path shape payload'")
            name, shape_token, payload = parts
            shape = _parse_shape(shape_token)
            try:
                raw = base64.b64decode(payload.encode("ascii"), validate=True)
            except Exception:
                raise CheckpointError(f"{path}:{lineno}: invalid base64 payload") from None
            flat = np.frombuffer(raw, dtype="<f8")
            expected = int(np.prod(shape)) if shape else 1
            if flat.size != expected:
                raise CheckpointError(
                    f"{path}:{lineno}: payload holds {flat.size} values, shape needs {expected}")
            if name in params:
                raise CheckpointError(f"{path}:{lineno}: duplicate parameter {name}")
            params[name] = Tensor(flat.reshape(shape).astype(np.float64), requires_grad=True)
    return params


def copy_into(live: dict, stored: dict) -> None:
    """Copy `stored` tensors into the same-named `live` ones, in place.

    Both must hold exactly the same names with the same shapes; nothing is
    copied unless they do.
    """
    missing = sorted(set(live) - set(stored))
    extra = sorted(set(stored) - set(live))
    if missing or extra:
        raise CheckpointError(
            f"checkpoint mismatch: missing {missing[:3]}, extra {extra[:3]}")
    for name, tensor in live.items():
        if stored[name].data.shape != tensor.data.shape:
            raise CheckpointError(f"{name}: shape {stored[name].data.shape} "
                                  f"vs {tensor.data.shape}")
    for name, tensor in live.items():
        tensor.data = stored[name].data.copy()
