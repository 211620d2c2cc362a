"""Flat text checkpoints, bit-exact.

Format: header line `MME-CKPT v1`, then one line per parameter sorted by
path: `<path> <d0>x<d1>x... <base64>`, where the payload is the raw
little-endian float64 bytes.  Scalars use the shape token `scalar`.
Checkpoints, dataset indexes and the CLI's manifests, logs, reports and
walk listings are written by `atomic_write`: to a temp file that is
renamed into place.  `read_ini` reads the INI files (run configs,
dataset.ini) in one pass and returns the `path:line` of each key; the
classes it fills check their values with `must`.
"""

import base64
import io
import os
import re
from contextlib import contextmanager

import numpy as np

from .autodiff import Tensor

HEADER = "MME-CKPT v1"


class CheckpointError(ValueError):
    pass


def blamed(err: ValueError, setting) -> ValueError:
    """`err` naming as its `setting` the field, or tuple of fields, at fault."""
    err.setting = setting
    return err


def must(section, setting, ok: bool, rule: str, error=ValueError) -> None:
    """Unless `ok`, raise `error('<field> must <rule>, got <value>')` for
    field `setting` of `section` (of a tuple, the first), `blamed` on it."""
    if not ok:
        name = setting if isinstance(setting, str) else setting[0]
        raise blamed(error(f"{name} must {rule}, got {getattr(section, name)}"), setting)


def at_least(section, error=ValueError, **least) -> None:
    """`must` for each named integer field: at least its value in `least`."""
    for name, low in least.items():
        must(section, name, getattr(section, name) >= low, f"be >= {low}", error)


def read_ini(path, sections: dict, error) -> dict:
    """Set each `key = value` of the INI file at `path` on `sections[<section>]`,
    as the type of the int, float or str attribute it replaces; returns
    {(section, key): 'path:line'} of each key set and header (key None).
    One pass, in which an indented line is a line of its own: no value spans
    lines.  Bytes that are not UTF-8, a syntax error, an unknown section
    ([DEFAULT] too) or key, or a value that does not parse raises `error`
    with a message that starts 'path:line: '."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError:
        raise error(f"{path}: cannot read the file") from None
    try:
        lines = io.StringIO(raw.decode("utf-8"), newline=None)
    except UnicodeDecodeError as err:
        line = len(re.split(rb"\r\n?|\n", raw[:err.start]))   # counted as the scan counts
        raise error(f"{path}:{line}: not UTF-8 text") from None
    where, section = {}, None
    for line, text in enumerate(lines, start=1):
        here, text = f"{path}:{line}", text.strip()
        if not text or text[0] in "#;":
            continue
        header = re.match(r"\[(.+)\]", text)
        setting = re.match(r"([^=:]+)[=:](.*)", text)
        if header:
            section = header.group(1)
            if (section, None) in where:
                raise error(f"{here}: section {section!r} already exists")
            if section not in sections:
                raise error(f"{here}: unknown section [{section}]")
            where[section, None] = here
        elif section is None:
            raise error(f"{here}: file contains no section headers")
        elif not setting:
            raise error(f"{here}: not a [section] header or a key = value line: {text!r}")
        else:
            key, value = setting.group(1).rstrip().lower(), setting.group(2).strip()
            if (section, key) in where:
                raise error(f"{here}: option {key!r} in section {section!r} already exists")
            kind = type(vars(sections[section]).get(key))
            if kind not in (int, float, str):
                raise error(f"{here}: [{section}] has no key {key!r}")
            try:
                setattr(sections[section], key, kind(value))
            except ValueError:
                raise error(f"{here}: [{section}] {key}: "
                            f"cannot parse {value!r} as {kind.__name__}") from None
            where[section, key] = here
    return where


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
