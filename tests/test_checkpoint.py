"""Checkpoint format: header, sorted records, bit-exact round trip."""

import numpy as np
import pytest

from meshmoe.autodiff import Tensor
from meshmoe.checkpoint import (CheckpointError, atomic_write, load_checkpoint,
                                save_checkpoint)
from meshmoe.rng import Rng


def test_round_trip_bit_exact(tmp_path):
    rng = Rng(1)
    params = {
        "enc.0.attn.wq": Tensor(rng.normal_fill((8, 8)), requires_grad=True),
        "head.expert": Tensor(rng.normal_fill((8, 3)), requires_grad=True),
        "log_alpha": Tensor(np.float64(-1.609437912), requires_grad=True),
        "odd.values": Tensor(np.array([np.pi, 1e-300, -1e300, 2**-52])),
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    back = load_checkpoint(path)
    assert set(back) == set(params)
    for name in params:
        np.testing.assert_array_equal(back[name].data, params[name].data)
        assert back[name].data.shape == params[name].data.shape
        assert back[name].requires_grad


def test_header_and_sorted_paths(tmp_path):
    params = {"z.w": Tensor(np.zeros(2)), "a.w": Tensor(np.ones(3))}
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "MME-CKPT v1"
    names = [line.split(" ")[0] for line in lines[1:]]
    assert names == ["a.w", "z.w"]


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("MME-CKPT v2\n")
    with pytest.raises(CheckpointError, match="bad header"):
        load_checkpoint(path)


def test_payload_size_mismatch(tmp_path):
    import base64
    payload = base64.b64encode(np.zeros(3, dtype="<f8").tobytes()).decode()
    path = tmp_path / "short.ckpt"
    path.write_text(f"MME-CKPT v1\nw 2x2 {payload}\n")
    with pytest.raises(CheckpointError, match="holds 3 values"):
        load_checkpoint(path)


def test_duplicate_parameter_rejected(tmp_path):
    import base64
    payload = base64.b64encode(np.zeros(1, dtype="<f8").tobytes()).decode()
    path = tmp_path / "dup.ckpt"
    path.write_text(f"MME-CKPT v1\nw scalar {payload}\nw scalar {payload}\n")
    with pytest.raises(CheckpointError, match="duplicate"):
        load_checkpoint(path)


def test_scalar_shape_token(tmp_path):
    params = {"s": Tensor(np.float64(2.5))}
    path = tmp_path / "s.ckpt"
    save_checkpoint(params, path)
    assert " scalar " in path.read_text()
    assert load_checkpoint(path)["s"].data.shape == ()


def test_crash_part_way_through_write_keeps_old_checkpoint(tmp_path, monkeypatch):
    from meshmoe import checkpoint

    path = tmp_path / "m.ckpt"
    save_checkpoint({"a.w": Tensor(np.ones(3)), "b.w": Tensor(np.zeros(2))}, path)
    before = path.read_bytes()
    real_token, calls = checkpoint._shape_token, []

    def dies_on_second_record(shape):
        calls.append(shape)
        if len(calls) == 2:
            raise KeyboardInterrupt("killed mid-write")
        return real_token(shape)

    monkeypatch.setattr(checkpoint, "_shape_token", dies_on_second_record)
    with pytest.raises(KeyboardInterrupt):
        save_checkpoint({"a.w": Tensor(np.full(3, 7.0)), "b.w": Tensor(np.ones(2))}, path)
    assert len(calls) == 2
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def test_atomic_write_raising_half_way_keeps_old_file(tmp_path):
    path = tmp_path / "log.csv"
    path.write_bytes(b"old,row\r\n")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("new,row\r\n")
            raise RuntimeError("killed mid-write")
    assert path.read_bytes() == b"old,row\r\n"
    assert [p.name for p in tmp_path.iterdir()] == ["log.csv"]
    with atomic_write(path) as fh:
        fh.write("new,row\r\n")
    assert path.read_bytes() == b"new,row\r\n"
    assert [p.name for p in tmp_path.iterdir()] == ["log.csv"]
