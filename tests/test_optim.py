"""The shared pre-training loop: empty or meaningless input fails loudly."""

import pytest

from meshmoe.autodiff import Tensor
from meshmoe.experts import make_expert, train_expert_supervised
from meshmoe.optim import OptimError, epoch_batches, fit


def test_fit_rejects_an_empty_item_list():
    params = {"w": Tensor([1.0], requires_grad=True)}

    def never_called(batch, epoch):
        raise AssertionError("no batch should be built")

    with pytest.raises(OptimError, match="no items to fit"):
        fit(params, [], never_called, epochs=2, batch_size=4, lr=1e-3, seed=0)


def test_expert_pretraining_on_no_meshes_fails():
    expert = make_expert("face_mlp", "f", 3, seed=1)
    with pytest.raises(OptimError, match="no items to fit"):
        train_expert_supervised(expert, [], epochs=2)


@pytest.mark.parametrize("batch_size", [0, -1])
def test_epoch_batches_rejects_a_batch_size_below_one(batch_size):
    with pytest.raises(OptimError, match="batch size must be >= 1"):
        epoch_batches(5, batch_size, seed=0, epoch=0)


def test_fit_rejects_zero_epochs():
    params = {"w": Tensor([1.0], requires_grad=True)}
    with pytest.raises(OptimError, match="epochs must be >= 1"):
        fit(params, [1, 2], lambda batch, epoch: None, epochs=0, batch_size=1,
            lr=1e-3, seed=0)
