"""The shared pre-training loop: empty input fails loudly."""

import pytest

from meshmoe.autodiff import Tensor
from meshmoe.experts import make_expert, train_expert_supervised
from meshmoe.optim import OptimError, fit


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
