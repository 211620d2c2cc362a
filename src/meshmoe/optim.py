"""Adam over a named parameter dict, the gradient step `descend`, and the
epoch loop of the two pre-training stages built on them."""

import numpy as np

from .rng import Rng, derive


class OptimError(RuntimeError):
    pass


class Adam:
    """Standard Adam with bias correction.

    Parameters with a None gradient are treated as zero-gradient and left
    untouched (their moments do not advance either).  A non-finite
    gradient raises, naming the offending parameter path.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict, lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.t = {k: 0 for k in params}

    def step(self) -> None:
        for path in sorted(self.params):
            p = self.params[path]
            if p.grad is None:
                continue
            if not np.all(np.isfinite(p.grad)):
                raise OptimError(f"non-finite gradient at {path}")
            self.t[path] += 1
            t = self.t[path]
            m = self.m[path]
            v = self.v[path]
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * p.grad * p.grad
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - self.beta2 ** t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


def descend(loss, *optimizers: Adam) -> None:
    """Clear the optimizers' grads, backpropagate `loss` once, then step each
    optimizer in turn; parameters outside them keep the grads `loss` adds."""
    for optimizer in optimizers:
        optimizer.zero_grad()
    loss.backward()
    for optimizer in optimizers:
        optimizer.step()


def epoch_batches(count: int, batch_size: int, seed: int, epoch: int) -> list:
    """Index batches of one epoch: a seeded shuffle of range(count), cut
    into consecutive runs of `batch_size` (the last may be shorter)."""
    if batch_size < 1:
        raise OptimError(f"batch size must be >= 1, got {batch_size}")
    order = list(range(count))
    Rng(derive(seed, "order", epoch)).shuffle(order)
    return [order[i:i + batch_size] for i in range(0, count, batch_size)]


def fit(params: dict, items: list, batch_loss, epochs: int, batch_size: int,
        lr: float, seed: int) -> list:
    """One Adam step per batch of `items`; returns per-epoch mean losses.

    `batch_loss(batch, epoch)` builds the scalar loss of a list of items.
    """
    if not items:
        raise OptimError("no items to fit")
    if epochs < 1:
        raise OptimError(f"epochs must be >= 1, got {epochs}")
    optimizer = Adam(params, lr=lr)
    history = []
    for epoch in range(epochs):
        losses = []
        for batch in epoch_batches(len(items), batch_size, seed, epoch):
            loss = batch_loss([items[i] for i in batch], epoch)
            descend(loss, optimizer)
            losses.append(loss.item())
        history.append(float(np.mean(losses)))
    return history
