"""Reverse-mode automatic differentiation over float64 numpy arrays.

Each op builds a node holding its output, parent references, and a
closure that maps the output cotangent to parent cotangent contributions.
`backward` seeds a scalar with 1 and walks the graph in reverse
topological order (iteratively, so deep recurrent chains cannot blow the
recursion limit).  Broadcasting follows numpy; gradients are summed back
over broadcast axes, except that a 2-D weight under a batched input gets
its gradient from one GEMM over the flattened leading axes.  A tensor's
first gradient contribution is stored as a copy and later ones are added
in place.  No op reads global mutable state.
"""

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar
    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __neg__(self):
        return mul(self, Tensor(-1.0))

    def __matmul__(self, other):
        return matmul(self, other)

    def backward(self) -> None:
        if self.data.shape != ():
            raise ValueError("backward needs a scalar loss")
        order = _topological_order(self)
        self.grad = np.ones((), dtype=np.float64)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _coerce(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _topological_order(root: Tensor) -> list:
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _accumulate(tensor: Tensor, grad: np.ndarray) -> None:
    # The first contribution is copied: it may be a view of the output
    # cotangent that other parents receive too (add, reshape, ...).
    if tensor.grad is None:
        tensor.grad = np.empty_like(tensor.data)
        tensor.grad[...] = grad
    else:
        tensor.grad += grad


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum cotangent over axes numpy broadcast during the forward pass."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _node(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


# --- arithmetic -----------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _node(out_data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _node(out_data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(out_data, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _node(out_data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have ndim >= 2")
    out_data = a.data @ b.data

    def backward(g):
        if b.ndim == 2 and a.ndim > 2:
            # a weight shared by every leading index: 2-D GEMMs on the
            # flattened rows instead of one small GEMM per leading index
            rows = g.reshape(-1, g.shape[-1])
            if a.requires_grad:
                _accumulate(a, (rows @ b.data.T).reshape(a.data.shape))
            if b.requires_grad:
                _accumulate(b, a.data.reshape(-1, a.data.shape[-1]).T @ rows)
            return
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _node(out_data, (a, b), backward)


def pow_const(a: Tensor, exponent: float) -> Tensor:
    out_data = a.data ** exponent

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * exponent * a.data ** (exponent - 1.0))

    return _node(out_data, (a,), backward)


# --- elementwise nonlinearities -------------------------------------------

def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0.0)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * (a.data > 0.0))

    return _node(out_data, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * (1.0 - out_data * out_data))

    return _node(out_data, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * out_data * (1.0 - out_data))

    return _node(out_data, (a,), backward)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * out_data)

    return _node(out_data, (a,), backward)


def log(a: Tensor) -> Tensor:
    out_data = np.log(a.data)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g / a.data)

    return _node(out_data, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    return pow_const(a, 0.5)


def clamp_min(a: Tensor, lo: float) -> Tensor:
    """Gradient passes only where the input is above the floor."""
    out_data = np.maximum(a.data, lo)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * (a.data > lo))

    return _node(out_data, (a,), backward)


def clamp_max(a: Tensor, hi: float) -> Tensor:
    out_data = np.minimum(a.data, hi)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * (a.data < hi))

    return _node(out_data, (a,), backward)


# --- shape ops -------------------------------------------------------------

def reshape(a: Tensor, shape) -> Tensor:
    out_data = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g.reshape(a.data.shape))

    return _node(out_data, (a,), backward)


def swapaxes(a: Tensor, axis1: int, axis2: int) -> Tensor:
    out_data = np.swapaxes(a.data, axis1, axis2)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, np.swapaxes(g, axis1, axis2))

    return _node(out_data, (a,), backward)


def concat(tensors: list, axis: int = 0) -> Tensor:
    tensors = [_coerce(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(lo, hi)
                _accumulate(t, g[tuple(index)])

    return _node(out_data, tuple(tensors), backward)


def stack(tensors: list, axis: int = 0) -> Tensor:
    tensors = [_coerce(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        slices = np.moveaxis(g, axis, 0)
        for t, piece in zip(tensors, slices):
            if t.requires_grad:
                _accumulate(t, np.asarray(piece))

    return _node(out_data, tuple(tensors), backward)


def slice_index(a: Tensor, axis: int, index: int) -> Tensor:
    """Select one index along `axis`, dropping that axis."""
    out_data = np.take(a.data, index, axis=axis)

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            sel = [slice(None)] * a.data.ndim
            sel[axis] = index
            full[tuple(sel)] = g
            _accumulate(a, full)

    return _node(out_data, (a,), backward)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Pick a[i, indices[i]] for each row i of a 2-D tensor."""
    indices = np.asarray(indices, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("gather_rows expects a 2-D tensor")
    if indices.ndim != 1 or len(indices) != a.data.shape[0]:
        raise ValueError("indices must be 1-D with one entry per row")
    if indices.size and (indices.min() < 0 or indices.max() >= a.data.shape[1]):
        raise ValueError("gather index out of range")
    rows = np.arange(a.data.shape[0])
    out_data = a.data[rows, indices]

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, (rows, indices), g)
            _accumulate(a, full)

    return _node(out_data, (a,), backward)


# --- reductions ------------------------------------------------------------

def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if not a.requires_grad:
            return
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.data.shape).copy())
            return
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        g_expanded = g
        if not keepdims:
            for ax in sorted(ax % a.data.ndim for ax in axes):
                g_expanded = np.expand_dims(g_expanded, ax)
        _accumulate(a, np.broadcast_to(g_expanded, a.data.shape).copy())

    return _node(out_data, (a,), backward)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.data.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = int(np.prod([a.data.shape[ax] for ax in axes]))
    return mul(tsum(a, axis=axis, keepdims=keepdims), Tensor(1.0 / count))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if a.requires_grad:
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            _accumulate(a, out_data * (g - dot))

    return _node(out_data, (a,), backward)
