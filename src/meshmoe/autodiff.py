"""Reverse-mode automatic differentiation over float64 and float32 numpy arrays.

A float32 array keeps its dtype; every other input becomes float64.  Ops
follow numpy's promotion, so a graph built only from float32 tensors
(the gate body, in training and inference) computes in float32, and a
float64 operand promotes.  `astype` casts inside a graph; a gradient is
stored in its tensor's own dtype, so float32 work reaching a float64 leaf
lands there as float64.

Each op builds a node holding its output, parent references, and a
closure that maps the output cotangent to parent cotangent contributions.
`backward` seeds a scalar with 1, or `backprop` any root with a given
cotangent, and walks the graph in reverse topological order
(iteratively, so deep recurrent chains cannot blow the recursion limit),
freeing interior gradients and saved arrays once used; leaf gradients
stay, and a second backward raises.  Broadcasting follows
numpy; gradients are summed back over broadcast axes.  A tensor's first
gradient contribution is stored as a copy, unless the op computed it for
that parent alone, and later ones are added in place.  No op reads global
mutable state.  Fused layer ops with hand-written backward passes
(linear, layer norm, attention) live in `layers`, build their nodes with
`_node` and `_accumulate`, and share softmax's `_exp_rows` forward and
`_softmax_grad` backward.
"""

import numpy as np

_FLOAT32 = np.dtype(np.float32)   # comparing to a dtype, not a type, is cheaper


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == _FLOAT32 else data.astype(np.float64, copy=False)
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

    def backward(self) -> None:
        """Add d self / d leaf into every leaf's `.grad` and free the graph:
        each interior node drops its grad, parents and saved arrays once its
        closure has run (`.data` stays), so a later backward through it raises."""
        if self.data.shape != ():
            raise ValueError("backward needs a scalar loss")
        backprop(self, np.ones((), dtype=np.float64))


def backprop(root: Tensor, grad: np.ndarray) -> None:
    """`Tensor.backward` from a root of any shape, seeded with the cotangent
    `grad`, which becomes root's `.grad`."""
    order = _topological_order(root)
    root.grad = grad
    while order:
        node = order.pop()
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad, node._parents, node._backward = None, (), _released


def _released(grad) -> None:
    raise ValueError("backward already ran through this node; rebuild the graph")


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


def _accumulate(tensor: Tensor, grad: np.ndarray, owned: bool = False) -> None:
    # The first contribution is copied: it may be a view of the output
    # cotangent that other parents receive too (add, reshape, ...).  An
    # `owned` array, computed for this parent alone, is stored as it is
    # when its dtype and shape already match.
    if tensor.grad is not None:
        tensor.grad += grad
    elif owned and grad.dtype == tensor.data.dtype and grad.shape == tensor.data.shape:
        tensor.grad = grad
    else:
        tensor.grad = np.empty_like(tensor.data)
        tensor.grad[...] = grad


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
            _accumulate(a, g * (a.data > 0.0), owned=True)

    return _node(out_data, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * (1.0 - out_data * out_data))

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


def clamp(a: Tensor, lo: float = -np.inf, hi: float = np.inf) -> Tensor:
    """Clip to [lo, hi]; the gradient passes only strictly inside (lo, hi)."""
    out_data = np.clip(a.data, lo, hi)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * ((a.data > lo) & (a.data < hi)))

    return _node(out_data, (a,), backward)


# --- shape ops -------------------------------------------------------------

def astype(a: Tensor, dtype) -> Tensor:
    """`a` cast to float32 or float64; the gradient is cast back to a's dtype."""
    out_data = a.data.astype(dtype)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g)

    return _node(out_data, (a,), backward)


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


def _exp_rows(scores: np.ndarray):
    """exp(scores - row max) in place, and its (..., 1) row sums."""
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    return scores, scores.sum(axis=-1, keepdims=True)


def _softmax_grad(g: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Softmax's input cotangent, (g - rowsum(g * probs)) * probs, in place in g."""
    g -= (g * probs).sum(axis=-1, keepdims=True)
    g *= probs
    return g


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    out_data, sums = _exp_rows(a.data.copy())
    out_data /= sums

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _softmax_grad(g.copy(), out_data))

    return _node(out_data, (a,), backward)
