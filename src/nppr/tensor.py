"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is implicit: every tensor produced by an op keeps references to its
parents and a closure that routes the incoming gradient to them. Creation
order is a valid forward order, so a depth-first topological sort from the
backward root visits nodes in a correct reverse order.

All values are 64-bit floats. Ops are plain numpy calls in a fixed order, so
forward values are bit-stable for fixed inputs.

A backward computes gradients only for operands that require them: the
product for a frozen weight or a constant input is never formed. The first
gradient a tensor receives is stored without a copy, so a `.grad` may share
memory with another tensor's gradient (or be a read-only broadcast view);
nothing may write into a stored `.grad`.

Under `no_grad()` every op returns a plain tensor that needs no gradient and
keeps no parents or closure, whatever its operands need. Evaluation runs its
forwards there, so a Monte-Carlo estimate records no tape that nothing reads;
the forward values are the same bits either way.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


class TensorError(Exception):
    """Base error for tensor-engine misuse."""


class ShapeError(TensorError):
    """Raised when operand shapes are invalid for an op."""


LOG_FLOOR = 1e-12

# Counts of guarded numeric events (domain clamps, skipped optimizer steps).
_NUMERIC_COUNTERS = {"log_clamped": 0, "sqrt_clamped": 0, "adam_nan_skips": 0}


def numeric_counters() -> dict:
    """Snapshot of the numerics counters."""
    return dict(_NUMERIC_COUNTERS)


def reset_numeric_counters() -> None:
    for key in _NUMERIC_COUNTERS:
        _NUMERIC_COUNTERS[key] = 0


def _bump(counter: str, amount: int) -> None:
    if amount:
        _NUMERIC_COUNTERS[counter] += int(amount)


_grad_enabled = True


@contextmanager
def no_grad():
    """Record no tape inside the block; the previous state comes back on exit,
    also after an exception, so blocks nest."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    """A dense n-d array that optionally participates in the gradient tape."""

    __slots__ = ("data", "requires_grad", "grad", "op", "_parents", "_bwd")

    def __init__(self, data, requires_grad: bool = False, *, op: str = "leaf",
                 parents: tuple = (), bwd=None):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.op = op
        self._parents = parents if self.requires_grad else ()
        self._bwd = bwd if self.requires_grad else None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(op={self.op}, shape={self.shape}{flag})"


def constant(data) -> Tensor:
    """A tensor that never receives gradients."""
    return Tensor(data, requires_grad=False)


def _accumulate(parent: Tensor, grad: np.ndarray) -> None:
    if not parent.requires_grad:
        return
    if parent.grad is None:
        parent.grad = np.asarray(grad, dtype=np.float64)
    else:
        parent.grad = parent.grad + grad


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _node(data: np.ndarray, parents: tuple, bwd, op: str) -> Tensor:
    if not (_grad_enabled and any(p.requires_grad for p in parents)):
        return Tensor(data, requires_grad=False, op=op)
    return Tensor(data, requires_grad=True, op=op, parents=parents, bwd=bwd)


def backward(root: Tensor) -> None:
    """Populate grads of every requires_grad leaf reachable from a scalar root.

    Gradients accumulate additively across multiple uses of the same tensor.
    """
    if root.size != 1:
        raise ShapeError(f"backward: root must be scalar, got shape {root.shape}")
    if not root.requires_grad:
        return

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))

    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._bwd is not None and node.grad is not None:
            node._bwd(node.grad)


def _require_broadcastable(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


# ---------------------------------------------------------------------------
# Elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_broadcastable(a, b, "add")
    out_data = a.data + b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _node(out_data, (a, b), bwd, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_broadcastable(a, b, "sub")
    out_data = a.data - b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.shape))

    return _node(out_data, (a, b), bwd, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require_broadcastable(a, b, "mul")
    out_data = a.data * b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _node(out_data, (a, b), bwd, "mul")


def div(a: Tensor, b: Tensor) -> Tensor:
    _require_broadcastable(a, b, "div")
    out_data = a.data / b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _node(out_data, (a, b), bwd, "div")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out_data = a.data * c

    def bwd(g):
        _accumulate(a, g * c)

    return _node(out_data, (a,), bwd, "scale")


# ---------------------------------------------------------------------------
# Linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy batch broadcasting; operands must be >= 2-D."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be >=2-D, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
    try:
        np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError:
        raise ShapeError(f"matmul: batch dims of {a.shape} and {b.shape} do not broadcast") from None
    out_data = a.data @ b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return _node(out_data, (a, b), bwd, "matmul")


def affine(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x @ weight + bias for x:(B,in), weight:(in,out), bias:(out,)."""
    if x.ndim != 2 or weight.ndim != 2 or bias.ndim != 1:
        raise ShapeError(
            f"affine: expected x 2-D, weight 2-D, bias 1-D; got {x.shape}, {weight.shape}, {bias.shape}")
    if x.shape[1] != weight.shape[0] or weight.shape[1] != bias.shape[0]:
        raise ShapeError(f"affine: incompatible shapes {x.shape}, {weight.shape}, {bias.shape}")
    out_data = x.data @ weight.data + bias.data

    def bwd(g):
        if x.requires_grad:
            _accumulate(x, g @ weight.data.T)
        if weight.requires_grad:
            _accumulate(weight, x.data.T @ g)
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=0))

    return _node(out_data, (x, weight, bias), bwd, "affine")


def chol_apply(chol: Tensor, xi: np.ndarray) -> Tensor:
    """Apply per-component factors to constant noise: out[b,m,k] = chol[b,k] @ xi[b,m,k].

    chol is (B,K,D,D) and xi a constant (B,M,K,D) array. Forward and backward
    are each one matmul batched over (b,k) against a (B,K,D,M) copy of xi; no
    (B,M,K,D,D) intermediate is built and no gradient goes to xi.
    """
    xi = np.asarray(xi, dtype=np.float64)
    if chol.ndim != 4 or xi.ndim != 4 or chol.shape[-1] != chol.shape[-2]:
        raise ShapeError(f"chol_apply: expected chol (B,K,D,D) and xi (B,M,K,D), "
                         f"got {chol.shape} and {xi.shape}")
    B, K, D, _ = chol.shape
    if (xi.shape[0], xi.shape[2], xi.shape[3]) != (B, K, D):
        raise ShapeError(f"chol_apply: xi {xi.shape} does not match chol {chol.shape}")
    xi_t = np.ascontiguousarray(xi.transpose(0, 2, 3, 1))          # (B, K, D, M)
    out_data = (chol.data @ xi_t).transpose(0, 3, 1, 2)            # (B, M, K, D)

    def bwd(g):
        _accumulate(chol, g.transpose(0, 2, 3, 1) @ np.swapaxes(xi_t, -1, -2))

    return _node(out_data, (chol,), bwd, "chol_apply")


def tril_factor(packed: Tensor, dim: int, t_sigma: float, floor: float) -> Tensor:
    """Unpack row-major lower triangles into Cholesky factors: (..., D(D+1)/2) -> (..., D, D).

    Entries are divided by t_sigma (as a multiplication by 1/t_sigma); the
    diagonal ones then become softplus(.) + floor, so every factor has a
    positive diagonal. The upper triangle is zero and has no parameters.
    """
    D = int(dim)
    if packed.ndim < 1 or packed.shape[-1] != D * (D + 1) // 2:
        raise ShapeError(f"tril_factor: expected last axis {D * (D + 1) // 2} "
                         f"(D={D}), got shape {packed.shape}")
    rows, cols = np.tril_indices(D)
    diag = np.flatnonzero(rows == cols)
    c = 1.0 / float(t_sigma)
    vals = packed.data * c
    scaled_diag = vals[..., diag]  # a copy, kept for the backward
    vals[..., diag] = np.logaddexp(0.0, scaled_diag) + floor
    out_data = np.zeros((*packed.shape[:-1], D, D))
    out_data[..., rows, cols] = vals

    def bwd(g):
        gp = g[..., rows, cols]
        gp[..., diag] *= _sigmoid(scaled_diag)
        _accumulate(packed, gp * c)

    return _node(out_data, (packed,), bwd, "tril_factor")


# ---------------------------------------------------------------------------
# Nonlinearities


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0.0)

    def bwd(g):
        _accumulate(a, g * (a.data > 0.0))

    return _node(out_data, (a,), bwd, "relu")


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def bwd(g):
        _accumulate(a, g * (1.0 - out_data * out_data))

    return _node(out_data, (a,), bwd, "tanh")


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def bwd(g):
        _accumulate(a, g * out_data)

    return _node(out_data, (a,), bwd, "exp")


def log(a: Tensor) -> Tensor:
    """Natural log; inputs below LOG_FLOOR are clamped and counted."""
    clamped = np.maximum(a.data, LOG_FLOOR)
    _bump("log_clamped", np.count_nonzero(a.data < LOG_FLOOR))
    out_data = np.log(clamped)

    def bwd(g):
        _accumulate(a, g / clamped)

    return _node(out_data, (a,), bwd, "log")


def sqrt(a: Tensor) -> Tensor:
    """Square root; inputs below LOG_FLOOR are clamped and counted."""
    clamped = np.maximum(a.data, LOG_FLOOR)
    _bump("sqrt_clamped", np.count_nonzero(a.data < LOG_FLOOR))
    out_data = np.sqrt(clamped)

    def bwd(g):
        _accumulate(a, g * 0.5 / out_data)

    return _node(out_data, (a,), bwd, "sqrt")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    t = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + t), t / (1.0 + t))


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x), evaluated stably via logaddexp."""
    out_data = np.logaddexp(0.0, a.data)

    def bwd(g):
        _accumulate(a, g * _sigmoid(a.data))

    return _node(out_data, (a,), bwd, "softplus")


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Softmax along `axis` with log-sum-exp stabilization."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        _accumulate(a, out_data * (g - dot))

    return _node(out_data, (a,), bwd, "softmax")


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - lse
    soft = np.exp(out_data)

    def bwd(g):
        _accumulate(a, g - soft * g.sum(axis=axis, keepdims=True))

    return _node(out_data, (a,), bwd, "log_softmax")


# ---------------------------------------------------------------------------
# Reductions and indexing


def _normalize_axis(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axis_n = _normalize_axis(axis, a.ndim)
    out_data = a.data.sum(axis=axis_n, keepdims=keepdims)

    def bwd(g):
        if axis_n is None:
            _accumulate(a, np.broadcast_to(g, a.shape) if np.ndim(g) else np.full(a.shape, g))
            return
        if not keepdims:
            g = np.expand_dims(g, axis_n)
        _accumulate(a, np.broadcast_to(g, a.shape))

    return _node(out_data, (a,), bwd, "reduce_sum")


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axis_n = _normalize_axis(axis, a.ndim)
    if axis_n is None:
        count = a.size
    else:
        count = int(np.prod([a.shape[i] for i in axis_n]))
    out_data = a.data.mean(axis=axis_n, keepdims=keepdims)

    def bwd(g):
        g = np.asarray(g) / count
        if axis_n is None:
            _accumulate(a, np.full(a.shape, g))
            return
        if not keepdims:
            g = np.expand_dims(g, axis_n)
        _accumulate(a, np.broadcast_to(g, a.shape))

    return _node(out_data, (a,), bwd, "reduce_mean")


def row_max(a: Tensor, axis: int = -1) -> Tensor:
    """Max along `axis`; gradient routes to the first (lowest-index) argmax."""
    ax = axis % a.ndim
    out_data = a.data.max(axis=ax)
    arg = a.data.argmax(axis=ax)

    def bwd(g):
        full = np.zeros_like(a.data)
        np.put_along_axis(full, np.expand_dims(arg, ax), np.expand_dims(g, ax), axis=ax)
        _accumulate(a, full)

    return _node(out_data, (a,), bwd, "row_max")


def gather_row(a: Tensor, index: np.ndarray) -> Tensor:
    """Pick one column per row: out[i] = a[i, index[i]] for a 2-D tensor."""
    if a.ndim != 2:
        raise ShapeError(f"gather_row: expected 2-D input, got {a.shape}")
    idx = np.asarray(index, dtype=np.int64)
    if idx.shape != (a.shape[0],):
        raise ShapeError(f"gather_row: index shape {idx.shape} does not match rows {a.shape[0]}")
    rows = np.arange(a.shape[0])
    out_data = a.data[rows, idx]

    def bwd(g):
        full = np.zeros_like(a.data)
        np.add.at(full, (rows, idx), g)
        _accumulate(a, full)

    return _node(out_data, (a,), bwd, "gather_row")


def take_rows(a: Tensor, index: np.ndarray) -> Tensor:
    """Select whole rows by index (e.g. embedding lookup); duplicates accumulate."""
    idx = np.asarray(index, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"take_rows: index must be 1-D, got shape {idx.shape}")
    out_data = a.data[idx]

    def bwd(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        _accumulate(a, full)

    return _node(out_data, (a,), bwd, "take_rows")


# ---------------------------------------------------------------------------
# Shape manipulation


def reshape(a: Tensor, shape: tuple) -> Tensor:
    out_data = a.data.reshape(shape)

    def bwd(g):
        _accumulate(a, g.reshape(a.shape))

    return _node(out_data, (a,), bwd, "reshape")


def broadcast_to(a: Tensor, shape: tuple) -> Tensor:
    try:
        out_data = np.broadcast_to(a.data, shape)
    except ValueError:
        raise ShapeError(f"broadcast_to: cannot broadcast {a.shape} to {shape}") from None

    def bwd(g):
        _accumulate(a, _unbroadcast(g, a.shape))

    return _node(np.ascontiguousarray(out_data), (a,), bwd, "broadcast_to")
