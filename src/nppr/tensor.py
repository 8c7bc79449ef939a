"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is implicit: until a backward consumes it, every tensor produced by
an op keeps references to its parents and a closure that routes the incoming
gradient to them. Creation order is a valid forward order, so a depth-first
topological sort from the root visits nodes in a correct reverse order.

All values are 64-bit floats. Ops are plain numpy calls in a fixed order, so
forward values are bit-stable for fixed inputs.

Nine special-purpose ops with hand-written backwards replace chains of
generic ops that were longer, slower or held more memory: `dense` is the
classifier's relu-separated dense layers, or one layer of the head or
upsampler, `mixture_latent` mixes the relaxed per-component draws without
copying a factor per draw, `tril_activate` turns a head's packed lower
triangles into Cholesky entries with a positive diagonal and `tril_scatter`
unpacks them into D x D factors where they are used, `budget` is the
perturbation `gamma * tanh` (plus the clean inputs) computed block by block,
`margin` is the softplus logit margin that training minimises and the CW
attack ascends, whose gradient reaches only each row's true class and
runner-up, `cross_entropy` is the loss the classifier is fit on and PGD
ascends, `gumbel_softmax` is the relaxation that carries gradients to the
mixture weights (these two take the only softmaxes on the tape), and
`unit_rows` scales the label embedding's rows to unit length.

Five generic ops have no caller in the package and serve the tests'
reference chains: `add` and `tanh` build the chain `budget` is compared
against, `softplus` the one `tril_activate` is, and `mul` and `reduce_sum`
build those chains and the gradient probes. No op clamps a log any more, so
the `log_clamped` counter stays 0; it stays a key of `numeric_counters()`
because the benchmark reads every key, and it leaves together with that
benchmark metric.

A backward computes gradients only for operands that require them: the
product for a frozen weight or a constant input is never formed. A tape serves
one backward: an op's node drops its `.grad`, closure and parents once it has
routed its gradient, so only leaves keep a `.grad`. A leaf's first gradient is
stored without a copy and may share memory with another leaf's (or be a
read-only broadcast view); nothing may write into a stored `.grad`.

Under `no_grad()` every op the same thread runs returns a plain tensor that
needs no gradient and keeps no parents or closure, whatever its operands
need. Evaluation runs its forwards there, so a Monte-Carlo estimate records
no tape that nothing reads; the forward values are the same bits either way.
"""

from __future__ import annotations

import ctypes
import math
import threading
from contextlib import contextmanager

import numpy as np

# A backward frees its tape, so each training step frees and then allocates
# about the same arrays again. glibc would hand the freed heap top back to the
# kernel for the next step to fault in: keep up to 128 MiB of it. Setting one
# threshold freezes the other, so pin the mmap one at its adaptive ceiling.
# The estimators' worker threads allocate too, and glibc would give each its
# own arena, which keeps its own freed heap: one arena for every thread holds
# the process to one kept heap, as with one thread.
try:
    _mallopt = ctypes.CDLL("libc.so.6").mallopt
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD
    _mallopt(-1, 128 << 20)  # M_TRIM_THRESHOLD
    _mallopt(-8, 1)          # M_ARENA_MAX
except (OSError, AttributeError):  # not glibc
    pass

# The (get, set) thread-count calls of the OpenBLAS that numpy loaded, under
# the names numpy 2's bundled scipy-openblas gives them, or None where they
# are not found. The Monte-Carlo estimators hold the count at 1 while their
# worker threads run, so that each product runs on its worker's core (see
# `metrics`).
try:
    _openblas = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    BLAS_THREADS = (_openblas.scipy_openblas_get_num_threads64_,
                    _openblas.scipy_openblas_set_num_threads64_)
    BLAS_THREADS[0].argtypes, BLAS_THREADS[0].restype = (), ctypes.c_int
    BLAS_THREADS[1].argtypes, BLAS_THREADS[1].restype = (ctypes.c_int,), None
except (OSError, AttributeError):  # another BLAS, or numpy's names differ
    BLAS_THREADS = None


class ShapeError(Exception):
    """Raised when operand shapes are invalid for an op."""


NORM_FLOOR = 1e-12

# Floats of `budget`'s operand per backward block (256 KiB): the backward's
# recomputed tanh is one block, not a second array of the operand's size.
_BUDGET_BLOCK = 1 << 15

# Counts of guarded numeric events (domain clamps, skipped optimizer steps);
# `log_clamped` is never incremented (see the module docstring).
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


class _GradState(threading.local):
    enabled = True


_grad = _GradState()


@contextmanager
def no_grad():
    """Record no tape inside the block, in this thread only; the previous
    state comes back on exit, also after an exception, so blocks nest. Every
    thread starts with taping on."""
    previous = _grad.enabled
    _grad.enabled = False
    try:
        yield
    finally:
        _grad.enabled = previous


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

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(op={self.op}, shape={self.shape}{flag})"


def constant(data) -> Tensor:
    """A tensor that never receives gradients."""
    return Tensor(data, requires_grad=False)


# A first gradient is kept uncopied; only leaves keep a `.grad`, so only theirs alias.
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
    if not (_grad.enabled and any(p.requires_grad for p in parents)):
        return Tensor(data, requires_grad=False, op=op)
    return Tensor(data, requires_grad=True, op=op, parents=parents, bwd=bwd)


def backward(root: Tensor) -> None:
    """Populate grads of every requires_grad leaf below a scalar root, consuming its tape.

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
        if node._bwd is None and node.op != "leaf":
            raise RuntimeError(f"backward: a {node.op} node's tape was consumed earlier")
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))

    root.grad = np.ones_like(root.data)
    while topo:
        node = topo.pop()
        if node._bwd is not None:
            if node.grad is not None:
                node._bwd(node.grad)
            node.grad, node._bwd, node._parents = None, None, ()


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


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require_broadcastable(a, b, "mul")
    out_data = a.data * b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _node(out_data, (a, b), bwd, "mul")


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


def dense(x: Tensor, *layers: tuple[Tensor, Tensor]) -> Tensor:
    """Dense layers a @ weight + bias per (weight, bias) pair, a relu between
    layers and none after the last: x (B, in), weight (in, out), bias (out,).
    The backward keeps each layer's post-relu input (> 0 exactly where its
    pre-activation is) and stops below the last operand needing a gradient."""
    width = x.shape[1] if x.ndim == 2 else None
    for w, b in layers:
        width = w.shape[1] if (w.ndim, w.shape[:1], b.shape) == (2, (width,), w.shape[1:]) else None
    if not layers or width is None:
        raise ShapeError(f"dense: expected x (B, in) and chained (weight (in, out), bias (out,)) "
                         f"layers, got {x.shape} and {[(w.shape, b.shape) for w, b in layers]}")
    params = [p for layer in layers for p in layer]
    inputs, h = [], x.data
    for i, (w, b) in enumerate(layers):
        if i:
            np.maximum(h, 0.0, out=h)
        inputs.append(h)
        h = h @ w.data
        h += b.data

    def bwd(g):
        for i in reversed(range(len(layers))):
            (w, b), a = layers[i], inputs[i]
            if w.requires_grad:
                _accumulate(w, a.T @ g)
            if b.requires_grad:
                _accumulate(b, g.sum(axis=0))
            if not (x.requires_grad or any(p.requires_grad for p in params[:2 * i])):
                return
            g = g @ w.data.T
            if i:
                g *= a > 0.0
        _accumulate(x, g)

    return _node(h, (x, *params), bwd, "dense")


def mixture_latent(z: Tensor, means: Tensor, chol: Tensor, xi: np.ndarray) -> Tensor:
    """Mix per-component draws: out[b,m] = sum_k z[b,m,k] (means[b,k] + chol[b,k] @ xi[b,m,k]).

    z is (B,M,K), means (B,K,D), chol (B,K,D,D) and xi a constant (B,M,K,D)
    array that gets no gradient. With input b's factors side by side as
    S = [L_1 ... L_K], (D, K*D), the forward is z @ means + (z*xi) @ S^T, and
    each gradient is one product per input: means gets z^T g, chol g^T (z*xi)
    and z g.mu_k + (S^T g)_k.xi_k. The backward forms z*xi again, not kept.
    """
    xi = np.asarray(xi, dtype=np.float64)
    B, M, K = z.shape if z.ndim == 3 else (None,) * 3
    D = means.shape[-1]
    if means.shape != (B, K, D) or chol.shape != (B, K, D, D) or xi.shape != (B, M, K, D):
        raise ShapeError(f"mixture_latent: expected z (B,M,K), means (B,K,D), chol (B,K,D,D) "
                         f"and xi (B,M,K,D), got {z.shape}, {means.shape}, {chol.shape} "
                         f"and {xi.shape}")
    stacked = chol.data.transpose(0, 2, 1, 3).reshape(B, D, K * D)  # S per input, a copy

    def weighted():  # z*xi as (B, M, K*D)
        return (z.data[..., None] * xi).reshape(B, M, K * D)

    out_data = z.data @ means.data
    out_data += weighted() @ np.swapaxes(stacked, 1, 2)

    def bwd(g):
        if means.requires_grad:
            _accumulate(means, np.swapaxes(z.data, 1, 2) @ g)
        if chol.requires_grad:
            gs = np.swapaxes(g, 1, 2) @ weighted()                    # (B, D, K*D)
            _accumulate(chol, gs.reshape(B, D, K, D).transpose(0, 2, 1, 3))
        if z.requires_grad:
            gz = g @ np.swapaxes(means.data, 1, 2)
            gz += np.einsum("bmke,bmke->bmk", (g @ stacked).reshape(B, M, K, D), xi)
            _accumulate(z, gz)

    return _node(out_data, (z, means, chol), bwd, "mixture_latent")


def _tril_indices(packed: Tensor, dim: int, op: str) -> tuple:
    """(rows, cols) of the D x D lower triangle in row-major order, after
    checking that the last axis of `packed` holds D(D+1)/2 entries."""
    D = int(dim)
    if packed.ndim < 1 or packed.shape[-1] != D * (D + 1) // 2:
        raise ShapeError(f"{op}: expected last axis {D * (D + 1) // 2} "
                         f"(D={D}), got shape {packed.shape}")
    return np.tril_indices(D)


def tril_activate(packed: Tensor, dim: int, t_sigma: float, floor: float) -> Tensor:
    """Cholesky entries from raw row-major lower triangles, (..., D(D+1)/2) each.

    Entries are divided by t_sigma (as a multiplication by 1/t_sigma); the
    diagonal ones then become softplus(.) + floor, so every factor that
    `tril_scatter` builds from them has a positive diagonal.
    """
    rows, cols = _tril_indices(packed, dim, "tril_activate")
    diag = np.flatnonzero(rows == cols)
    c = 1.0 / float(t_sigma)
    out_data = packed.data * c
    scaled_diag = out_data[..., diag]  # a copy, kept for the backward
    out_data[..., diag] = np.logaddexp(0.0, scaled_diag) + floor

    def bwd(g):
        gp = g * c
        gp[..., diag] = (g[..., diag] * _sigmoid(scaled_diag)) * c
        _accumulate(packed, gp)

    return _node(out_data, (packed,), bwd, "tril_activate")


def tril_scatter(packed: Tensor, dim: int) -> Tensor:
    """Row-major lower triangles into D x D blocks: (..., D(D+1)/2) -> (..., D, D).
    The upper triangle is zero and has no parameters."""
    rows, cols = _tril_indices(packed, dim, "tril_scatter")
    out_data = np.zeros((*packed.shape[:-1], int(dim), int(dim)))
    out_data[..., rows, cols] = packed.data

    def bwd(g):
        _accumulate(packed, g[..., rows, cols])

    return _node(out_data, (packed,), bwd, "tril_scatter")


def margin(logits: Tensor, y: np.ndarray, kappa: float, sign: int) -> Tensor:
    """Row mean of softplus(sign * (h_y - r) + kappa) for (N, C) logits, sign 1 or -1:
    h_y is the logit of class y, r the largest other one (lowest index on ties),
    read from the logits plus -1e30 at y. The gradient reaches only y and r."""
    y = np.asarray(y, dtype=np.int64)
    if logits.ndim != 2 or y.shape != (logits.shape[0],):
        raise ShapeError(f"margin: expected (N, C) logits and (N,) labels, "
                         f"got {logits.shape} and {y.shape}")
    rows = np.arange(len(y))
    mask = np.zeros(logits.shape)
    mask[rows, y] = -1e30
    masked = logits.data + mask
    arg = masked.argmax(axis=1)
    h_y, r = logits.data[rows, y], masked[rows, arg]
    gap = (h_y - r if sign == 1 else r - h_y) + float(kappa)
    out_data = np.logaddexp(0.0, gap).mean()

    def bwd(g):
        s = (g / len(rows)) * _sigmoid(gap)
        up, down = (y, arg) if sign == 1 else (arg, y)
        full = np.zeros_like(logits.data)
        full[rows, up] += s
        full[rows, down] -= s
        _accumulate(logits, full)

    return _node(out_data, (logits,), bwd, "margin")


def _log_softmax(h: np.ndarray) -> np.ndarray:
    """log softmax along the last axis, shifted by each row's maximum."""
    shifted = h - h.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _log_softmax_grad(logp: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient reaching h from g on logp = _log_softmax(h)."""
    return g - np.exp(logp) * g.sum(axis=-1, keepdims=True)


def cross_entropy(logits: Tensor, y: np.ndarray) -> Tensor:
    """Row mean of -log softmax(h)[y] for (N, C) logits h and (N,) labels y."""
    y = np.asarray(y, dtype=np.int64)
    if logits.ndim != 2 or y.shape != (logits.shape[0],):
        raise ShapeError(f"cross_entropy: expected (N, C) logits and (N,) labels, "
                         f"got {logits.shape} and {y.shape}")
    rows = np.arange(len(y))
    logp = _log_softmax(logits.data)
    out_data = logp[rows, y].mean() * -1.0

    def bwd(g):
        full = np.zeros_like(logp)
        full[rows, y] = (g * -1.0) / len(rows)
        _accumulate(logits, _log_softmax_grad(logp, full))

    return _node(out_data, (logits,), bwd, "cross_entropy")


def gumbel_softmax(logits: Tensor, noise: np.ndarray, tau: float) -> Tensor:
    """softmax((log softmax(logits) + noise) / tau) along the last axis, for a
    constant `noise` of the logits' shape that gets no gradient."""
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != logits.shape:
        raise ShapeError(f"gumbel_softmax: noise shape {noise.shape} is not the "
                         f"logits' {logits.shape}")
    c = 1.0 / float(tau)
    log_pi = _log_softmax(logits.data)
    s = (log_pi + noise) * c
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    out_data = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        gs = out_data * (g - (g * out_data).sum(axis=-1, keepdims=True)) * c
        _accumulate(logits, _log_softmax_grad(log_pi, gs))

    return _node(out_data, (logits,), bwd, "gumbel_softmax")


def unit_rows(a: Tensor) -> Tensor:
    """Each row of an (N, E) matrix divided by its L2 norm; squared norms
    below NORM_FLOOR are clamped, and each clamped row is counted."""
    if a.ndim != 2:
        raise ShapeError(f"unit_rows: expected an (N, E) matrix, got shape {a.shape}")
    sq = (a.data * a.data).sum(axis=1, keepdims=True)
    _bump("sqrt_clamped", np.count_nonzero(sq < NORM_FLOOR))
    n = np.sqrt(np.maximum(sq, NORM_FLOOR))
    out_data = a.data / n

    def bwd(g):
        # The arithmetic order of div(a, sqrt(sum(a * a))), so gradients keep its bits.
        gq = (-g * a.data / (n * n)).sum(axis=1, keepdims=True) * 0.5 / n
        _accumulate(a, g / n + gq * a.data + gq * a.data)

    return _node(out_data, (a,), bwd, "unit_rows")


def budget(u: Tensor, gamma: float, base: np.ndarray | None = None) -> Tensor:
    """base + gamma * tanh(u), or gamma * tanh(u) without a base, for a
    constant `base` that broadcasts to u's shape and gets no gradient.

    The forward fills one array in place and keeps neither tanh(u) nor the
    scaled perturbation beside it. The backward recomputes tanh over blocks of
    u's leading axis of about _BUDGET_BLOCK floats and forms
    (g * gamma) * (1 - t * t). The arithmetic is that of
    add(base, scale(tanh(u), gamma)), so values and gradients keep its bits.
    """
    gamma = float(gamma)
    if base is not None:
        base = np.asarray(base, dtype=np.float64)
        try:
            fits = np.broadcast_shapes(base.shape, u.shape) == u.shape
        except ValueError:
            fits = False
        if not fits:
            raise ShapeError(f"budget: base shape {base.shape} does not broadcast "
                             f"to {u.shape}")
    x = u.data
    out_data = np.tanh(x, out=np.empty(u.shape))
    out_data *= gamma
    if base is not None:
        out_data += base

    def bwd(g):
        rows = u.shape or (1,)  # a scalar is one row
        step = max(1, _BUDGET_BLOCK // max(1, math.prod(rows[1:])))
        x_rows, g = x.reshape(rows), g.reshape(rows)
        grad = np.empty(rows)
        for lo in range(0, rows[0], step):
            blk = slice(lo, lo + step)
            t = np.tanh(x_rows[blk])
            t *= t
            np.subtract(1.0, t, out=t)
            out = grad[blk]
            np.multiply(g[blk], gamma, out=out)
            out *= t
        _accumulate(u, grad.reshape(u.shape))

    return _node(out_data, (u,), bwd, "budget")


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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    t = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + t), t / (1.0 + t))


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x), evaluated stably via logaddexp."""
    out_data = np.logaddexp(0.0, a.data)

    def bwd(g):
        _accumulate(a, g * _sigmoid(a.data))

    return _node(out_data, (a,), bwd, "softplus")


# ---------------------------------------------------------------------------
# Reductions and indexing


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.shape))

    return _node(out_data, (a,), bwd, "reduce_sum")


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
