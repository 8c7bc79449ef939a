"""Dense float64 tensors with reverse-mode automatic differentiation.

A `Tensor` holds its value, `data`, and, when it needs a gradient, its node on
the tape. A node holds its parents' nodes, the closure that routes the
gradient reaching it to them, and that gradient while a backward runs; a
leaf's node holds the leaf's `.grad`. Creation order is a valid forward order,
so a depth-first topological sort from the root's node visits nodes in a
correct reverse order.

The tape is made of nodes, not tensors: a closure keeps only the arrays and
shapes its backward reads, never an operand. So an output that no backward
reads is freed as soon as its caller drops its tensor, while its node stays
on the tape. Each op keeps:
- `add`, `scale`, `reshape`, `broadcast_to`, `reduce_sum`, `take_rows` and
  `tril_scatter`: shapes or indices only;
- `mul` and `matmul`: the other operand's data, for each operand that takes a
  gradient;
- `dense`: the input of each layer whose weight takes a gradient, the weights
  the gradient passes down through, and a boolean relu mask for each frozen
  layer above the first it passes (see `dense`);
- `mixture_latent`: the weights z, the means, the noise and one stacked copy
  of the factors, not the D x D factors themselves;
- `tril_activate`: the scaled diagonal entries; `budget`: its operand u, not
  the perturbed rows it returns;
- `margin`: each row's gap and its two classes; `cross_entropy`: the log
  softmax; `gumbel_softmax`: the log softmax and its output; `tanh`: its
  output; `relu`, `softplus` and `unit_rows`: the operand (and the norms).
A training step thus frees the perturbed rows, the head's outputs and the
activated and unpacked factors once the forward has read them.

All values are 64-bit floats. Ops are plain numpy calls in a fixed order, so
forward values are bit-stable for fixed inputs.

Nine special-purpose ops with hand-written backwards replace chains of
generic ops that were longer, slower or held more memory: `dense` is the
classifier's relu-separated dense layers, or one layer of the head or
upsampler, `mixture_latent` mixes the relaxed per-component draws a block of
inputs at a time, without copying a factor per draw, `tril_activate` turns a head's packed lower
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
one backward: an op's node drops its gradient, closure and parents once it has
routed its gradient, so only leaves keep a `.grad`.

Gradients in flight follow one rule: a gradient that reaches an op's backward
and is writable belongs to that op, which may write into it (`budget` does).
So an op hands each operand either a new array or a view of its own gradient
that no other operand is handed: `add`, the one op that routes one array to
two operands, hands it on as a read-only view, and `reduce_sum` hands on a
read-only broadcast view. A leaf's first gradient is stored without a copy,
so it may be such a view and share memory with another leaf's; nothing writes
into a stored `.grad`. An op's output may be a read-only view too
(`broadcast_to`, `reshape`): no op writes into an operand.

Under `no_grad()` every op the same thread runs returns a plain tensor that
needs no gradient and records no node, whatever its operands need. Evaluation
runs its forwards there, so a Monte-Carlo estimate records no tape that
nothing reads; the forward values are the same bits either way.
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

# Floats of z*xi per `mixture_latent` block (1 MiB): the op forms z*xi and the
# products that read it a block of inputs at a time, never for every input.
_LATENT_BLOCK = 1 << 17

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


class _Node:
    """One op's place on the tape, or a leaf that takes a gradient.

    `parents` are the operands' nodes, `bwd` routes the gradient reaching
    this node to them, and `grad` is that gradient while a backward runs (a
    leaf's is the leaf's `.grad`). A leaf's node has neither parents nor a
    closure; an op's loses both, and its gradient, once it has routed it."""

    __slots__ = ("op", "parents", "bwd", "grad")

    def __init__(self, op: str, parents: tuple = (), bwd=None):
        self.op, self.parents, self.bwd, self.grad = op, parents, bwd, None


class Tensor:
    """A dense n-d array; one that needs a gradient also holds its tape node."""

    __slots__ = ("data", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self._node = _Node("leaf") if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        """Whether the tensor has a node. Setting it off drops the node;
        setting it on gives a tensor without one a fresh leaf's."""
        return self._node is not None

    @requires_grad.setter
    def requires_grad(self, flag: bool) -> None:
        if not flag:
            self._node = None
        elif self._node is None:
            self._node = _Node("leaf")

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value) -> None:
        if self._node is not None:
            self._node.grad = value
        elif value is not None:
            raise ValueError("grad: the tensor takes no gradient")

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
        flag = f", grad {self._node.op}" if self._node is not None else ""
        return f"Tensor(shape={self.shape}{flag})"


def constant(data) -> Tensor:
    """A tensor that never receives gradients."""
    return Tensor(data, requires_grad=False)


# A first gradient is kept uncopied: an op's becomes its own (see the module
# docstring), and only leaves keep a `.grad`, so only theirs alias.
def _accumulate(node: _Node, grad: np.ndarray) -> None:
    if node.grad is None:
        node.grad = np.asarray(grad, dtype=np.float64)
    else:
        node.grad = node.grad + grad


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _taped(t: Tensor) -> _Node | None:
    """The node an op records as `t`'s: None when `t` takes no gradient, and
    for every operand under `no_grad`."""
    return t._node if _grad.enabled else None


def _record(data: np.ndarray, op: str, parents: tuple, bwd) -> Tensor:
    """The op's output; it holds a node when any of `parents`, its operands'
    `_taped` nodes, is one. `bwd` may close over arrays, shapes and nodes,
    never an operand: an output that no closure reads is freed with its
    tensor."""
    out = Tensor(data)
    nodes = tuple(p for p in parents if p is not None)
    if nodes:
        out._node = _Node(op, nodes, bwd)
    return out


def backward(root: Tensor) -> None:
    """Populate grads of every requires_grad leaf below a scalar root, consuming its tape.

    Gradients accumulate additively across multiple uses of the same tensor.
    """
    if root.size != 1:
        raise ShapeError(f"backward: root must be scalar, got shape {root.shape}")
    if root._node is None:
        return

    topo: list[_Node] = []
    seen: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root._node, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node.bwd is None and node.op != "leaf":
            raise RuntimeError(f"backward: a {node.op} node's tape was consumed earlier")
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    root._node.grad = np.ones_like(root.data)
    while topo:
        node = topo.pop()
        if node.bwd is not None:
            if node.grad is not None:
                node.bwd(node.grad)
            node.grad, node.bwd, node.parents = None, None, ()


def _require_broadcastable(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


# ---------------------------------------------------------------------------
# Elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b with numpy broadcasting. Its gradient reaches both operands, so
    it hands each a read-only view of it (or a sum over broadcast axes): no
    operand's backward may write into the array the other one receives."""
    _require_broadcastable(a, b, "add")
    out_data = a.data + b.data
    an, bn, a_shape, b_shape = _taped(a), _taped(b), a.shape, b.shape

    def bwd(g):
        g = g.view()
        g.flags.writeable = False
        if an:
            _accumulate(an, _unbroadcast(g, a_shape))
        if bn:
            _accumulate(bn, _unbroadcast(g, b_shape))

    return _record(out_data, "add", (an, bn), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require_broadcastable(a, b, "mul")
    out_data = a.data * b.data
    an, bn, a_shape, b_shape = _taped(a), _taped(b), a.shape, b.shape
    a_data, b_data = a.data if bn else None, b.data if an else None

    def bwd(g):
        if an:
            _accumulate(an, _unbroadcast(g * b_data, a_shape))
        if bn:
            _accumulate(bn, _unbroadcast(g * a_data, b_shape))

    return _record(out_data, "mul", (an, bn), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out_data = a.data * c
    an = _taped(a)

    def bwd(g):
        _accumulate(an, g * c)

    return _record(out_data, "scale", (an,), bwd)


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
    an, bn, a_shape, b_shape = _taped(a), _taped(b), a.shape, b.shape
    a_data, b_data = a.data if bn else None, b.data if an else None

    def bwd(g):
        if an:
            _accumulate(an, _unbroadcast(g @ np.swapaxes(b_data, -1, -2), a_shape))
        if bn:
            _accumulate(bn, _unbroadcast(np.swapaxes(a_data, -1, -2) @ g, b_shape))

    return _record(out_data, "matmul", (an, bn), bwd)


def dense(x: Tensor, *layers: tuple[Tensor, Tensor]) -> Tensor:
    """Dense layers a @ weight + bias per (weight, bias) pair, a relu between
    layers and none after the last: x (B, in), weight (in, out), bias (out,).

    The backward stops below the last operand needing a gradient. Of each
    layer it keeps the input a only when the layer's weight takes a gradient
    (a.T @ g), and its weight only when the gradient goes on below it. Above
    the first layer, that gradient also reads where a > 0 (a is post-relu, so
    exactly where its pre-activation is): from a when it is kept, else from a
    boolean mask. So a frozen stack keeps one mask per relu and no activation.
    """
    width = x.shape[1] if x.ndim == 2 else None
    for w, b in layers:
        width = w.shape[1] if (w.ndim, w.shape[:1], b.shape) == (2, (width,), w.shape[1:]) else None
    if not layers or width is None:
        raise ShapeError(f"dense: expected x (B, in) and chained (weight (in, out), bias (out,)) "
                         f"layers, got {x.shape} and {[(w.shape, b.shape) for w, b in layers]}")
    xn = _taped(x)
    nodes = [(_taped(w), _taped(b)) for w, b in layers]
    taped = xn is not None or any(wn or bn for wn, bn in nodes)
    saved, below, h = [], xn is not None, x.data  # below: an operand under the layer is taped
    for i, ((w, b), (wn, bn)) in enumerate(zip(layers, nodes)):
        if i:
            np.maximum(h, 0.0, out=h)
        if taped:
            saved.append((h if wn else None, w.data if below else None,
                          h > 0.0 if i and below and not wn else None))
        below = below or wn is not None or bn is not None
        h = h @ w.data
        h += b.data

    def bwd(g):
        for i in reversed(range(len(saved))):
            (a, w, mask), (wn, bn) = saved[i], nodes[i]
            if wn:
                _accumulate(wn, a.T @ g)
            if bn:
                _accumulate(bn, g.sum(axis=0))
            if w is None:
                return
            g = g @ w.T
            if i:
                g *= a > 0.0 if mask is None else mask
        _accumulate(xn, g)

    return _record(h, "dense", (xn, *(n for layer in nodes for n in layer)), bwd)


def mixture_latent(z: Tensor, means: Tensor, chol: Tensor, xi: np.ndarray) -> Tensor:
    """Mix per-component draws: out[b,m] = sum_k z[b,m,k] (means[b,k] + chol[b,k] @ xi[b,m,k]).

    z is (B,M,K), means (B,K,D), chol (B,K,D,D) and xi a constant (B,M,K,D)
    array that gets no gradient. With input b's factors side by side as
    S = [L_1 ... L_K], (D, K*D), the forward is z @ means + (z*xi) @ S^T, and
    each gradient is one product per input: means gets z^T g, chol g^T (z*xi)
    and z g.mu_k + (S^T g)_k.xi_k. z*xi, its products and g S are formed for
    blocks of inputs of about _LATENT_BLOCK floats of z*xi, so no (B, M, K*D)
    array is ever held; numpy makes one BLAS call per input either way, so
    the blocks leave every bit as it is. The backward keeps z, the means, xi
    and S, a copy, but not the D x D factors, and forms z*xi again.
    """
    xi = np.asarray(xi, dtype=np.float64)
    B, M, K = z.shape if z.ndim == 3 else (None,) * 3
    D = means.shape[-1]
    if means.shape != (B, K, D) or chol.shape != (B, K, D, D) or xi.shape != (B, M, K, D):
        raise ShapeError(f"mixture_latent: expected z (B,M,K), means (B,K,D), chol (B,K,D,D) "
                         f"and xi (B,M,K,D), got {z.shape}, {means.shape}, {chol.shape} "
                         f"and {xi.shape}")
    z_data, means_data = z.data, means.data
    stacked = chol.data.transpose(0, 2, 1, 3).reshape(B, D, K * D)  # S per input, a copy
    zn, mn, cn = _taped(z), _taped(means), _taped(chol)
    step = max(1, _LATENT_BLOCK // max(1, M * K * D))
    blocks = [slice(lo, lo + step) for lo in range(0, B, step)]

    def weighted(blk):  # z*xi of a block of inputs, as (b, M, K*D)
        w = z_data[blk, ..., None] * xi[blk]
        return w.reshape(*w.shape[:2], K * D)

    out_data = z_data @ means_data
    for blk in blocks:
        out_data[blk] += weighted(blk) @ np.swapaxes(stacked[blk], 1, 2)

    def bwd(g):
        if mn:
            _accumulate(mn, np.swapaxes(z_data, 1, 2) @ g)
        gs = np.empty((B, D, K * D)) if cn else None
        gz = g @ np.swapaxes(means_data, 1, 2) if zn else None
        for blk in blocks:
            if cn:
                np.matmul(np.swapaxes(g[blk], 1, 2), weighted(blk), out=gs[blk])
            if zn:
                gz[blk] += np.einsum("bmke,bmke->bmk",
                                     (g[blk] @ stacked[blk]).reshape(-1, M, K, D), xi[blk])
        if cn:
            _accumulate(cn, gs.reshape(B, D, K, D).transpose(0, 2, 1, 3))
        if zn:
            _accumulate(zn, gz)

    return _record(out_data, "mixture_latent", (zn, mn, cn), bwd)


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
    `tril_scatter` builds from them has a positive diagonal. The backward
    keeps the scaled diagonal entries, not the output.
    """
    rows, cols = _tril_indices(packed, dim, "tril_activate")
    diag = np.flatnonzero(rows == cols)
    c = 1.0 / float(t_sigma)
    out_data = packed.data * c
    scaled_diag = out_data[..., diag]  # a copy, kept for the backward
    out_data[..., diag] = np.logaddexp(0.0, scaled_diag) + floor
    pn = _taped(packed)

    def bwd(g):
        gp = g * c
        gp[..., diag] = (g[..., diag] * _sigmoid(scaled_diag)) * c
        _accumulate(pn, gp)

    return _record(out_data, "tril_activate", (pn,), bwd)


def tril_scatter(packed: Tensor, dim: int) -> Tensor:
    """Row-major lower triangles into D x D blocks: (..., D(D+1)/2) -> (..., D, D).
    The upper triangle is zero and has no parameters; the backward keeps only
    the triangle's indices."""
    rows, cols = _tril_indices(packed, dim, "tril_scatter")
    out_data = np.zeros((*packed.shape[:-1], int(dim), int(dim)))
    out_data[..., rows, cols] = packed.data
    pn = _taped(packed)

    def bwd(g):
        _accumulate(pn, g[..., rows, cols])

    return _record(out_data, "tril_scatter", (pn,), bwd)


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
    ln, shape = _taped(logits), logits.shape

    def bwd(g):
        s = (g / len(rows)) * _sigmoid(gap)
        up, down = (y, arg) if sign == 1 else (arg, y)
        full = np.zeros(shape)
        full[rows, up] += s
        full[rows, down] -= s
        _accumulate(ln, full)

    return _record(out_data, "margin", (ln,), bwd)


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
    ln = _taped(logits)

    def bwd(g):
        full = np.zeros_like(logp)
        full[rows, y] = (g * -1.0) / len(rows)
        _accumulate(ln, _log_softmax_grad(logp, full))

    return _record(out_data, "cross_entropy", (ln,), bwd)


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
    ln = _taped(logits)

    def bwd(g):
        gs = out_data * (g - (g * out_data).sum(axis=-1, keepdims=True)) * c
        _accumulate(ln, _log_softmax_grad(log_pi, gs))

    return _record(out_data, "gumbel_softmax", (ln,), bwd)


def unit_rows(a: Tensor) -> Tensor:
    """Each row of an (N, E) matrix divided by its L2 norm; squared norms
    below NORM_FLOOR are clamped, and each clamped row is counted."""
    if a.ndim != 2:
        raise ShapeError(f"unit_rows: expected an (N, E) matrix, got shape {a.shape}")
    a_data = a.data
    sq = (a_data * a_data).sum(axis=1, keepdims=True)
    _bump("sqrt_clamped", np.count_nonzero(sq < NORM_FLOOR))
    n = np.sqrt(np.maximum(sq, NORM_FLOOR))
    out_data = a_data / n
    an = _taped(a)

    def bwd(g):
        # The arithmetic order of div(a, sqrt(sum(a * a))), so gradients keep its bits.
        gq = (-g * a_data / (n * n)).sum(axis=1, keepdims=True) * 0.5 / n
        _accumulate(an, g / n + gq * a_data + gq * a_data)

    return _record(out_data, "unit_rows", (an,), bwd)


def budget(u: Tensor, gamma: float, base: np.ndarray | None = None) -> Tensor:
    """base + gamma * tanh(u), or gamma * tanh(u) without a base, for a
    constant `base` that broadcasts to u's shape and gets no gradient.

    The forward fills one array in place and keeps neither tanh(u) nor the
    scaled perturbation beside it, and the backward keeps only u: the output,
    often the perturbed inputs, is freed with its tensor. The backward
    recomputes tanh over blocks of u's leading axis of about _BUDGET_BLOCK
    floats and forms (g * gamma) * (1 - t * t) block by block inside the
    incoming gradient g, which is its own when writable (see the module
    docstring), and in a new array only when g is read-only. The arithmetic
    is that of add(base, scale(tanh(u), gamma)), so values and gradients keep
    its bits.
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
    x, shape = u.data, u.shape
    out_data = np.tanh(x, out=np.empty(shape))
    out_data *= gamma
    if base is not None:
        out_data += base
    un = _taped(u)

    def bwd(g):
        rows = shape or (1,)  # a scalar is one row
        step = max(1, _BUDGET_BLOCK // max(1, math.prod(rows[1:])))
        x_rows, g = x.reshape(rows), g.reshape(rows)
        grad = g if g.flags.writeable else np.empty(rows)
        for lo in range(0, rows[0], step):
            blk = slice(lo, lo + step)
            t = np.tanh(x_rows[blk])
            t *= t
            np.subtract(1.0, t, out=t)
            out = grad[blk]
            np.multiply(g[blk], gamma, out=out)
            out *= t
            del t  # before the next block's tanh, so one block is alive at a time
        _accumulate(un, grad.reshape(shape))

    return _record(out_data, "budget", (un,), bwd)


# ---------------------------------------------------------------------------
# Nonlinearities


def relu(a: Tensor) -> Tensor:
    a_data = a.data
    out_data = np.maximum(a_data, 0.0)
    an = _taped(a)

    def bwd(g):
        _accumulate(an, g * (a_data > 0.0))

    return _record(out_data, "relu", (an,), bwd)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)
    an = _taped(a)

    def bwd(g):
        _accumulate(an, g * (1.0 - out_data * out_data))

    return _record(out_data, "tanh", (an,), bwd)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    t = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + t), t / (1.0 + t))


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x), evaluated stably via logaddexp."""
    a_data = a.data
    out_data = np.logaddexp(0.0, a_data)
    an = _taped(a)

    def bwd(g):
        _accumulate(an, g * _sigmoid(a_data))

    return _record(out_data, "softplus", (an,), bwd)


# ---------------------------------------------------------------------------
# Reductions and indexing


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)
    an, shape = _taped(a), a.shape

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(an, np.broadcast_to(g, shape))

    return _record(out_data, "reduce_sum", (an,), bwd)


def take_rows(a: Tensor, index: np.ndarray) -> Tensor:
    """Select whole rows by index (e.g. embedding lookup); duplicates accumulate."""
    idx = np.asarray(index, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"take_rows: index must be 1-D, got shape {idx.shape}")
    out_data = a.data[idx]
    an, shape = _taped(a), a.shape

    def bwd(g):
        full = np.zeros(shape)
        np.add.at(full, idx, g)
        _accumulate(an, full)

    return _record(out_data, "take_rows", (an,), bwd)


# ---------------------------------------------------------------------------
# Shape manipulation


def reshape(a: Tensor, shape: tuple) -> Tensor:
    out_data = a.data.reshape(shape)
    an, a_shape = _taped(a), a.shape

    def bwd(g):
        _accumulate(an, g.reshape(a_shape))

    return _record(out_data, "reshape", (an,), bwd)


def broadcast_to(a: Tensor, shape: tuple) -> Tensor:
    """numpy's read-only broadcast view of `a`: no copy per row."""
    try:
        out_data = np.broadcast_to(a.data, shape)
    except ValueError:
        raise ShapeError(f"broadcast_to: cannot broadcast {a.shape} to {shape}") from None
    an, a_shape = _taped(a), a.shape

    def bwd(g):
        _accumulate(an, _unbroadcast(g, a_shape))

    return _record(out_data, "broadcast_to", (an,), bwd)
