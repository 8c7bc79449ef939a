"""Engine tests: forward examples, finite-difference gradient oracle, Adam."""

import inspect
import itertools
import re
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nppr import tensor as T
from nppr.models import CHOL_DIAG_FLOOR
from nppr.optim import Adam
from nppr.tensor import ShapeError, Tensor, numeric_counters, reset_numeric_counters

FD_H = 1e-5


def fd_grad(func, leaves, h=FD_H):
    """Central-difference gradient of a scalar-valued func of numpy leaves.

    Independent of the engine: evaluates func on perturbed copies only.
    """
    grads = []
    for k, leaf in enumerate(leaves):
        g = np.zeros_like(leaf)
        flat = leaf.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = func([l.copy() for l in leaves])
            flat[i] = orig - h
            down = func([l.copy() for l in leaves])
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def check_grads(build, leaves, tol=1e-5):
    """Compare engine backward against the finite-difference oracle.

    `build` maps a list of Tensors to a scalar Tensor; `leaves` are numpy
    arrays. Relative error uses |a - fd| <= tol * (1 + |fd|).
    """
    tensors = [Tensor(leaf.copy(), requires_grad=True) for leaf in leaves]
    out = build(tensors)
    out.backward()
    numeric = fd_grad(lambda arrs: build([Tensor(a) for a in arrs]).item(), [l.copy() for l in leaves])
    for t, fd in zip(tensors, numeric):
        assert t.grad is not None
        err = np.abs(t.grad - fd)
        assert np.all(err <= tol * (1.0 + np.abs(fd))), f"max err {err.max()} vs fd {fd}"


def unpack(packed, D):
    """Row-major lower triangles, (..., D(D+1)/2), as D x D blocks whose upper
    triangle is zero."""
    full = np.zeros((*np.shape(packed)[:-1], D, D))
    full[(..., *np.tril_indices(D))] = packed
    return full


class TestForwardExamples:
    def test_softplus_zero(self):
        assert T.softplus(Tensor(0.0)).item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_tanh_zero(self):
        assert T.tanh(Tensor(0.0)).item() == 0.0

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        out = T.matmul(Tensor(np.eye(3)), Tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_forward_bit_stable(self):
        x = np.linspace(-2, 2, 7)
        a = T.gumbel_softmax(Tensor(x), np.zeros(7), 1.0).data
        b = T.gumbel_softmax(Tensor(x), np.zeros(7), 1.0).data
        np.testing.assert_array_equal(a, b)

    def test_shape_mismatch_names_op(self):
        with pytest.raises(ShapeError, match="matmul"):
            T.matmul(Tensor(np.ones((2, 3)), requires_grad=True), Tensor(np.ones((4, 5))))
        with pytest.raises(ShapeError, match="add"):
            T.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4,))))

    @pytest.mark.parametrize("x_shape, layer_shapes", [
        ((2, 3), [((5, 4), (4,))]),                    # x does not fit the weight
        ((2, 3), [((3, 4), (5,))]),                    # the bias does not fit the weight
        ((2, 3), [((3, 4), (1, 4))]),                  # a 2-D bias
        ((3,), [((3, 4), (4,))]),                      # a 1-D input
        ((2, 3), [((3, 4), (4,)), ((5, 2), (2,))]),    # the layers do not chain
        ((2, 3), []),                                  # no layer
    ])
    def test_dense_shape_guard(self, x_shape, layer_shapes):
        layers = [(Tensor(np.ones(w)), Tensor(np.zeros(b))) for w, b in layer_shapes]
        with pytest.raises(ShapeError, match="dense"):
            T.dense(Tensor(np.ones(x_shape)), *layers)


class TestBackwardBasics:
    def test_softplus_grad_at_zero(self):
        x = Tensor(0.0, requires_grad=True)
        T.softplus(x).backward()
        assert x.grad == pytest.approx(0.5, abs=1e-12)

    def test_tanh_grad_at_zero(self):
        x = Tensor(0.0, requires_grad=True)
        T.tanh(x).backward()
        assert x.grad == pytest.approx(1.0, abs=1e-12)

    def test_non_scalar_root_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            T.relu(x).backward()

    def test_accumulation_linearity(self):
        x = Tensor(np.array([1.5, -0.5]), requires_grad=True)
        out = T.reduce_sum(T.add(T.scale(x, 2.0), T.scale(x, 3.0)))
        out.backward()
        np.testing.assert_allclose(x.grad, np.full(2, 5.0))

    def test_detached_leaf_untouched(self):
        x = Tensor(np.ones(3), requires_grad=True)
        c = Tensor(np.ones(3), requires_grad=False)
        T.reduce_sum(T.mul(x, c)).backward()
        assert x.grad is not None
        assert c.grad is None

    def test_grad_through_reused_subgraph(self):
        x = Tensor(np.array([0.3, 0.7]), requires_grad=True)
        y = T.mul(x, x)  # x used twice inside one op
        T.reduce_sum(y).backward()
        np.testing.assert_allclose(x.grad, 2.0 * x.data)


def _rng(seed):
    return np.random.default_rng(seed)


def _mixture_latent_case(r):
    xi = r.normal(size=(2, 3, 2, 3))  # (B, M, K, D) constant noise, closed over
    return (lambda ts: T.reduce_sum(T.mul(T.mixture_latent(ts[0], ts[1], ts[2], xi), ts[3])),
            [r.uniform(0, 1, (2, 3, 2)), r.uniform(-1, 1, (2, 2, 3)),
             r.uniform(-1, 1, (2, 2, 6)), r.uniform(-2, 2, (2, 3, 3))])


def _tril_factor_case(r):
    """The head's activation of packed factors, applied by the mixture."""
    z, means = r.dirichlet(np.ones(2), size=(2, 3)), r.uniform(-1, 1, (2, 2, 3))
    xi = r.normal(size=(2, 3, 2, 3))  # constants, closed over
    return (lambda ts: T.reduce_sum(T.mul(T.mixture_latent(
        T.constant(z), T.constant(means), T.tril_activate(ts[0], 3, 0.7, 1e-6), xi), ts[1])),
        [r.uniform(-2, 2, (2, 2, 6)), r.uniform(-2, 2, (2, 3, 3))])


def _margin_case(sign):
    """Logits whose entries differ by >= 0.2 within a row, so that no step of
    the finite differences changes a row's runner-up."""
    def case(r):
        logits = r.permuted(np.cumsum(r.uniform(0.2, 1.0, (4, 5)), axis=1) - 2.5, axis=1)
        y = r.integers(0, 5, 4)
        return (lambda ts: T.margin(ts[0], y, 0.5, sign)), [logits]
    return case


def _dense_case(widths):
    """Layers of the given widths, with a constant probe on the output."""
    def case(r):
        probe = r.uniform(-2, 2, (3, widths[-1]))  # constant, closed over
        leaves = [r.uniform(-2, 2, (3, widths[0]))]
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            leaves += [r.uniform(-1, 1, (fan_in, fan_out)), r.uniform(-1, 1, fan_out)]
        return (lambda ts: T.reduce_sum(T.mul(T.dense(ts[0], *zip(ts[1::2], ts[2::2])),
                                              T.constant(probe))), leaves)
    return case


def _gumbel_softmax_case(logits_shape):
    """Logits of `logits_shape` under (2, 3, 4) noise: one row per noise row,
    or one per input that its draws share."""
    def case(r):
        noise = r.gumbel(size=(2, 3, 4))  # constant, closed over
        return (lambda ts: T.reduce_sum(T.mul(T.gumbel_softmax(ts[0], noise, 0.6), ts[1])),
                [r.uniform(-2, 2, logits_shape), r.uniform(-2, 2, (2, 3, 4))])
    return case


def _budget_base_case(r):
    base = r.uniform(-1, 1, (2, 1, 4))  # constant, closed over
    return (lambda ts: T.reduce_sum(T.mul(T.budget(ts[0], 0.4, base), ts[1])),
            [r.uniform(-2, 2, (2, 3, 4)), r.uniform(-2, 2, (2, 3, 4))])


# Per-op finite-difference checks; inputs are kept away from kinks/ties.
PER_OP_CASES = {
    "add": lambda r: (lambda ts: T.reduce_sum(T.add(ts[0], ts[1])),
                      [r.uniform(-2, 2, (3, 4)), r.uniform(-2, 2, (3, 4))]),
    "add_broadcast": lambda r: (lambda ts: T.reduce_sum(T.add(ts[0], ts[1])),
                                [r.uniform(-2, 2, (3, 4)), r.uniform(-2, 2, (4,))]),
    "mul": lambda r: (lambda ts: T.reduce_sum(T.mul(ts[0], ts[1])),
                      [r.uniform(-2, 2, (3, 4)), r.uniform(-2, 2, (3, 1))]),
    "scale": lambda r: (lambda ts: T.reduce_sum(T.scale(ts[0], -1.7)),
                        [r.uniform(-2, 2, (4,))]),
    "matmul": lambda r: (lambda ts: T.reduce_sum(T.matmul(ts[0], ts[1])),
                         [r.uniform(-2, 2, (3, 4)), r.uniform(-2, 2, (4, 2))]),
    "matmul_batched": lambda r: (lambda ts: T.reduce_sum(T.matmul(ts[0], ts[1])),
                                 [r.uniform(-2, 2, (2, 3, 4)), r.uniform(-2, 2, (4, 2))]),
    "matmul_bcast_batch": lambda r: (lambda ts: T.reduce_sum(T.matmul(ts[0], ts[1])),
                                     [r.uniform(-1, 1, (2, 1, 3, 4)),
                                      r.uniform(-1, 1, (5, 4, 2))]),
    "mixture_latent": _mixture_latent_case,
    "tril_factor": _tril_factor_case,
    "budget": lambda r: (lambda ts: T.reduce_sum(T.mul(T.budget(ts[0], 0.4), ts[1])),
                         [r.uniform(-2, 2, (3, 4)), r.uniform(-2, 2, (3, 4))]),
    "budget_base": _budget_base_case,
    "dense": lambda r: (lambda ts: T.reduce_sum(T.dense(ts[0], (ts[1], ts[2]))),
                        [r.uniform(-2, 2, (3, 4)), r.uniform(-2, 2, (4, 2)),
                         r.uniform(-2, 2, (2,))]),
    "dense_2": _dense_case((4, 5, 2)),
    "dense_3": _dense_case((4, 5, 3, 2)),
    "relu": lambda r: (lambda ts: T.reduce_sum(T.relu(ts[0])),
                       [np.where(np.abs(v := r.uniform(-2, 2, (3, 4))) < 0.1, 0.5, v)]),
    "tanh": lambda r: (lambda ts: T.reduce_sum(T.tanh(ts[0])), [r.uniform(-2, 2, (6,))]),
    "cross_entropy": lambda r: (lambda ts: T.cross_entropy(ts[0], np.array([0, 3, 1])),
                                [r.uniform(-2, 2, (3, 4))]),
    "gumbel_softmax": _gumbel_softmax_case((2, 3, 4)),
    "gumbel_softmax_shared": _gumbel_softmax_case((2, 1, 4)),
    "margin": _margin_case(1),
    "margin_cw": _margin_case(-1),
    "unit_rows": lambda r: (lambda ts: T.reduce_sum(T.mul(T.unit_rows(ts[0]), ts[1])),
                            [r.uniform(-2, 2, (3, 4)), r.uniform(-2, 2, (3, 4))]),
    "softplus": lambda r: (lambda ts: T.reduce_sum(T.softplus(ts[0])),
                           [r.uniform(-2, 2, (2, 3))]),
    "reduce_sum_axis": lambda r: (lambda ts: T.reduce_sum(T.reduce_sum(ts[0], axis=1)),
                                  [r.uniform(-2, 2, (3, 4))]),
    "reduce_sum_keep": lambda r: (lambda ts: T.reduce_sum(T.mul(T.reduce_sum(ts[0], axis=0,
                                                                          keepdims=True), ts[1])),
                                  [r.uniform(-2, 2, (3, 4)), r.uniform(-2, 2, (1, 4))]),
    "take_rows": lambda r: (lambda ts: T.reduce_sum(T.take_rows(ts[0], np.array([0, 2, 2, 1]))),
                            [r.uniform(-2, 2, (3, 4))]),
    "reshape": lambda r: (lambda ts: T.reduce_sum(T.mul(T.reshape(ts[0], (2, 6)), ts[1])),
                          [r.uniform(-2, 2, (3, 4)), r.uniform(-2, 2, (2, 6))]),
    "broadcast_to": lambda r: (lambda ts: T.reduce_sum(T.mul(T.broadcast_to(ts[0], (4, 3)), ts[1])),
                               [r.uniform(-2, 2, (1, 3)), r.uniform(-2, 2, (4, 3))]),
}


@pytest.mark.parametrize("name", sorted(PER_OP_CASES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_per_op_finite_difference(name, seed):
    build, leaves = PER_OP_CASES[name](_rng(seed * 101 + 7))
    check_grads(build, leaves, tol=1e-5)


# Multi-operand ops whose backward guards each operand by requires_grad.
GUARDED_CASES = ["add", "add_broadcast", "mul", "matmul", "matmul_batched",
                 "matmul_bcast_batch", "dense"]


def _proper_subsets(n):
    return [s for r in range(1, n) for s in itertools.combinations(range(n), r)]


# Stacked layers are frozen as the package uses them: every weight and bias,
# with an input gradient (generator training and the attacks), or the input
# alone, with trainable weights (the classifier fit). In the last case only
# the first bias trains, so the gradient must still pass the frozen layer above it.
FROZEN_SUBSETS = [(name, frozen) for name in GUARDED_CASES
                  for frozen in _proper_subsets(3 if name == "dense" else 2)] + [
    (f"dense_{n}", frozen) for n in (2, 3) for frozen in (tuple(range(1, 2 * n + 1)), (0,))] + [
    ("dense_2", (0, 1, 3, 4))]


@pytest.mark.parametrize("name, frozen", FROZEN_SUBSETS,
                         ids=[f"{n}-frozen{''.join(map(str, f))}" for n, f in FROZEN_SUBSETS])
def test_frozen_operands_leave_other_grads_unchanged(name, frozen):
    build, leaves = PER_OP_CASES[name](_rng(11))

    def grads(frozen):
        ts = [Tensor(leaf, requires_grad=i not in frozen) for i, leaf in enumerate(leaves)]
        build(ts).backward()
        return [t.grad for t in ts]

    full = grads(())
    for i, g in enumerate(grads(frozen)):
        if i in frozen:
            assert g is None
        else:
            np.testing.assert_array_equal(g, full[i])


def _log_matmuls(t: Tensor) -> list:
    """Swap t.data for a view that logs every matmul reading it; return the log."""
    calls = []

    class Logged(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                calls.append(method)
            inputs = tuple(x.view(np.ndarray) if isinstance(x, Logged) else x for x in inputs)
            return getattr(ufunc, method)(*inputs, **kwargs)

    t.data = t.data.view(Logged)
    return calls


@pytest.mark.parametrize("op", ["dense", "matmul"])
@pytest.mark.parametrize("frozen", [0, 1])
def test_frozen_operand_product_is_skipped(op, frozen):
    # The frozen operand's gradient is the only backward product that reads
    # the other operand's data, so that data must see no matmul in backward.
    r = _rng(5)
    ts = [Tensor(r.normal(size=shape), requires_grad=i != frozen)
          for i, shape in enumerate([(5, 4), (4, 3), (3,)])]
    calls = _log_matmuls(ts[1 - frozen])
    out = T.dense(ts[0], (ts[1], ts[2])) if op == "dense" else T.matmul(ts[0], ts[1])
    root = T.reduce_sum(out)
    assert calls == ["__call__"]  # the forward product
    calls.clear()
    root.backward()
    assert calls == []
    assert ts[frozen].grad is None and ts[1 - frozen].grad is not None


@pytest.mark.parametrize("layers", [2, 3])
@pytest.mark.parametrize("constant_input", [True, False], ids=["constant_input", "frozen_layers"])
def test_stacked_dense_skips_unread_products(layers, constant_input):
    # A constant input needs no gradient, so the first weight sees no backward
    # product; frozen layers need none, so neither does the input.
    build, leaves = PER_OP_CASES[f"dense_{layers}"](_rng(5))
    ts = [Tensor(leaf, requires_grad=(i > 0) == constant_input) for i, leaf in enumerate(leaves)]
    calls = _log_matmuls(ts[1] if constant_input else ts[0])
    root = build(ts)
    assert calls == ["__call__"]  # the forward product
    calls.clear()
    root.backward()
    assert calls == []
    assert all((t.grad is None) == (not t.requires_grad) for t in ts)


class TestDense:
    @staticmethod
    def _chain(x, layers, probe):
        """The affine + relu chain, op by op in numpy, and its gradients for
        the output weighted by `probe`."""
        inputs, pres, h = [], [], x
        for i, (w, b) in enumerate(layers):
            if i:
                pres.append(h)
                h = np.maximum(h, 0.0)
            inputs.append(h)
            h = h @ w + b
        grads, g = [], probe
        for i in reversed(range(len(layers))):
            w, _ = layers[i]
            grads = [inputs[i].T @ g, g.sum(axis=0)] + grads
            g = g @ w.T
            if i:
                g = g * (pres[i - 1] > 0.0)
        return h, [g] + grads

    @pytest.mark.parametrize("widths", [(5, 3), (5, 6, 3), (5, 6, 4, 3)])
    def test_matches_affine_relu_chain_bit_for_bit(self, widths):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(40, widths[0]))
        layers = [(rng.normal(size=(m, n)), rng.normal(size=n))
                  for m, n in zip(widths[:-1], widths[1:])]
        probe = rng.normal(size=(40, widths[-1]))
        leaves = [Tensor(a.copy(), requires_grad=True)
                  for a in (x, *(a for layer in layers for a in layer))]
        out = T.dense(leaves[0], *zip(leaves[1::2], leaves[2::2]))
        T.reduce_sum(T.mul(out, T.constant(probe))).backward()
        want, grads = self._chain(x, layers, probe)
        np.testing.assert_array_equal(out.data, want)
        for leaf, grad in zip(leaves, grads):
            np.testing.assert_array_equal(leaf.grad, grad)


def test_shared_first_gradient_stays_its_own():
    # add hands a, b and e views of one array; the later second use of a must
    # make a new array for a.grad instead of writing into the shared one.
    a = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    b = Tensor(np.array([0.3, 0.4, -1.0]), requires_grad=True)
    e = Tensor(np.array([0.9, -0.1, 2.0]), requires_grad=True)
    c, d = np.array([2.0, 3.0, 5.0]), np.array([-1.0, 7.0, 0.25])
    y = T.add(T.add(a, b), e)
    T.reduce_sum(T.add(T.mul(y, Tensor(d)), T.mul(a, Tensor(c)))).backward()
    assert np.shares_memory(b.grad, e.grad)
    np.testing.assert_array_equal(b.grad, d)
    np.testing.assert_array_equal(e.grad, d)
    np.testing.assert_array_equal(a.grad, d + c)


def _topo(root):
    """The engine's walk: every node reachable from root's, parents first."""
    topo, seen, stack = [], set(), [(root._node, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return topo


def _keeping_backward(root):
    """The reference backward: the engine's walk and order, with every node
    keeping its gradient, closure and parents."""
    topo = _topo(root)
    root._node.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node.bwd is not None and node.grad is not None:
            node.bwd(node.grad)
    return topo


def _closure_values(fn):
    """Every value `fn`'s closure holds, also through nested closures, lists
    and tuples."""
    out, todo = [], [c.cell_contents for c in fn.__closure__ or ()]
    while todo:
        v = todo.pop()
        out.append(v)
        if isinstance(v, (list, tuple)):
            todo.extend(v)
        elif inspect.isfunction(v):
            todo.extend(c.cell_contents for c in v.__closure__ or ())
    return out


class TestTapeConsumption:
    @staticmethod
    def _check(build, leaves):
        kept = [Tensor(leaf.copy(), requires_grad=True) for leaf in leaves]
        nodes = _keeping_backward(build(kept))
        assert all(n.grad is not None for n in nodes)
        ts = [Tensor(leaf.copy(), requires_grad=True) for leaf in leaves]
        root = build(ts)
        ops = [n for n in _topo(root) if n.op != "leaf"]
        assert ops and all(n.bwd is not None for n in ops)
        assert not any(isinstance(v, Tensor) for n in ops for v in _closure_values(n.bwd))
        root.backward()
        for n in ops:
            assert n.grad is None and n.bwd is None and n.parents == (), n.op
        for t, want in zip(ts, kept):
            np.testing.assert_array_equal(t.grad, want.grad)

    @pytest.mark.parametrize("name", sorted(PER_OP_CASES))
    def test_per_op_tape_is_consumed_and_leaf_grads_keep_their_bits(self, name):
        self._check(*PER_OP_CASES[name](_rng(3)))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_graph_tape_is_consumed_and_leaf_grads_keep_their_bits(self, seed):
        self._check(*_random_graph(np.random.default_rng(1000 + seed)))

    def test_second_backward_from_a_consumed_root_raises(self):
        x = Tensor(np.array([0.5, -1.0]), requires_grad=True)
        root = T.reduce_sum(T.tanh(x))
        root.backward()
        with pytest.raises(RuntimeError, match="reduce_sum node's tape was consumed"):
            root.backward()

    def test_backward_through_a_consumed_node_raises(self):
        x = Tensor(np.array([0.5, -1.0]), requires_grad=True)
        h = T.tanh(x)
        T.reduce_sum(h).backward()
        with pytest.raises(RuntimeError, match="tanh node's tape was consumed"):
            T.reduce_sum(T.scale(h, 2.0)).backward()

    def test_leaves_are_not_tapes(self):
        x = Tensor(np.array(1.5), requires_grad=True)
        for _ in range(2):
            x.backward()
            assert x.grad == 1.0


class TestUnsavedOutputsAreFreed:
    """An op's output that no backward reads goes with its tensor; its node
    stays on the tape, and the leaves' gradients keep their bits."""

    @staticmethod
    def _check(build, leaves):
        # build(leaves) -> (the output under test, the root of a tape through it)
        kept = [Tensor(a.copy(), requires_grad=True) for a in leaves]
        out_kept, root = build(kept)
        root.backward()
        ts = [Tensor(a.copy(), requires_grad=True) for a in leaves]
        out, root = build(ts)
        node, refs = out._node, (weakref.ref(out), weakref.ref(out.data))
        del out
        assert all(ref() is None for ref in refs)
        assert node.bwd is not None and any(n is node for n in _topo(root))
        root.backward()
        for t, want in zip(ts, kept):
            np.testing.assert_array_equal(t.grad, want.grad)

    def test_budget_output_feeding_a_frozen_dense(self):
        rng = np.random.default_rng(51)
        base = rng.uniform(-1, 1, (6, 8))
        layers = [(T.constant(rng.normal(size=(8, 5))), T.constant(rng.normal(size=5))),
                  (T.constant(rng.normal(size=(5, 3))), T.constant(rng.normal(size=3)))]
        probe = T.constant(rng.normal(size=(6, 3)))

        def build(ts):
            out = T.budget(ts[0], 0.5, base)
            return out, T.reduce_sum(T.mul(T.dense(out, *layers), probe))

        self._check(build, [rng.normal(size=(6, 8))])

    @staticmethod
    def _mixture_leaves(rng, B, M, K, D):
        return [rng.dirichlet(np.ones(K), size=(B, M)), rng.normal(size=(B, K, D)),
                rng.normal(size=(B, K, D * (D + 1) // 2))]

    def test_tril_activate_output_feeding_mixture_latent(self):
        # The activated packed factors go once the mixture has scattered them.
        rng = np.random.default_rng(52)
        B, M, K, D = 4, 5, 2, 3
        xi = rng.standard_normal((B, M, K, D))
        probe = T.constant(rng.normal(size=(B, M, D)))

        def build(ts):
            out = T.tril_activate(ts[2], D, 0.7, CHOL_DIAG_FLOOR)
            return out, T.reduce_sum(T.mul(T.mixture_latent(ts[0], ts[1], out, xi), probe))

        self._check(build, self._mixture_leaves(rng, B, M, K, D))

    def test_mixture_latent_output_feeding_a_product(self):
        rng = np.random.default_rng(53)
        B, M, K, D = 3, 5, 2, 3
        xi = rng.standard_normal((B, M, K, D))
        probe = T.constant(rng.normal(size=(B, M, D)))

        def build(ts):
            out = T.mixture_latent(*ts, xi)
            return out, T.reduce_sum(T.mul(out, probe))

        self._check(build, self._mixture_leaves(rng, B, M, K, D))

    @pytest.mark.parametrize("widths", [(5, 3), (5, 6, 3), (5, 6, 4, 3)])
    def test_frozen_dense_keeps_only_relu_masks(self, widths):
        # Frozen layers, as the classifier's under generator training: the
        # backward needs no activation, only where each relu let a row pass.
        rng = np.random.default_rng(54)
        x = rng.normal(size=(40, widths[0]))
        layers = [(rng.normal(size=(m, n)), rng.normal(size=n))
                  for m, n in zip(widths[:-1], widths[1:])]
        probe = rng.normal(size=(40, widths[-1]))
        leaf = Tensor(x.copy(), requires_grad=True)
        out = T.dense(leaf, *[(T.constant(w), T.constant(b)) for w, b in layers])
        held = [v for v in _closure_values(out._node.bwd) if isinstance(v, np.ndarray)]
        masks = [a for a in held if a.dtype == bool]
        assert sorted(m.shape for m in masks) == sorted((40, n) for n in widths[1:-1])
        assert all(any(a is w for w, _ in layers) for a in held if a.dtype != bool)
        T.reduce_sum(T.mul(out, T.constant(probe))).backward()
        want, grads = TestDense._chain(x, layers, probe)
        np.testing.assert_array_equal(out.data, want)
        np.testing.assert_array_equal(leaf.grad, grads[0])


class TestNoGrad:
    @staticmethod
    def _leaves():
        rng = np.random.default_rng(31)
        return (Tensor(rng.normal(size=(5, 3)), requires_grad=True),
                Tensor(rng.normal(size=(3, 4)), requires_grad=True),
                Tensor(rng.normal(size=4), requires_grad=True))

    @staticmethod
    def _forward(x, w, b):
        h = T.dense(x, (w, b))
        return [h, T.tanh(h), T.mul(h, h), T.matmul(x, w),
                T.dense(x, (w, b), (T.constant(np.eye(4)), b)), T.reduce_sum(T.relu(h))]

    def test_ops_record_no_tape(self):
        x, w, b = self._leaves()
        taped = self._forward(x, w, b)
        with T.no_grad():
            free = self._forward(x, w, b)
        for out, ref in zip(free, taped):
            assert not out.requires_grad
            assert out._node is None
            np.testing.assert_array_equal(out.data, ref.data)
        free[-1].backward()
        assert x.grad is None and w.grad is None and b.grad is None

    def test_flag_restored_after_exception(self):
        x, w, b = self._leaves()
        with pytest.raises(RuntimeError, match="inside"):
            with T.no_grad():
                raise RuntimeError("inside")
        assert T.dense(x, (w, b)).requires_grad

    def test_flag_restored_after_nesting(self):
        x, w, b = self._leaves()
        with T.no_grad():
            with T.no_grad():
                assert not T.dense(x, (w, b)).requires_grad
            assert not T.dense(x, (w, b)).requires_grad
        out = T.reduce_sum(T.dense(x, (w, b)))
        assert out.requires_grad
        out.backward()
        assert x.grad is not None and w.grad is not None and b.grad is not None

    def test_flag_is_per_thread(self):
        # Another thread sits inside `no_grad` while this one records a node;
        # a thread started under this one's `no_grad` records one too.
        x, w, b = self._leaves()
        inside, release = threading.Event(), threading.Event()
        seen = []

        def hold():
            with T.no_grad():
                inside.set()
                release.wait(10)
                seen.append(T.dense(x, (w, b)).requires_grad)

        other = threading.Thread(target=hold)
        other.start()
        try:
            assert inside.wait(10)
            out = T.dense(x, (w, b))
            assert out.requires_grad and out._node.parents
        finally:
            release.set()
            other.join(10)
        assert not other.is_alive() and seen == [False]
        with T.no_grad():
            fresh = threading.Thread(target=lambda: seen.append(T.dense(x, (w, b)).requires_grad))
            fresh.start()
            fresh.join(10)
        assert not fresh.is_alive() and seen == [False, True]


class TestMixtureLatent:
    @pytest.mark.parametrize("shared", [False, True], ids=["per_row", "broadcast"])
    def test_matches_einsum_reference(self, shared):
        # `shared` broadcasts one (1,K,D(D+1)/2) set of packed factors, as the
        # label head does.
        rng = np.random.default_rng(5)
        B, M, K, D = 4, 6, 3, 5
        z = rng.dirichlet(np.ones(K), size=(B, M))
        means = rng.normal(size=(B, K, D))
        raw = rng.normal(size=(1 if shared else B, K, D * (D + 1) // 2))
        xi = rng.standard_normal((B, M, K, D))
        probe = rng.normal(size=(B, M, D))
        leaves = [Tensor(a.copy(), requires_grad=True) for a in (z, means, raw)]
        packed = T.broadcast_to(leaves[2], (B, *raw.shape[1:])) if shared else leaves[2]
        out = T.mixture_latent(leaves[0], leaves[1], packed, xi)
        T.reduce_sum(T.mul(out, T.constant(probe))).backward()

        full = np.broadcast_to(unpack(raw, D), (B, K, D, D))
        lx = np.einsum("bkde,bmke->bmkd", full, xi)
        ref = np.einsum("bmk,bmkd->bmd", z, means[:, None] + lx)
        grad_z = np.einsum("bmd,bmkd->bmk", probe, means[:, None] + lx)
        grad_means = np.einsum("bmk,bmd->bkd", z, probe)
        grad_packed = np.einsum("bmd,bmk,bmke->bkde", probe, z, xi)[(..., *np.tril_indices(D))]
        if shared:
            grad_packed = grad_packed.sum(axis=0, keepdims=True)
        for got, want in ((out.data, ref), (leaves[0].grad, grad_z),
                          (leaves[1].grad, grad_means), (leaves[2].grad, grad_packed)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_one_hot_weights_pick_one_component(self):
        rng = np.random.default_rng(6)
        B, M, K, D = 3, 8, 4, 3
        pick = rng.integers(0, K, size=(B, M))
        z = np.eye(K)[pick]
        means = rng.normal(size=(B, K, D))
        packed = rng.normal(size=(B, K, D * (D + 1) // 2))
        chol = unpack(packed, D)
        xi = rng.standard_normal((B, M, K, D))
        out = T.mixture_latent(Tensor(z), Tensor(means), Tensor(packed), xi).data
        # The other components enter as exact zeros; only the order in which
        # the D terms of L_z xi_z are summed may differ from a matrix-vector product.
        for b, m in np.ndindex(B, M):
            k = pick[b, m]
            np.testing.assert_allclose(out[b, m], means[b, k] + chol[b, k] @ xi[b, m, k],
                                       rtol=0, atol=1e-14)

    @staticmethod
    def _unblocked(z, means, packed, xi, g):
        """The op's products over every input at once: the output and the
        gradients of z, the means and the packed factors for the gradient g
        reaching it."""
        B, M, K = z.shape
        D = means.shape[-1]
        stacked = unpack(packed, D).transpose(0, 2, 1, 3).reshape(B, D, K * D)
        weighted = (z[..., None] * xi).reshape(B, M, K * D)
        out = z @ means
        out += weighted @ np.swapaxes(stacked, 1, 2)
        grad_z = g @ np.swapaxes(means, 1, 2)
        grad_z += np.einsum("bmke,bmke->bmk", (g @ stacked).reshape(B, M, K, D), xi)
        grad_chol = (np.swapaxes(g, 1, 2) @ weighted).reshape(B, D, K, D).transpose(0, 2, 1, 3)
        return out, grad_z, np.swapaxes(z, 1, 2) @ g, grad_chol[(..., *np.tril_indices(D))]

    @pytest.mark.parametrize("extra", [None, -1, 0, 1])
    def test_inputs_around_a_block_match_the_unblocked_products(self, extra):
        # 1 input, and a block of inputs less one, exactly and plus one.
        M, K, D = 16, 4, 8
        block = T._LATENT_BLOCK // (M * K * D)
        B = 1 if extra is None else block + extra
        rng = np.random.default_rng(40 + B)
        arrays = (rng.dirichlet(np.ones(K), size=(B, M)), rng.normal(size=(B, K, D)),
                  rng.normal(size=(B, K, D * (D + 1) // 2)))
        xi, probe = rng.standard_normal((B, M, K, D)), rng.normal(size=(B, M, D))
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = T.mixture_latent(*leaves, xi)
        T.reduce_sum(T.mul(out, T.constant(probe))).backward()
        want = self._unblocked(*arrays, xi, probe)
        for got, ref in zip((out.data, *(leaf.grad for leaf in leaves)), want):
            np.testing.assert_array_equal(got, ref)

    def test_forward_and_backward_hold_one_block(self):
        # z*xi for every input is 4 MiB here and a block of it 1 MiB: neither
        # pass holds an array of the former's size, also not on top of its
        # 0.5 MiB output, the 1 MiB factors scattered from their packed
        # triangles and the 0.5 MiB gradient gathered back to them.
        B, M, K, D = 64, 64, 8, 16
        rng = np.random.default_rng(41)
        leaves = [Tensor(a, requires_grad=True)
                  for a in (rng.dirichlet(np.ones(K), size=(B, M)), rng.normal(size=(B, K, D)),
                            rng.normal(size=(B, K, D * (D + 1) // 2)))]
        xi, probe = rng.standard_normal((B, M, K, D)), T.constant(rng.normal(size=(B, M, D)))
        full = B * M * K * D * 8
        assert full >= 4 * T._LATENT_BLOCK * 8
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = T.mixture_latent(*leaves, xi)
            forward = tracemalloc.get_traced_memory()[1] - start
            root = T.reduce_sum(T.mul(out, probe))
            del out
            taped = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            root.backward()
            backward = tracemalloc.get_traced_memory()[1] - taped
        finally:
            tracemalloc.stop()
        assert forward < full
        assert backward < full

    @pytest.mark.parametrize("xi_shape", [(2, 5, 3, 2), (2, 5, 4, 4), (2, 4, 3, 4)])
    def test_shape_guard(self, xi_shape):
        z = Tensor(np.zeros((2, 5, 3)), requires_grad=True)
        means = Tensor(np.zeros((2, 3, 4)))
        packed = Tensor(np.zeros((2, 3, 10)), requires_grad=True)
        with pytest.raises(ShapeError, match="mixture_latent"):
            T.mixture_latent(z, means, packed, np.zeros(xi_shape))

    @pytest.mark.parametrize("packed_shape", [(2, 3, 9), (2, 3, 4, 4)])
    def test_packed_shape_guard(self, packed_shape):
        z = Tensor(np.zeros((2, 5, 3)), requires_grad=True)
        means = Tensor(np.zeros((2, 3, 4)))
        with pytest.raises(ShapeError, match="mixture_latent"):
            T.mixture_latent(z, means, Tensor(np.zeros(packed_shape)), np.zeros((2, 5, 3, 4)))


class TestTrilFactor:
    @staticmethod
    def _mask_chain(packed, D, t_sigma):
        """Scatter into full D x D blocks, then the scale/mask/softplus chain."""
        rows, cols = np.tril_indices(D)
        select = np.zeros((rows.size, D * D))
        select[np.arange(rows.size), rows * D + cols] = 1.0
        raw = T.reshape(T.matmul(packed, T.constant(select)), (*packed.shape[:-1], D, D))
        eye = T.constant(np.eye(D))
        strict_lower = T.constant(np.tril(np.ones((D, D)), k=-1))
        scaled = T.scale(raw, 1.0 / t_sigma)
        off = T.mul(scaled, strict_lower)
        diag_vals = T.reduce_sum(T.mul(scaled, eye), axis=-1)
        floored = T.add(T.softplus(diag_vals), T.constant(CHOL_DIAG_FLOOR))
        diag = T.mul(T.reshape(floored, (*floored.shape, 1)), eye)
        return T.add(off, diag)

    @pytest.mark.parametrize("t_sigma", [1.0, 0.37])
    def test_matches_mask_chain(self, t_sigma):
        # The factors are the head's activation, unpacked as the samplers do.
        # The chain's upper triangle is a constant zero, so the probe's upper
        # triangle reaches no gradient.
        rng = np.random.default_rng(9)
        B, K, D = 4, 3, 5
        packed = rng.normal(0.0, 2.0, size=(B, K, D * (D + 1) // 2))
        probe = rng.normal(size=(B, K, D, D))
        results = []
        for build, weights in (
                (lambda t: T.tril_activate(t, D, t_sigma, CHOL_DIAG_FLOOR),
                 probe[(..., *np.tril_indices(D))]),
                (lambda t: self._mask_chain(t, D, t_sigma), probe)):
            leaf = Tensor(packed.copy(), requires_grad=True)
            out = build(leaf)
            T.reduce_sum(T.mul(out, T.constant(weights))).backward()
            results.append((out.data, leaf.grad))
        (out_op, grad_op), (out_chain, grad_chain) = results
        np.testing.assert_array_equal(unpack(out_op, D), out_chain)
        np.testing.assert_allclose(grad_op, grad_chain, rtol=0, atol=1e-12)

    def test_activate_keeps_the_packed_shape(self):
        packed = np.random.default_rng(10).normal(size=(2, 3, 10))
        out = T.tril_activate(Tensor(packed), 4, 1.0, CHOL_DIAG_FLOOR).data
        diag = [0, 2, 5, 9]
        assert out.shape == packed.shape and np.all(out[..., diag] > 0)
        off = np.setdiff1d(np.arange(10), diag)
        np.testing.assert_array_equal(out[..., off], packed[..., off])

    def test_shape_guard(self):
        packed = Tensor(np.zeros((2, 3, 9)), requires_grad=True)
        with pytest.raises(ShapeError, match="tril_activate"):
            T.tril_activate(packed, 4, 1.0, CHOL_DIAG_FLOOR)


class TestBudget:
    """The budget op against the add(base, scale(tanh(u), gamma)) chain it
    replaces: the same bits forward and backward, whatever the blocks."""

    @staticmethod
    def _both(u, gamma, base, probe):
        results = []
        for fused in (True, False):
            leaf = Tensor(u.copy(), requires_grad=True)
            if fused:
                out = T.budget(leaf, gamma, base)
            else:
                out = T.scale(T.tanh(leaf), gamma)
                out = out if base is None else T.add(T.constant(base), out)
            T.reduce_sum(T.mul(out, T.constant(probe))).backward()
            results.append((out.data, leaf.grad))
        return results

    @pytest.mark.parametrize("extra", [None, -1, 0, 1])
    @pytest.mark.parametrize("with_base", [False, True])
    def test_rows_around_a_block_match_the_chain(self, extra, with_base):
        # 1 row, and a block of rows less one, exactly and plus one.
        d = 96
        block = T._BUDGET_BLOCK // d
        n = 1 if extra is None else block + extra
        rng = np.random.default_rng(30 + n)
        u, probe = rng.normal(0.0, 3.0, (n, d)), rng.normal(size=(n, d))
        base = rng.uniform(-1, 1, (n, d)) if with_base else None
        (out, grad), (out_chain, grad_chain) = self._both(u, 16 / 255, base, probe)
        np.testing.assert_array_equal(out, out_chain)
        np.testing.assert_array_equal(grad, grad_chain)

    def test_broadcast_base_matches_the_chain(self):
        # The trainer's (B, 1, d) inputs against (B, M, d) draws, over several blocks.
        rng = np.random.default_rng(31)
        B, M, d = 11, 100, 70
        assert B * M * d > 2 * T._BUDGET_BLOCK
        u, probe = rng.normal(0.0, 3.0, (B, M, d)), rng.normal(size=(B, M, d))
        (out, grad), (out_chain, grad_chain) = self._both(u, 0.5, rng.uniform(size=(B, 1, d)),
                                                          probe)
        np.testing.assert_array_equal(out, out_chain)
        np.testing.assert_array_equal(grad, grad_chain)

    def test_scalar_operand(self):
        assert T.budget(Tensor(0.0), 0.3).item() == 0.0
        (out, grad), (out_chain, grad_chain) = self._both(np.array(0.7), 0.3, np.array(2.0),
                                                          np.array(1.5))
        assert out == out_chain and grad == grad_chain

    def test_keeps_no_perturbation(self):
        # The backward keeps no array of its own: tanh(u) is recomputed from u.
        u = Tensor(np.random.default_rng(32).normal(size=(64, 8)), requires_grad=True)
        out = T.budget(u, 0.5, np.ones((64, 8)))
        held = [v for v in _closure_values(out._node.bwd) if isinstance(v, np.ndarray)]
        assert held and all(np.shares_memory(a, u.data) for a in held)

    @pytest.mark.parametrize("case", ["budget_and_leaf", "two_budgets_of_one_operand"])
    def test_add_shares_no_writable_gradient(self, case):
        # add hands one gradient to both operands; the budget's backward forms
        # its gradient in place only in an array it owns. The probe makes the
        # gradient reaching add writable.
        rng = np.random.default_rng(33)
        u, w = rng.normal(0.0, 3.0, (5, 7)), rng.normal(size=(5, 7))
        base, probe = rng.uniform(-1, 1, (5, 7)), T.constant(rng.normal(size=(5, 7)))
        grads = []
        for fused in (True, False):
            leaves = [Tensor(a.copy(), requires_grad=True) for a in (u, w)]

            def perturbed(gamma, b):
                if fused:
                    return T.budget(leaves[0], gamma, b)
                return T.add(T.constant(b), T.scale(T.tanh(leaves[0]), gamma))

            other = leaves[1] if case == "budget_and_leaf" else perturbed(0.25, -base)
            out = T.add(perturbed(0.5, base), other)
            T.reduce_sum(T.mul(out, probe)).backward()
            grads.append([leaf.grad for leaf in leaves])
        for got, want in zip(*grads):
            np.testing.assert_array_equal(got, want)

    def test_writes_into_a_writable_gradient_only(self):
        # mul hands the budget a new array, reduce_sum a read-only broadcast view.
        rng = np.random.default_rng(34)
        u, probe = rng.normal(size=(6, 5)), T.constant(rng.normal(size=(6, 5)))
        for build, writable in ((lambda out: T.mul(out, probe), True), (lambda out: out, False)):
            leaf = Tensor(u.copy(), requires_grad=True)
            out = T.budget(leaf, 0.5)
            node, seen = out._node, []
            routed = node.bwd
            node.bwd = lambda g: (seen.append(g), routed(g))
            T.reduce_sum(build(out)).backward()
            (g,) = seen
            assert g.flags.writeable == writable
            assert np.shares_memory(leaf.grad, g) == writable
            ref = Tensor(u.copy(), requires_grad=True)
            T.reduce_sum(build(T.scale(T.tanh(ref), 0.5))).backward()
            np.testing.assert_array_equal(leaf.grad, ref.grad)

    def test_base_must_broadcast_to_the_operand(self):
        with pytest.raises(ShapeError, match="budget"):
            T.budget(Tensor(np.zeros((3, 1))), 0.5, np.zeros((3, 4)))
        with pytest.raises(ShapeError, match="budget"):
            T.budget(Tensor(np.zeros((3, 4))), 0.5, np.zeros((2, 4)))


class TestMargin:
    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_numpy_reference(self, sign):
        # Whole-number logits, so rows hold ties, also between y and others.
        rng = np.random.default_rng(12)
        logits = rng.integers(-3, 4, (50, 6)).astype(float)
        y = rng.integers(0, 6, 50)
        leaf = Tensor(logits.copy(), requires_grad=True)
        out = T.margin(leaf, y, 0.75, sign)
        out.backward()

        rows = np.arange(50)
        others = logits.copy()
        others[rows, y] = -np.inf
        r_idx = others.argmax(axis=1)  # lowest index on ties
        gap = sign * (logits[rows, y] - others[rows, r_idx]) + 0.75
        s = 1.0 / (1.0 + np.exp(-gap)) / 50
        grad = np.zeros_like(logits)
        grad[rows, y] += sign * s
        grad[rows, r_idx] -= sign * s
        np.testing.assert_allclose(out.item(), np.log1p(np.exp(gap)).mean(), rtol=1e-15)
        np.testing.assert_allclose(leaf.grad, grad, rtol=1e-15, atol=0)

    def test_shape_guard(self):
        with pytest.raises(ShapeError, match="margin"):
            T.margin(Tensor(np.zeros((3, 4))), np.zeros(2, dtype=int), 1.0, 1)
        with pytest.raises(ShapeError, match="margin"):
            T.margin(Tensor(np.zeros(4)), np.zeros(4, dtype=int), 1.0, 1)


class TestUnitRows:
    def test_matches_numpy(self):
        rng = np.random.default_rng(15)
        e, probe = rng.normal(size=(10, 16)), rng.normal(size=(10, 16))
        leaf = Tensor(e.copy(), requires_grad=True)
        out = T.unit_rows(leaf)
        T.reduce_sum(T.mul(out, T.constant(probe))).backward()
        n = np.sqrt(np.maximum((e * e).sum(1, keepdims=True), 1e-12))
        u = e / n
        np.testing.assert_array_equal(out.data, u)
        # The Jacobian of e / |e| projects out the row's own direction.
        grad = (probe - u * (probe * u).sum(1, keepdims=True)) / n
        np.testing.assert_allclose(leaf.grad, grad, rtol=1e-12, atol=1e-15)

    def test_zero_row_is_clamped_and_counted(self):
        reset_numeric_counters()
        leaf = Tensor(np.array([[0.0, 0.0, 0.0], [3.0, 0.0, -4.0]]), requires_grad=True)
        out = T.unit_rows(leaf)
        T.reduce_sum(out).backward()
        assert numeric_counters()["sqrt_clamped"] == 1
        np.testing.assert_array_equal(out.data, [[0.0, 0.0, 0.0], [0.6, 0.0, -0.8]])
        assert np.all(np.isfinite(leaf.grad))

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 4)])
    def test_shape_guard(self, shape):
        with pytest.raises(ShapeError, match="unit_rows"):
            T.unit_rows(Tensor(np.ones(shape)))


# The ops no package module calls, each with the tests' reference it serves.
TEST_ONLY_OPS = {
    "add": "TestBudget's chain and the mixture and factor reference chains",
    "tanh": "TestBudget's chain, the gamma * tanh that budget replaced",
    "softplus": "TestTrilFactor._mask_chain, the chain tril_activate is compared against",
    "mul": "the reference chains and the gradient probes",
    "reduce_sum": "the reference chains and the gradient probes",
}


def test_every_op_has_a_caller():
    # An op is a public function of the engine that records its output.
    ops = {name for name, f in vars(T).items()
           if inspect.isfunction(f) and f.__module__ == T.__name__
           and not name.startswith("_") and "_record(" in inspect.getsource(f)}
    package = Path(T.__file__).parent
    called = {m.group(2) for path in package.glob("*.py") if path.name != "tensor.py"
              for m in re.finditer(r"\b(T|tensor)\.(\w+)\(", path.read_text())}
    assert ops - called == set(TEST_ONLY_OPS)


def _np_log_softmax(h):
    shifted = h - h.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


class TestCrossEntropy:
    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(13)
        logits = rng.uniform(-3, 3, (40, 6))
        y = rng.integers(0, 6, 40)
        leaf = Tensor(logits.copy(), requires_grad=True)
        out = T.cross_entropy(leaf, y)
        out.backward()

        rows = np.arange(40)
        p = np.exp(_np_log_softmax(logits))
        grad = (p - np.eye(6)[y]) / 40  # d/dh of -log p_y, averaged over rows
        assert out.item() == -_np_log_softmax(logits)[rows, y].mean()
        np.testing.assert_allclose(leaf.grad, grad, rtol=1e-12, atol=0)

    def test_shape_guard(self):
        with pytest.raises(ShapeError, match="cross_entropy"):
            T.cross_entropy(Tensor(np.zeros((3, 4))), np.zeros(2, dtype=int))
        with pytest.raises(ShapeError, match="cross_entropy"):
            T.cross_entropy(Tensor(np.zeros(4)), np.zeros(4, dtype=int))


class TestGumbelSoftmax:
    @pytest.mark.parametrize("tau", [1.0, 0.3])
    def test_matches_numpy_reference(self, tau):
        rng = np.random.default_rng(14)
        logits = rng.normal(size=(3, 5, 4))
        noise = rng.gumbel(size=logits.shape)
        probe = rng.normal(size=logits.shape)
        leaf = Tensor(logits.copy(), requires_grad=True)
        out = T.gumbel_softmax(leaf, noise, tau)
        T.reduce_sum(T.mul(out, T.constant(probe))).backward()

        s = (_np_log_softmax(logits) + noise) * (1.0 / tau)
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        z = e / e.sum(axis=-1, keepdims=True)
        # Chain rule through explicit per-row Jacobians: z = softmax(s) and
        # log_pi = log softmax(h), with s = (log_pi + noise) / tau.
        p = np.exp(_np_log_softmax(logits))
        eye = np.eye(4)
        d_z = z[..., :, None] * (eye - z[..., None, :])                 # dz_i/ds_j
        d_logpi = eye - p[..., None, :]                                 # dlogpi_i/dh_j
        g_s = np.einsum("...i,...ij->...j", probe, d_z)
        grad = np.einsum("...i,...ij->...j", g_s / tau, d_logpi)
        np.testing.assert_array_equal(out.data, z)
        # A gradient entry far below its row's largest is a difference of
        # larger terms; it keeps their round-off (~1e-17), not its own.
        np.testing.assert_allclose(leaf.grad, grad, rtol=1e-12, atol=1e-15)

    def test_shared_logits_match_their_copies(self):
        # Logits that broadcast to the noise give the bits of their copies,
        # and a gradient summed over the rows that share them.
        rng = np.random.default_rng(15)
        logits = rng.normal(size=(3, 1, 4))
        noise, probe = rng.gumbel(size=(3, 5, 4)), rng.normal(size=(3, 5, 4))
        results = []
        for shared in (True, False):
            leaf = Tensor(logits.copy(), requires_grad=True)
            h = leaf if shared else T.broadcast_to(leaf, noise.shape)
            out = T.gumbel_softmax(h, noise, 0.7)
            T.reduce_sum(T.mul(out, T.constant(probe))).backward()
            results.append((out.data, leaf.grad))
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)

    def test_shape_guard(self):
        with pytest.raises(ShapeError, match="gumbel_softmax"):
            T.gumbel_softmax(Tensor(np.zeros((3, 4))), np.zeros(4), 1.0)
        with pytest.raises(ShapeError, match="gumbel_softmax"):  # logits wider than the noise
            T.gumbel_softmax(Tensor(np.zeros((2, 3, 4))), np.zeros((2, 1, 4)), 1.0)


def _random_graph(rng):
    """A small random composition of smooth ops over three (3,4) leaves."""
    leaves = [rng.uniform(-2, 2, (3, 4)) for _ in range(3)]
    ops_unary = [T.tanh, T.softplus, lambda t: T.scale(t, 0.7),
                 lambda t: T.gumbel_softmax(t, np.zeros(t.shape), 1.0),
                 lambda t: T.softplus(T.tanh(t))]
    ops_binary = [T.add, lambda a, b: T.add(a, T.scale(b, -1)), T.mul]
    n_ops = rng.integers(4, 8)

    def build(ts):
        pool = list(ts)
        for _ in range(n_ops):
            if len(pool) >= 2 and rng_choice.integers(0, 2) == 0:
                op = ops_binary[rng_choice.integers(0, len(ops_binary))]
                b = pool.pop(rng_choice.integers(0, len(pool)))
                a = pool.pop(rng_choice.integers(0, len(pool)))
                pool.append(op(a, b))
            else:
                op = ops_unary[rng_choice.integers(0, len(ops_unary))]
                i = rng_choice.integers(0, len(pool))
                pool[i] = op(pool[i])
        total = pool[0]
        for t in pool[1:]:
            total = T.add(total, t)
        return T.reduce_sum(total)

    # Freeze the op choices so build() is deterministic across FD re-evaluations.
    rng_choice = np.random.default_rng(int(rng.integers(0, 2**32)))
    state = rng_choice.bit_generator.state

    def deterministic_build(ts):
        rng_choice.bit_generator.state = state
        return build(ts)

    return deterministic_build, leaves


@pytest.mark.parametrize("seed", range(40))
def test_random_graph_finite_difference(seed):
    build, leaves = _random_graph(np.random.default_rng(1000 + seed))
    check_grads(build, leaves, tol=1e-5)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=8))
def test_softmax_rows_on_simplex(logits):
    row = np.array(logits)[None, :]
    out = T.gumbel_softmax(Tensor(row), np.zeros(row.shape), 1.0).data
    assert np.all(out >= 0.0)
    assert abs(out.sum() - 1.0) <= 1e-12


class TestAdam:
    def test_first_step_magnitude(self):
        p = Tensor(1.0, requires_grad=True)
        p.grad = np.asarray(1.0)
        opt = Adam([p], lr=1e-3)
        opt.step()
        assert p.item() == pytest.approx(1.0 - 1e-3, rel=1e-6)

    def test_zero_grad_fresh_state_no_move(self):
        p = Tensor(2.0, requires_grad=True)
        p.grad = np.asarray(0.0)
        opt = Adam([p], lr=1e-2)
        opt.step()
        assert p.item() == 2.0

    def test_moments_decay_on_zero_grad(self):
        p = Tensor(2.0, requires_grad=True)
        opt = Adam([p], lr=1e-2)
        p.grad = np.asarray(1.0)
        opt.step()
        m1, v1 = opt.m[0].copy(), opt.v[0].copy()
        p.grad = np.asarray(0.0)
        opt.step()
        assert opt.m[0] == pytest.approx(0.9 * m1)
        assert opt.v[0] == pytest.approx(0.999 * v1)

    def test_nan_grad_skips_step(self):
        from nppr.tensor import reset_numeric_counters, numeric_counters
        reset_numeric_counters()
        p = Tensor(1.0, requires_grad=True)
        p.grad = np.asarray(np.nan)
        opt = Adam([p], lr=1e-2)
        assert opt.step() is False
        assert p.item() == 1.0
        assert opt.t == 0
        assert numeric_counters()["adam_nan_skips"] == 1

    def test_default_lr_is_paper_value(self):
        assert Adam([]).lr == 5e-4

    def test_step_on_read_only_broadcast_grad(self):
        # reduce_sum's backward stores a read-only broadcast view as the leaf's
        # grad; Adam must read it exactly as it reads an owned copy.
        def leaf():
            return Tensor(np.array([[1.0, -2.0, 0.5], [0.25, 3.0, -1.5]]), requires_grad=True)

        viewed, copied = leaf(), leaf()
        opt_viewed, opt_copied = Adam([viewed], lr=1e-2), Adam([copied], lr=1e-2)
        weights = Tensor(np.array([0.7, -1.3]))
        for _ in range(3):
            opt_viewed.zero_grad()
            T.reduce_sum(T.mul(T.reduce_sum(viewed, axis=1), weights)).backward()
            assert not viewed.grad.flags.writeable
            copied.grad = viewed.grad.copy()
            opt_viewed.step()
            opt_copied.step()
        np.testing.assert_array_equal(viewed.data, copied.data)
        np.testing.assert_array_equal(opt_viewed.m[0], opt_copied.m[0])
        np.testing.assert_array_equal(opt_viewed.v[0], opt_copied.v[0])
