"""Engine tests: forward examples, finite-difference gradient oracle, Adam."""

import itertools

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
        a = T.softmax(Tensor(x)).data
        b = T.softmax(Tensor(x)).data
        np.testing.assert_array_equal(a, b)

    def test_log_clamps_and_counts(self):
        reset_numeric_counters()
        out = T.log(Tensor([1.0, 0.0, -3.0]))
        assert numeric_counters()["log_clamped"] == 2
        assert out.data[1] == pytest.approx(np.log(1e-12))

    def test_shape_mismatch_names_op(self):
        with pytest.raises(ShapeError, match="matmul"):
            T.matmul(Tensor(np.ones((2, 3)), requires_grad=True), Tensor(np.ones((4, 5))))
        with pytest.raises(ShapeError, match="add"):
            T.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4,))))

    def test_affine_shape_guard(self):
        with pytest.raises(ShapeError, match="affine"):
            T.affine(Tensor(np.ones((2, 3))), Tensor(np.ones((5, 4))), Tensor(np.zeros(4)))


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


def _chol_apply_case(r):
    xi = r.normal(size=(2, 3, 2, 3))  # (B, M, K, D) constant noise, closed over
    return (lambda ts: T.reduce_mean(T.mul(T.chol_apply(ts[0], xi), ts[1])),
            [r.uniform(-1, 1, (2, 2, 3, 3)), r.uniform(-2, 2, (2, 3, 2, 3))])


# Per-op finite-difference checks; inputs are kept away from kinks/ties.
PER_OP_CASES = {
    "add": lambda r: (lambda ts: T.reduce_mean(T.add(ts[0], ts[1])),
                      [r.uniform(-2, 2, (3, 4)), r.uniform(-2, 2, (3, 4))]),
    "add_broadcast": lambda r: (lambda ts: T.reduce_mean(T.add(ts[0], ts[1])),
                                [r.uniform(-2, 2, (3, 4)), r.uniform(-2, 2, (4,))]),
    "sub": lambda r: (lambda ts: T.reduce_mean(T.sub(ts[0], ts[1])),
                      [r.uniform(-2, 2, (2, 5)), r.uniform(-2, 2, (2, 5))]),
    "mul": lambda r: (lambda ts: T.reduce_mean(T.mul(ts[0], ts[1])),
                      [r.uniform(-2, 2, (3, 4)), r.uniform(-2, 2, (3, 1))]),
    "div": lambda r: (lambda ts: T.reduce_mean(T.div(ts[0], ts[1])),
                      [r.uniform(-2, 2, (3, 3)), r.uniform(0.5, 2, (3, 3))]),
    "scale": lambda r: (lambda ts: T.reduce_mean(T.scale(ts[0], -1.7)),
                        [r.uniform(-2, 2, (4,))]),
    "matmul": lambda r: (lambda ts: T.reduce_mean(T.matmul(ts[0], ts[1])),
                         [r.uniform(-2, 2, (3, 4)), r.uniform(-2, 2, (4, 2))]),
    "matmul_batched": lambda r: (lambda ts: T.reduce_mean(T.matmul(ts[0], ts[1])),
                                 [r.uniform(-2, 2, (2, 3, 4)), r.uniform(-2, 2, (4, 2))]),
    "matmul_bcast_batch": lambda r: (lambda ts: T.reduce_mean(T.matmul(ts[0], ts[1])),
                                     [r.uniform(-1, 1, (2, 1, 3, 4)),
                                      r.uniform(-1, 1, (5, 4, 2))]),
    "chol_apply": _chol_apply_case,
    "tril_factor": lambda r: (lambda ts: T.reduce_mean(T.mul(T.tril_factor(ts[0], 3, 0.7, 1e-6),
                                                             ts[1])),
                              [r.uniform(-2, 2, (2, 6)), r.uniform(-2, 2, (2, 3, 3))]),
    "affine": lambda r: (lambda ts: T.reduce_mean(T.affine(ts[0], ts[1], ts[2])),
                         [r.uniform(-2, 2, (3, 4)), r.uniform(-2, 2, (4, 2)),
                          r.uniform(-2, 2, (2,))]),
    "relu": lambda r: (lambda ts: T.reduce_mean(T.relu(ts[0])),
                       [np.where(np.abs(v := r.uniform(-2, 2, (3, 4))) < 0.1, 0.5, v)]),
    "tanh": lambda r: (lambda ts: T.reduce_mean(T.tanh(ts[0])), [r.uniform(-2, 2, (6,))]),
    "exp": lambda r: (lambda ts: T.reduce_mean(T.exp(ts[0])), [r.uniform(-2, 2, (6,))]),
    "log": lambda r: (lambda ts: T.reduce_mean(T.log(ts[0])), [r.uniform(0.1, 2, (6,))]),
    "sqrt": lambda r: (lambda ts: T.reduce_mean(T.sqrt(ts[0])), [r.uniform(0.1, 2, (6,))]),
    "softplus": lambda r: (lambda ts: T.reduce_mean(T.softplus(ts[0])),
                           [r.uniform(-2, 2, (2, 3))]),
    "softmax": lambda r: (lambda ts: T.reduce_mean(T.mul(T.softmax(ts[0]), ts[1])),
                          [r.uniform(-2, 2, (3, 4)), r.uniform(-2, 2, (3, 4))]),
    "log_softmax": lambda r: (lambda ts: T.reduce_mean(T.mul(T.log_softmax(ts[0]), ts[1])),
                              [r.uniform(-2, 2, (3, 4)), r.uniform(-2, 2, (3, 4))]),
    "reduce_sum_axis": lambda r: (lambda ts: T.reduce_mean(T.reduce_sum(ts[0], axis=1)),
                                  [r.uniform(-2, 2, (3, 4))]),
    "reduce_mean_keep": lambda r: (lambda ts: T.reduce_sum(T.reduce_mean(ts[0], axis=0, keepdims=True)),
                                   [r.uniform(-2, 2, (3, 4))]),
    "row_max": lambda r: (lambda ts: T.reduce_mean(T.row_max(ts[0])),
                          [np.cumsum(r.uniform(0.2, 1.0, (3, 4)), axis=1) * r.choice([-1, 1], (3, 1))]),
    "gather_row": lambda r: (lambda ts: T.reduce_mean(T.gather_row(ts[0], np.array([0, 2, 1]))),
                             [r.uniform(-2, 2, (3, 4))]),
    "take_rows": lambda r: (lambda ts: T.reduce_mean(T.take_rows(ts[0], np.array([0, 2, 2, 1]))),
                            [r.uniform(-2, 2, (3, 4))]),
    "reshape": lambda r: (lambda ts: T.reduce_mean(T.mul(T.reshape(ts[0], (2, 6)), ts[1])),
                          [r.uniform(-2, 2, (3, 4)), r.uniform(-2, 2, (2, 6))]),
    "broadcast_to": lambda r: (lambda ts: T.reduce_mean(T.mul(T.broadcast_to(ts[0], (4, 3)), ts[1])),
                               [r.uniform(-2, 2, (1, 3)), r.uniform(-2, 2, (4, 3))]),
}


@pytest.mark.parametrize("name", sorted(PER_OP_CASES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_per_op_finite_difference(name, seed):
    build, leaves = PER_OP_CASES[name](_rng(seed * 101 + 7))
    check_grads(build, leaves, tol=1e-5)


# Multi-operand ops whose backward guards each operand by requires_grad.
GUARDED_CASES = ["add", "add_broadcast", "sub", "mul", "div", "matmul", "matmul_batched",
                 "matmul_bcast_batch", "affine"]


def _proper_subsets(n):
    return [s for r in range(1, n) for s in itertools.combinations(range(n), r)]


FROZEN_SUBSETS = [(name, frozen) for name in GUARDED_CASES
                  for frozen in _proper_subsets(3 if name == "affine" else 2)]


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


@pytest.mark.parametrize("op", ["affine", "matmul"])
@pytest.mark.parametrize("frozen", [0, 1])
def test_frozen_operand_product_is_skipped(op, frozen):
    # The frozen operand's gradient is the only backward product that reads
    # the other operand's data, so that data must see no matmul in backward.
    r = _rng(5)
    ts = [Tensor(r.normal(size=shape), requires_grad=i != frozen)
          for i, shape in enumerate([(5, 4), (4, 3), (3,)])]
    calls = _log_matmuls(ts[1 - frozen])
    out = T.affine(*ts) if op == "affine" else T.matmul(ts[0], ts[1])
    root = T.reduce_sum(out)
    assert calls == ["__call__"]  # the forward product
    calls.clear()
    root.backward()
    assert calls == []
    assert ts[frozen].grad is None and ts[1 - frozen].grad is not None


def test_shared_first_gradient_stays_its_own():
    # add hands a and b views of one array; the later second use of a must
    # make a new array for a.grad instead of writing into the shared one.
    a = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    b = Tensor(np.array([0.3, 0.4, -1.0]), requires_grad=True)
    c, d = np.array([2.0, 3.0, 5.0]), np.array([-1.0, 7.0, 0.25])
    y = T.add(a, b)
    T.reduce_sum(T.add(T.mul(y, Tensor(d)), T.mul(a, Tensor(c)))).backward()
    assert np.shares_memory(b.grad, y.grad)
    np.testing.assert_array_equal(b.grad, d)
    np.testing.assert_array_equal(a.grad, d + c)


class TestNoGrad:
    @staticmethod
    def _leaves():
        rng = np.random.default_rng(31)
        return (Tensor(rng.normal(size=(5, 3)), requires_grad=True),
                Tensor(rng.normal(size=(3, 4)), requires_grad=True),
                Tensor(rng.normal(size=4), requires_grad=True))

    @staticmethod
    def _forward(x, w, b):
        h = T.affine(x, w, b)
        return [h, T.tanh(h), T.mul(h, h), T.matmul(x, w), T.reduce_sum(T.relu(h))]

    def test_ops_record_no_tape(self):
        x, w, b = self._leaves()
        taped = self._forward(x, w, b)
        with T.no_grad():
            free = self._forward(x, w, b)
        for out, ref in zip(free, taped):
            assert not out.requires_grad
            assert out._parents == () and out._bwd is None
            np.testing.assert_array_equal(out.data, ref.data)
        free[-1].backward()
        assert x.grad is None and w.grad is None and b.grad is None

    def test_flag_restored_after_exception(self):
        x, w, b = self._leaves()
        with pytest.raises(RuntimeError, match="inside"):
            with T.no_grad():
                raise RuntimeError("inside")
        assert T.affine(x, w, b).requires_grad

    def test_flag_restored_after_nesting(self):
        x, w, b = self._leaves()
        with T.no_grad():
            with T.no_grad():
                assert not T.affine(x, w, b).requires_grad
            assert not T.affine(x, w, b).requires_grad
        out = T.reduce_sum(T.affine(x, w, b))
        assert out.requires_grad
        out.backward()
        assert x.grad is not None and w.grad is not None and b.grad is not None


class TestCholApply:
    @staticmethod
    def _matmul_chain(chol, xi):
        """The generic reshape -> constant -> matmul -> reshape route to L_k xi_k."""
        B, M, K, D = xi.shape
        chol_b = T.reshape(chol, (B, 1, K, D, D))
        xi_col = T.constant(xi.reshape(B, M, K, D, 1))
        return T.reshape(T.matmul(chol_b, xi_col), (B, M, K, D))

    @pytest.mark.parametrize("shared", [False, True], ids=["per_row", "broadcast"])
    def test_matches_matmul_chain(self, shared):
        # `shared` builds chol by broadcast_to from one (1,K,D,D) factor, as the
        # label head does.
        rng = np.random.default_rng(5)
        B, M, K, D = 4, 6, 3, 5
        raw = rng.normal(size=(1 if shared else B, K, D, D))
        xi = rng.standard_normal((B, M, K, D))
        probe = T.constant(rng.normal(size=(B, M, K, D)))
        results = []
        for apply in (T.chol_apply, self._matmul_chain):
            leaf = Tensor(raw.copy(), requires_grad=True)
            chol = T.broadcast_to(leaf, (B, K, D, D)) if shared else leaf
            out = apply(chol, xi)
            T.reduce_sum(T.mul(out, probe)).backward()
            results.append((out.data, leaf.grad))
        (out_fused, grad_fused), (out_chain, grad_chain) = results
        np.testing.assert_allclose(out_fused, out_chain, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grad_fused, grad_chain, rtol=0, atol=1e-12)

    def test_shape_guard(self):
        chol = Tensor(np.zeros((2, 3, 4, 4)), requires_grad=True)
        with pytest.raises(ShapeError, match="chol_apply"):
            T.chol_apply(chol, np.zeros((2, 5, 3, 2)))


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
        rng = np.random.default_rng(9)
        B, K, D = 4, 3, 5
        packed = rng.normal(0.0, 2.0, size=(B, K, D * (D + 1) // 2))
        probe = T.constant(rng.normal(size=(B, K, D, D)))
        results = []
        for build in (lambda t: T.tril_factor(t, D, t_sigma, CHOL_DIAG_FLOOR),
                      lambda t: self._mask_chain(t, D, t_sigma)):
            leaf = Tensor(packed.copy(), requires_grad=True)
            out = build(leaf)
            T.reduce_sum(T.mul(out, probe)).backward()
            results.append((out.data, leaf.grad))
        (out_op, grad_op), (out_chain, grad_chain) = results
        np.testing.assert_array_equal(out_op, out_chain)
        np.testing.assert_allclose(grad_op, grad_chain, rtol=0, atol=1e-12)

    def test_shape_guard(self):
        packed = Tensor(np.zeros((2, 3, 9)), requires_grad=True)
        with pytest.raises(ShapeError, match="tril_factor"):
            T.tril_factor(packed, 4, 1.0, CHOL_DIAG_FLOOR)


def _random_graph(rng):
    """A small random composition of smooth ops over three (3,4) leaves."""
    leaves = [rng.uniform(-2, 2, (3, 4)) for _ in range(3)]
    ops_unary = [T.tanh, T.softplus, lambda t: T.scale(t, 0.7),
                 lambda t: T.softmax(t, axis=-1), lambda t: T.exp(T.tanh(t))]
    ops_binary = [T.add, T.sub, T.mul]
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
        return T.reduce_mean(total)

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
    out = T.softmax(Tensor(np.array(logits)[None, :])).data
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

    def test_state_roundtrip(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        opt = Adam([p], lr=1e-2)
        p.grad = np.array([0.5, -0.5])
        opt.step()
        state = opt.state_dict()
        opt2 = Adam([p], lr=1e-2)
        opt2.load_state_dict(state)
        assert opt2.t == opt.t
        np.testing.assert_array_equal(opt2.m[0], opt.m[0])

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

    @pytest.mark.parametrize("kind", ["m", "v"])
    def test_load_refuses_misshapen_moment(self, kind):
        p = Tensor(np.zeros(3), requires_grad=True)
        opt = Adam([p], lr=1e-2)
        state = {"t": 1, "m": [np.zeros(3)], "v": [np.zeros(3)]}
        state[kind] = [np.zeros((2, 3))]
        with pytest.raises(ValueError, match=rf"moment {kind}\[0\] shape \(2, 3\).*\(3,\)"):
            opt.load_state_dict(state)
        assert opt.t == 0 and opt.m[0].shape == (3,)
