"""Autodiff op set: every backward checked against central finite differences,
plus cross-entropy values and AdamW behavior."""

import math
import sys
import threading
import time
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest

from amdet import engine
from amdet.engine import (AdamW, OptimizerConfig, Tape, Tensor, _row_max,
                          _unbroadcast)
from amdet.errors import DataError, NumericalError
from amdet.model import ModelConfig, init_params

from conftest import central_diff_grad, rel_err


def check_op(build, *input_arrays, tol=1e-6):
    """build(tape, *tensors) -> output tensor; compares analytic vs numeric
    gradients of sum(output^2)/2 for every input."""
    tensors = [Tensor(a.copy(), name=f"in{i}") for i, a in enumerate(input_arrays)]
    tape = Tape()
    out = build(tape, *tensors)
    loss = tape.scale(tape.sum_all(tape.mul(out, out)), 0.5)
    tape.backward(loss)
    assert all(node.out.grad is None for node in tape.nodes)

    for i, arr in enumerate(input_arrays):
        def scalar(x, i=i):
            probe = [Tensor(a.copy()) for a in input_arrays]
            probe[i] = Tensor(x)
            t2 = Tape()
            o = build(t2, *probe)
            return 0.5 * float((o.data ** 2).sum())

        numeric = central_diff_grad(scalar, arr)
        assert rel_err(tensors[i].grad, numeric, floor=1e-6) < tol, \
            f"gradient mismatch for input {i}"


def test_matmul_grad(rng):
    check_op(lambda t, a, b: t.matmul(a, b),
             rng.normal(size=(3, 4)), rng.normal(size=(4, 2)))


def test_matmul_grad_batched_shared_rhs(rng):
    check_op(lambda t, a, b: t.matmul(a, b),
             rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 2)))


def test_matmul_grad_batched_both(rng):
    check_op(lambda t, a, b: t.matmul(a, b),
             rng.normal(size=(2, 1, 3)), rng.normal(size=(2, 3, 2)))


def test_matmul_flops_are_two_per_multiply_add(rng):
    tape = Tape()
    a = Tensor(rng.normal(size=(5, 3, 4)))
    tape.relu(tape.matmul(a, Tensor(rng.normal(size=(4, 7)))))
    tape.matmul(Tensor(rng.normal(size=(2, 1, 6))),
                Tensor(rng.normal(size=(2, 6, 3))))
    assert tape.matmul_flops() == 2 * (5 * 3 * 4 * 7 + 2 * 1 * 6 * 3)


def test_add_broadcast_grad(rng):
    check_op(lambda t, a, b: t.add(a, b),
             rng.normal(size=(3, 4)), rng.normal(size=(4,)))


def test_mul_grad(rng):
    check_op(lambda t, a, b: t.mul(a, b),
             rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))


def test_scale_transpose_reshape_grad(rng):
    check_op(lambda t, a: t.scale(t.transpose(t.reshape(a, (4, 3))), 1.7),
             rng.normal(size=(3, 4)))


def test_slice_concat_grad(rng):
    def build(t, a):
        lo = t.slice_last(a, 0, 2)
        hi = t.slice_last(a, 2, 4)
        return t.concat_last([hi, lo])
    check_op(build, rng.normal(size=(3, 4)))


def test_relu_grad(rng):
    # keep values away from the kink
    x = rng.normal(size=(4, 5))
    x[np.abs(x) < 0.05] += 0.2
    check_op(lambda t, a: t.relu(a), x)


# row widths 1, 3 and 10 (odd widths fold a column into the row max) and a
# 4-D input
ROW_SHAPES = [(3, 1), (3, 3), (3, 10), (2, 3, 4, 5)]
ROW_IDS = ["w1", "w3", "w10", "4d"]


@pytest.mark.parametrize("shape", [(3, 5)] + ROW_SHAPES,
                         ids=["w5"] + ROW_IDS)
def test_softmax_grad(rng, shape):
    check_op(lambda t, a: t.softmax(a), rng.normal(size=shape))


def test_softmax_rows_sum_to_one(rng):
    tape = Tape()
    p = tape.softmax(Tensor(rng.normal(size=(6, 7)) * 3))
    np.testing.assert_allclose(p.data.sum(axis=-1), 1.0, atol=1e-12)


@pytest.mark.parametrize("shape", [(3, 6)] + ROW_SHAPES,
                         ids=["w6"] + ROW_IDS)
def test_layer_norm_grad(rng, shape):
    check_op(lambda t, a, g, b: t.layer_norm(a, g, b),
             rng.normal(size=shape), rng.normal(size=shape[-1:]) + 1.0,
             rng.normal(size=shape[-1:]), tol=1e-5)


@pytest.mark.parametrize("width", [1, 2, 3, 5, 8, 10, 62])
def test_row_ops_match_numpy_reductions(rng, width):
    """softmax and layer_norm forward against the textbook formulas written
    with numpy's max/sum/mean/var reductions, in float64."""
    x = rng.normal(size=(2, 3, 4, width)) * 3
    gain, bias = rng.normal(size=width) + 1.0, rng.normal(size=width)
    tape = Tape()
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    assert rel_err(tape.softmax(Tensor(x)).data,
                   e / e.sum(axis=-1, keepdims=True)) < 1e-12
    xhat = (x - x.mean(axis=-1, keepdims=True)) \
        / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-12)
    out = tape.layer_norm(Tensor(x), Tensor(gain), Tensor(bias))
    assert rel_err(out.data, xhat * gain + bias) < 1e-12


@pytest.mark.parametrize("width", [1, 2, 3, 5, 7, 8, 10, 16, 31, 62, 63])
def test_row_max_is_bitwise_ndarray_max(rng, width):
    x = rng.normal(size=(2, 3, 5, width)).astype(np.float32)
    x[0, 0, 0] = -np.inf                  # a row of -inf
    x[0, 0, 1] = 1.5                      # a row of ties
    x[1, 1, :, -1] = 1e30                 # the max in the leftover column
    for view in (x, np.swapaxes(x, 0, 2)):
        got = _row_max(view)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, view.max(axis=-1, keepdims=True))


def test_layer_norm_normalizes():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 8)) * 2 + 3
    tape = Tape()
    out = tape.layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8)))
    np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-9)
    np.testing.assert_allclose(out.data.var(axis=-1), 1.0, atol=1e-6)


def test_layer_norm_constant_row_is_zero():
    tape = Tape()
    x = np.full((2, 8), 3.7)
    out = tape.layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8)))
    np.testing.assert_array_equal(out.data, 0.0)


def test_sum_all_gradient_is_ones(rng):
    x = Tensor(rng.normal(size=(3, 4)))
    tape = Tape()
    tape.backward(tape.sum_all(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_half_squared_norm_gradient_is_x(rng):
    data = rng.normal(size=(5,))
    x = Tensor(data)
    tape = Tape()
    loss = tape.scale(tape.sum_all(tape.mul(x, x)), 0.5)
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, data, rtol=1e-12)


def test_backward_requires_scalar(rng):
    tape = Tape()
    x = Tensor(rng.normal(size=(3,)))
    y = tape.relu(x)
    with pytest.raises(ValueError):
        tape.backward(y)


def test_gradient_accumulates_on_reuse(rng):
    x = Tensor(rng.normal(size=(3,)))
    tape = Tape()
    y = tape.add(x, x)
    tape.backward(tape.sum_all(y))
    np.testing.assert_array_equal(x.grad, 2 * np.ones(3))


def test_nonfinite_gradient_raises_with_op_name():
    a = Tensor(np.array([np.inf, 1.0]), name="a")
    b = Tensor(np.array([2.0, 3.0]), name="b")
    tape = Tape()
    y = tape.mul(a, b)       # d(loss)/db = a contains inf
    loss = tape.sum_all(y)
    with pytest.raises(NumericalError, match="mul"):
        tape.backward(loss)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nonfinite_gradient_mid_graph_names_producing_op(rng):
    x = Tensor(rng.normal(size=(2, 3, 4)), name="x")
    bias = Tensor(rng.normal(size=(4,)), name="bias")
    w = rng.normal(size=(4, 5))
    w[1, 2] = np.inf
    tape = Tape()
    h = tape.matmul(tape.add(x, bias), Tensor(w, name="w"))
    loss = tape.sum_all(tape.relu(h))
    with pytest.raises(NumericalError, match="op 'matmul' for input 'add"):
        tape.backward(loss)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_overflowing_gradient_sum_raises_with_leaf_name():
    # each scale's gradient is 1e308; their sum on x is inf
    x = Tensor(np.array([1e-10]), name="x")
    tape = Tape()
    big = tape.scale(x, 1e308)
    loss = tape.sum_all(tape.add(big, tape.scale(x, 1e308)))
    with pytest.raises(NumericalError, match="accumulated for 'x'"):
        tape.backward(loss)


def test_aliased_gradient_is_not_modified_by_accumulation(rng):
    # add hands the same g to a and b; a also feeds the earlier mul, whose
    # gradient reaches a later in the reverse pass
    a0, b0, w0 = (rng.normal(size=(3,)) for _ in range(3))

    def build(t, a, b, w):
        p = t.mul(a, w)
        out = t.add(t.add(a, b), p)
        return t.scale(t.sum_all(t.mul(out, out)), 0.5)

    a, b, w = Tensor(a0.copy()), Tensor(b0.copy()), Tensor(w0.copy())
    tape = Tape()
    tape.backward(build(tape, a, b, w))
    out = a0 + b0 + a0 * w0
    np.testing.assert_allclose(b.grad, out, rtol=1e-12)
    np.testing.assert_allclose(a.grad, out * (1.0 + w0), rtol=1e-12)
    for t, arr, i in ((a, a0, 0), (b, b0, 1), (w, w0, 2)):
        def scalar(x, i=i):
            args = [Tensor(v) for v in (a0, b0, w0)]
            args[i] = Tensor(x)
            return float(build(Tape(), *args).data)
        assert rel_err(t.grad, central_diff_grad(scalar, arr)) < 1e-6


def count_closure_calls(tape):
    """Wrap every node's backward; the list counts each node's calls."""
    calls = [0] * len(tape.nodes)
    for i, node in enumerate(tape.nodes):
        def counted(g, i=i, fn=node.backward):
            calls[i] += 1
            return fn(g)
        node.backward = counted
    return calls


def test_finite_backward_runs_each_closure_once(rng):
    x = Tensor(rng.normal(size=(2, 3, 4)))
    w = Tensor(rng.normal(size=(4, 4)))
    tape = Tape()
    h = tape.relu(tape.matmul(x, w))
    loss = tape.sum_all(tape.softmax(tape.add(h, x)))
    calls = count_closure_calls(tape)
    tape.backward(loss)
    assert calls == [1] * len(tape.nodes)


def test_tensor_built_only_from_no_grad_leaves_gets_no_gradient(rng):
    """Nodes whose inputs all need no gradient are never differentiated,
    and each multi-input op hands None to the input that needs none."""
    a = Tensor(rng.normal(size=(2, 3, 4)), needs_grad=False)
    w = Tensor(rng.normal(size=(4, 4)), needs_grad=False)
    g, b = Tensor(rng.normal(size=(4,))), Tensor(rng.normal(size=(4,)))
    tape = Tape()
    const = tape.relu(tape.matmul(a, w))                  # nodes 0 and 1
    h = tape.layer_norm(tape.add(const, g), g, b)
    loss = tape.sum_all(tape.mul(h, const))
    calls = count_closure_calls(tape)
    tape.backward(loss)
    assert not const.needs_grad and h.needs_grad and loss.needs_grad
    assert calls[:2] == [0, 0] and calls[2:] == [1] * (len(calls) - 2)
    assert a.grad is None and w.grad is None
    assert g.grad is not None and b.grad is not None


def test_no_grad_leaves_leave_other_gradients_bitwise_unchanged(rng):
    """Every op with a no-grad input: that input gets None and every other
    leaf gets the all-needs-grad gradient bit for bit."""
    arrays = {"x": rng.normal(size=(2, 3, 4)), "w": rng.normal(size=(4, 4)),
              "v": rng.normal(size=(2, 4, 3)), "g": rng.normal(size=(4,)),
              "b": rng.normal(size=(4,)), "m": rng.normal(size=(2, 3, 4))}

    def grads(frozen):
        t = {k: Tensor(a, name=k, needs_grad=k not in frozen)
             for k, a in arrays.items()}
        tape = Tape()
        h = tape.layer_norm(tape.add(tape.matmul(t["x"], t["w"]), t["m"]),
                            t["g"], t["b"])                   # shared weight
        y = tape.concat_last([tape.mul(h, t["m"]), t["x"]])
        s = tape.matmul(tape.matmul(t["x"], t["v"]),          # stacked
                        tape.slice_last(y, 0, 3))
        tape.backward(tape.sum_all(tape.mul(tape.softmax(s), s)))
        return {k: v.grad for k, v in t.items()}

    full = grads(frozen=())
    assert all(v is not None for v in full.values())
    for frozen in ("x", "w", "m", "g", "b", "v", "xm", "wgb"):
        part = grads(frozen)
        for k in arrays:
            if k in frozen:
                assert part[k] is None, (frozen, k)
            else:
                np.testing.assert_array_equal(part[k], full[k])


def test_loss_that_needs_no_gradient_runs_no_closure(rng):
    a = Tensor(rng.normal(size=(3,)), needs_grad=False)
    tape = Tape()
    loss = tape.sum_all(tape.relu(a))
    calls = count_closure_calls(tape)
    tape.backward(loss)
    assert calls == [0, 0] and a.grad is None and loss.grad is None


def test_backward_memory_beyond_forward_retention_at_c62():
    """One SEED-shaped training step (C=62, batch 16, MLP width 1984): what
    backward allocates beyond what the forward pass holds stays under
    24 MB. Keeping every intermediate gradient alive took 46.7 MB;
    freeing each once its node has used it takes 16.1 MB."""
    from amdet.model import forward, wrap_params

    cfg = ModelConfig(channels=62, bands=5, frames=6, classes=3, seed=1)
    params = init_params(cfg)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16, 6, 10, 62)).astype(np.float32)
    y = rng.integers(0, 3, 16)
    tracemalloc.start()
    try:
        tape = Tape()
        logits, _ = forward(tape, wrap_params(params), cfg, x)
        loss = tape.cross_entropy(logits, y)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held < 24e6, (held, peak)


# ---------------------------------------------- reference gradient paths


def unbroadcast_loop(grad, shape):
    """Reference: collapse leading axes, then size-1 axes, one sum at a time."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def matmul_backward_batched(a, b, g):
    """Reference: batched products, then summed down to each input."""
    ga = unbroadcast_loop(g @ np.swapaxes(b, -1, -2), a.shape)
    gb = unbroadcast_loop(np.swapaxes(a, -1, -2) @ g, b.shape)
    return ga, gb


@pytest.mark.parametrize("a_shape, swapped", [
    ((5, 3, 4), False), ((2, 5, 3, 4), False),
    ((5, 3, 4), True), ((2, 5, 3, 4), True),
], ids=["a_shape0", "a_shape1", "swapaxes_view0", "swapaxes_view1"])
def test_shared_weight_matmul_backward_matches_reference(rng, a_shape,
                                                         swapped):
    """The flattened 2-D GEMMs match the stacked products, forward and
    backward; a non-contiguous left operand (a swapaxes view, which the
    flattening has to copy) as well. The closure hands back the weight
    gradient pending on the helper thread; the test waits for it."""
    a_data = rng.normal(size=a_shape)
    if swapped:
        a_data = np.swapaxes(np.swapaxes(a_data, -2, -3).copy(), -2, -3)
        assert not a_data.flags.c_contiguous
    a, b = Tensor(a_data), Tensor(rng.normal(size=(4, 6)))
    tape = Tape()
    out = tape.matmul(a, b)
    assert out.shape == a_shape[:-1] + (6,)
    assert rel_err(out.data, np.matmul(a.data, b.data)) < 1e-12
    g = rng.normal(size=out.shape)
    ga, gb = tape.nodes[-1].backward(g)
    assert isinstance(gb, Future)
    gb = gb.result(timeout=10)
    ref_ga, ref_gb = matmul_backward_batched(a.data, b.data, g)
    assert ga.shape == a_shape and gb.shape == (4, 6)
    assert rel_err(ga, ref_ga) < 1e-12
    assert rel_err(gb, ref_gb) < 1e-12


# ------------------------------------------ pending weight gradients

HELPER = engine._HELPER


class SerialHelper:
    """Computes each weight gradient at once, on the calling thread, and
    hands back the array itself: the reverse pass without a helper thread."""

    def submit(self, fn, *args):
        return fn(*args)


class LateHelper:
    """The helper thread, starting each product late, so that it is still
    pending when the pass first reads it."""

    def submit(self, fn, *args):
        def late():
            time.sleep(0.002)
            return fn(*args)
        return HELPER.submit(late)


def leaf_grads(build, arrays, helper, monkeypatch):
    """Leaf gradients of sum_all(build(tape, *leaves)) with helper in place
    of the engine's helper thread."""
    monkeypatch.setattr(engine, "_HELPER", helper)
    leaves = [Tensor(a, name=f"in{i}") for i, a in enumerate(arrays)]
    tape = Tape()
    tape.backward(tape.sum_all(build(tape, *leaves)))
    assert all(node.out.grad is None for node in tape.nodes)
    return [t.grad for t in leaves]


def two_products(t, x1, x2, w):
    return t.add(t.matmul(x1, w), t.matmul(x2, w))


def product_then_add(t, x, w):            # pending first, then a plain one
    return t.matmul(t.add(x, w), w)


def add_product_add(t, x, w):             # plain, pending, plain
    return t.add(t.matmul(t.add(x, w), w), w)


def produced_weight(t, x, w):             # the transpose's output is 2-D
    return t.relu(t.matmul(x, t.transpose(t.scale(w, 0.5))))


@pytest.mark.parametrize("build, shapes", [
    (two_products, [(2, 3, 4), (1, 3, 4), (4, 4)]),
    (product_then_add, [(2, 4, 4), (4, 4)]),
    (add_product_add, [(2, 4, 4), (4, 4)]),
    (produced_weight, [(2, 3, 4), (5, 4)]),
], ids=["shared_by_two_matmuls", "pending_then_add", "add_pending_add",
        "produced_by_an_op"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pending_weight_gradients_match_serial_bitwise(rng, monkeypatch,
                                                       build, shapes, dtype):
    """Leaf gradients with the helper thread, also when it lags, have the
    bits of the serial pass: a weight shared by two matmuls, a weight that
    also feeds an add (both orders), and a weight an op produced."""
    arrays = [rng.normal(size=s).astype(dtype) for s in shapes]
    serial = leaf_grads(build, arrays, SerialHelper(), monkeypatch)
    for helper in (HELPER, LateHelper()):
        got = leaf_grads(build, arrays, helper, monkeypatch)
        for a, b in zip(got, serial):
            assert type(a) is np.ndarray and a.dtype == dtype
            np.testing.assert_array_equal(a, b)


def test_model_step_gradients_match_serial_bitwise(monkeypatch):
    """Every parameter gradient of a C=16 training step, float32, with the
    interpreter switching threads as often as it can."""
    from amdet.model import forward, wrap_params

    cfg = ModelConfig(channels=16, bands=5, frames=6, classes=3, seed=2)
    params = init_params(cfg)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(9, 6, 10, 16)).astype(np.float32)
    y = rng.integers(0, 3, 9)

    def grads(helper):
        monkeypatch.setattr(engine, "_HELPER", helper)
        p, tape = wrap_params(params), Tape()
        tape.backward(tape.cross_entropy(forward(tape, p, cfg, x)[0], y))
        return {k: t.grad for k, t in p.items()}

    serial = grads(SerialHelper())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = [grads(HELPER) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    for run in threaded:
        for k in serial:
            np.testing.assert_array_equal(run[k], serial[k], err_msg=k)


def test_reverse_pass_leaves_a_leaf_weight_gradient_pending(rng,
                                                            monkeypatch):
    """The pass itself does not wait for a leaf's weight gradient; only
    backward does, before its finiteness check."""
    release = threading.Event()

    class GatedHelper:
        def submit(self, fn, *args):
            def gated():
                if not release.wait(timeout=10):
                    raise TimeoutError("the reverse pass waited")
                return fn(*args)
            return HELPER.submit(gated)

    x, w = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5))
    monkeypatch.setattr(engine, "_HELPER", GatedHelper())
    wt, tape = Tensor(w), Tape()
    loss = tape.sum_all(tape.relu(tape.matmul(Tensor(x), wt)))
    tape._reverse(loss, check=False)
    pending = wt.grad
    assert isinstance(pending, Future) and not pending.done()
    release.set()
    serial = leaf_grads(lambda t, x, w: t.relu(t.matmul(x, w)), [x, w],
                        SerialHelper(), monkeypatch)[1]
    np.testing.assert_array_equal(pending.result(timeout=10), serial)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nonfinite_weight_product_is_named_by_the_replay(rng, monkeypatch):
    """An inf in the weight product, computed on the helper thread, is
    still reported as the matmul's gradient for the weight."""
    x = rng.normal(size=(2, 3, 4))
    x[1, 2, 3] = np.inf          # every output in its row is +inf
    w = np.abs(rng.normal(size=(4, 5))) + 0.1
    messages = []
    for helper in (SerialHelper(), HELPER, LateHelper()):
        monkeypatch.setattr(engine, "_HELPER", helper)
        xt, wt, tape = Tensor(x, name="x"), Tensor(w, name="w"), Tape()
        with pytest.raises(NumericalError,
                           match="op 'matmul' for input 'w'") as err:
            tape.backward(tape.sum_all(tape.matmul(xt, wt)))
        messages.append(str(err.value))
    assert len(set(messages)) == 1


@pytest.mark.parametrize("grad_shape,shape", [
    ((4, 3, 1, 5), (1, 5)),
    ((4, 3, 1, 5), (3, 1, 1)),
    ((4, 3, 2, 5), (3, 1, 5)),
    ((4, 3, 2, 5), (5,)),
    ((4, 3, 2, 5), (4, 1, 2, 1)),
    ((3, 5), (3, 5)),
])
def test_unbroadcast_matches_reference(rng, grad_shape, shape):
    grad = rng.normal(size=grad_shape)
    got = _unbroadcast(grad, shape)
    assert got.shape == shape
    assert rel_err(got, unbroadcast_loop(grad, shape)) < 1e-12


@pytest.mark.parametrize("dtype, swapped", [
    (np.float32, False), (np.float64, True), (np.float32, True),
], ids=["float32", "swapaxes_view", "float32_swapaxes_view"])
def test_unbroadcast_keeps_dtype_and_reads_views(rng, dtype, swapped):
    """The leading-axis GEMV keeps the gradient's dtype and reads a
    non-contiguous gradient (a swapaxes view)."""
    grad = rng.normal(size=(4, 3, 2, 5)).astype(dtype)
    if swapped:
        grad = np.swapaxes(np.swapaxes(grad, 0, 2).copy(), 0, 2)
        assert not grad.flags.c_contiguous
    shape = (3, 1, 5)                     # one leading and one size-1 axis
    got = _unbroadcast(grad, shape)
    assert got.shape == shape and got.dtype == dtype
    # within the summation error bound: n terms, n * eps * sum(|term|)
    exact = grad.astype(np.float64)
    n = grad.size // got.size
    bound = n * np.finfo(dtype).eps * unbroadcast_loop(np.abs(exact), shape)
    assert np.all(np.abs(got - unbroadcast_loop(exact, shape)) <= bound)


# ------------------------------------------------------------ cross-entropy


def test_cross_entropy_equal_logits():
    tape = Tape()
    loss = tape.cross_entropy(Tensor(np.zeros((1, 3))), np.array([1]))
    assert abs(loss.data - math.log(3)) < 1e-12


def test_cross_entropy_decreases_in_true_logit():
    def loss_at(z):
        return float(Tape().cross_entropy(
            Tensor(np.array([[z, 0.0]])), np.array([0])).data)
    assert loss_at(5.0) < loss_at(2.0) < loss_at(0.0)
    assert loss_at(50.0) < 1e-20


def test_cross_entropy_no_overflow_on_huge_logits():
    tape = Tape()
    loss = tape.cross_entropy(Tensor(np.array([[1000.0, 0.0]])), np.array([0]))
    assert np.isfinite(loss.data)
    assert loss.data < 1e-10


def test_cross_entropy_batch_mean(rng):
    z = rng.normal(size=(4, 3))
    labels = np.array([0, 2, 1, 1])
    batched = Tape().cross_entropy(Tensor(z), labels).data
    singles = [Tape().cross_entropy(Tensor(z[i:i + 1]), labels[i:i + 1]).data
               for i in range(4)]
    assert abs(batched - np.mean(singles)) < 1e-12


def test_cross_entropy_gradient(rng):
    z = rng.normal(size=(3, 4))
    labels = np.array([1, 3, 0])
    zt = Tensor(z.copy())
    tape = Tape()
    tape.backward(tape.cross_entropy(zt, labels))
    numeric = central_diff_grad(
        lambda x: float(Tape().cross_entropy(Tensor(x), labels).data), z)
    assert rel_err(zt.grad, numeric, floor=1e-6) < 1e-6


@pytest.mark.parametrize("label", [3, -1])
def test_cross_entropy_rejects_out_of_range_label(label):
    logits = Tensor(np.zeros((2, 3)))
    with pytest.raises(DataError, match="labels"):
        Tape().cross_entropy(logits, np.array([0, label]))


# ------------------------------------------------------------------- AdamW


def test_adamw_zero_grad_no_decay_keeps_params():
    params = {"w": np.array([1.0, -2.0, 3.0])}
    opt = AdamW(params, OptimizerConfig(weight_decay=0.0))
    opt.step({"w": np.zeros(3)})
    np.testing.assert_array_equal(params["w"], [1.0, -2.0, 3.0])


def test_adamw_first_step_is_signed_lr():
    lr = 1e-3
    params = {"w": np.array([0.5, -0.5])}
    before = params["w"].copy()
    opt = AdamW(params, OptimizerConfig(lr=lr, weight_decay=0.0))
    opt.step({"w": np.array([0.3, -0.7])})
    # bias-corrected m/sqrt(v) is exactly sign(g) at step one (up to eps)
    np.testing.assert_allclose(before - params["w"],
                               [lr, -lr], rtol=1e-4)


def test_adamw_converges_on_quadratic():
    params = {"theta": np.array([0.0])}
    opt = AdamW(params, OptimizerConfig(lr=5e-2, weight_decay=0.0))
    for _ in range(200):
        grad = 2.0 * (params["theta"] - 3.0)
        opt.step({"theta": grad})
    assert abs(params["theta"][0] - 3.0) < 0.1


def test_adamw_weight_decay_shrinks_params():
    params = {"w": np.array([100.0])}
    opt = AdamW(params, OptimizerConfig(lr=1e-3, weight_decay=1.0))
    opt.step({"w": np.zeros(1)})
    assert params["w"][0] < 100.0


TOY = ModelConfig(channels=4, bands=2, frames=6, classes=2, seed=42,
                  spectral_layers=1, spatial_layers=1,
                  spectral_heads=2, spatial_heads=2, mlp_ratio=4)


def adamw_reference(params, grads, m, v, t, cfg):
    """The per-parameter AdamW loop the flat optimizer replaced: updates
    params, m and v (dicts of arrays) in place for step t."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    for name, theta in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(theta)
        m[name] *= b1
        m[name] += (1 - b1) * g
        v[name] *= b2
        v[name] += (1 - b2) * g * g
        m_hat = m[name] / (1 - b1 ** t)
        v_hat = v[name] / (1 - b2 ** t)
        theta -= cfg.lr * (m_hat / (np.sqrt(v_hat) + eps)
                           + cfg.weight_decay * theta)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adamw_matches_per_parameter_reference_bitwise(dtype, rng):
    cfg = OptimizerConfig(lr=1e-2, weight_decay=1e-3)
    params = {k: p.astype(dtype) for k, p in init_params(TOY).items()}
    expected = {k: p.copy() for k, p in params.items()}
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    opt = AdamW(params, cfg)
    missing = sorted(params)[5]               # as for an ablated block
    for t in range(1, 6):
        grads = {k: rng.normal(size=p.shape).astype(dtype)
                 for k, p in params.items() if k != missing}
        opt.step(grads)
        adamw_reference(expected, grads, m, v, t, cfg)
        for k in params:
            assert params[k].dtype == dtype
            assert params[k].tobytes() == expected[k].tobytes(), (t, k)


def test_adamw_params_are_views_of_theta():
    params = init_params(TOY)
    opt = AdamW(params, OptimizerConfig())
    assert opt.theta.size == sum(p.size for p in params.values())
    for p in params.values():
        assert np.shares_memory(p, opt.theta)


def test_adamw_step_allocates_nothing_parameter_sized(rng):
    params = init_params(ModelConfig(channels=16, bands=4, frames=6,
                                     classes=3, seed=0))
    opt = AdamW(params, OptimizerConfig())
    grads = {k: rng.normal(size=p.shape).astype(p.dtype)
             for k, p in params.items()}
    opt.step(grads)                           # warm-up
    tracemalloc.start()
    try:
        opt.step(grads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < opt.theta.nbytes / 2, (peak, opt.theta.nbytes)


def test_adamw_non_finite_update_names_the_parameter():
    params = {"a": np.zeros(3), "b": np.zeros((2, 2)), "c": np.zeros(4)}
    opt = AdamW(params, OptimizerConfig())
    with pytest.raises(NumericalError, match="'b'"):
        opt.step({"a": np.ones(3), "b": np.array([[1.0, np.nan], [0, 0]]),
                  "c": np.ones(4)})



@pytest.mark.skipif(not engine._pin_malloc_thresholds(), reason="not glibc")
def test_freed_temporaries_are_reused_not_faulted_in_again():
    """Rounds of 80 MB of 8 MB arrays, each freed before the next: with the
    thresholds pinned, only the first round faults pages in (glibc's default
    thresholds trim the heap after each round and refault over 15 thousand
    pages in the next three)."""
    import resource

    def one_round():
        arrays = [np.ones(1 << 20) for _ in range(10)]
        del arrays

    one_round()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        one_round()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000
