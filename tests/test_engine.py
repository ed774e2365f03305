"""Autodiff op set: every backward checked against central finite differences,
plus cross-entropy values and AdamW behavior."""

import math

import numpy as np
import pytest

from amdet.engine import (AdamW, OptimizerConfig, Tape, Tensor, _row_max,
                          _unbroadcast)
from amdet.errors import DataError, NumericalError

from conftest import central_diff_grad, rel_err


def check_op(build, *input_arrays, tol=1e-6):
    """build(tape, *tensors) -> output tensor; compares analytic vs numeric
    gradients of sum(output^2)/2 for every input."""
    tensors = [Tensor(a.copy(), name=f"in{i}") for i, a in enumerate(input_arrays)]
    tape = Tape()
    out = build(tape, *tensors)
    loss = tape.scale(tape.sum_all(tape.mul(out, out)), 0.5)
    tape.backward(loss)

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


def test_finite_backward_runs_each_closure_once(rng):
    x = Tensor(rng.normal(size=(2, 3, 4)))
    w = Tensor(rng.normal(size=(4, 4)))
    tape = Tape()
    h = tape.relu(tape.matmul(x, w))
    loss = tape.sum_all(tape.softmax(tape.add(h, x)))
    calls = [0] * len(tape.nodes)
    for i, node in enumerate(tape.nodes):
        def counted(g, i=i, fn=node.backward):
            calls[i] += 1
            return fn(g)
        node.backward = counted
    tape.backward(loss)
    assert calls == [1] * len(tape.nodes)


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
    flattening has to copy) as well."""
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
    ref_ga, ref_gb = matmul_backward_batched(a.data, b.data, g)
    assert ga.shape == a_shape and gb.shape == (4, 6)
    assert rel_err(ga, ref_ga) < 1e-12
    assert rel_err(gb, ref_gb) < 1e-12


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
    opt.step(params, {"w": np.zeros(3)})
    np.testing.assert_array_equal(params["w"], [1.0, -2.0, 3.0])


def test_adamw_first_step_is_signed_lr():
    lr = 1e-3
    params = {"w": np.array([0.5, -0.5])}
    before = params["w"].copy()
    opt = AdamW(params, OptimizerConfig(lr=lr, weight_decay=0.0))
    opt.step(params, {"w": np.array([0.3, -0.7])})
    # bias-corrected m/sqrt(v) is exactly sign(g) at step one (up to eps)
    np.testing.assert_allclose(before - params["w"],
                               [lr, -lr], rtol=1e-4)


def test_adamw_converges_on_quadratic():
    params = {"theta": np.array([0.0])}
    opt = AdamW(params, OptimizerConfig(lr=5e-2, weight_decay=0.0))
    for _ in range(200):
        grad = 2.0 * (params["theta"] - 3.0)
        opt.step(params, {"theta": grad})
    assert abs(params["theta"][0] - 3.0) < 0.1


def test_adamw_weight_decay_shrinks_params():
    params = {"w": np.array([100.0])}
    opt = AdamW(params, OptimizerConfig(lr=1e-3, weight_decay=1.0))
    opt.step(params, {"w": np.zeros(1)})
    assert params["w"][0] < 100.0

