"""Autodiff op set: every backward checked against central finite differences,
plus cross-entropy values and AdamW behavior."""

import math
import tracemalloc

import numpy as np
import pytest

from amdet import engine
from amdet.attribution import grad_cam_channels
from amdet.engine import (AdamW, OptimizerConfig, Tape, Tensor, _row_max,
                          _row_sum, _unbroadcast)
from amdet.errors import DataError, NumericalError
from amdet.model import ModelConfig, forward, init_params, wrap_params

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
    # add hands g to a and a copy of g to b; a also feeds the earlier mul,
    # whose gradient is added into a's later in the reverse pass
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


# ------------------------------------------------------------- in place

INPLACE_OPS = {
    "add": lambda tape, h, b, inplace: tape.add(h, b, inplace=inplace),
    "scale": lambda tape, h, b, inplace: tape.scale(h, 0.3, inplace=inplace),
    "relu": lambda tape, h, b, inplace: tape.relu(h, inplace=inplace),
    "softmax": lambda tape, h, b, inplace: tape.softmax(h, inplace=inplace),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op", sorted(INPLACE_OPS))
def test_inplace_op_matches_out_of_place_bitwise(rng, op, dtype):
    """With inplace=True the op writes its result into its input's array
    (a shared-weight product); the output and every leaf gradient have the
    out-of-place op's bits. add broadcasts a bias."""
    arrays = [rng.normal(size=shape).astype(dtype)
              for shape in ((2, 5, 3), (3, 7), (7,), (2, 5, 7))]

    def step(inplace):
        x, w, b, r = (Tensor(a.copy(), name=n) for a, n in zip(arrays, "xwbr"))
        tape = Tape()
        h = tape.matmul(x, w)
        out = INPLACE_OPS[op](tape, h, b, inplace)
        assert np.shares_memory(out.data, h.data) == inplace
        tape.backward(tape.sum_all(tape.mul(out, r)))
        return [out.data] + [t.grad for t in (x, w, b, r)]

    for got, want in zip(step(True), step(False)):
        if want is None:
            assert got is None
        else:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


KEPT_OUTPUTS = {"reshape": lambda tape, h: tape.reshape(h, (6, 4)),
                "transpose": lambda tape, h: tape.transpose(h),
                "slice_last": lambda tape, h: tape.slice_last(h, 1, 3),
                "relu": lambda tape, h: tape.relu(h),
                "softmax": lambda tape, h: tape.softmax(h)}


@pytest.mark.parametrize("case", ["leaf", "first_op", "not_last",
                                  *KEPT_OUTPUTS, "wider_add", "float64_add"])
def test_inplace_refusal_leaves_the_input_untouched(rng, case):
    """In place is refused, before anything is written or recorded, on a
    leaf, on a tensor another op was recorded after, on the output of a
    view (which shares its input's array) or of relu or softmax (whose
    backward reads it), and where the result would change shape or dtype. Each
    structural case is tried with all four ops."""
    x = Tensor(rng.normal(size=(2, 3, 4)).astype(np.float32), name="x")
    w = Tensor(rng.normal(size=(4, 4)).astype(np.float32), name="w")
    tape = Tape()
    target = tape.matmul(x, w)
    if case == "leaf":
        target = x
    elif case == "first_op":
        target, tape = x, Tape()
    elif case == "not_last":
        tape.relu(x)
    elif case in KEPT_OUTPUTS:
        target = KEPT_OUTPUTS[case](tape, target)
    bias = {"wider_add": np.ones((3, 2, 3, 4), np.float32),
            "float64_add": np.ones(4)}.get(case, np.ones(4, np.float32))
    before, nodes = target.data.tobytes(), len(tape.nodes)
    for op in ["add"] if case.endswith("_add") else sorted(INPLACE_OPS):
        with pytest.raises(ValueError, match="in-place op"):
            INPLACE_OPS[op](tape, target, Tensor(bias), True)
        assert target.data.tobytes() == before and len(tape.nodes) == nodes


# ------------------------------------------------------ gradient ownership

OWNERSHIP_CASES = {
    "add": (lambda t, x, y: t.add(x, y), [(2, 3, 4), (2, 3, 4)]),
    "add_bias": (lambda t, x, b: t.add(x, b), [(2, 3, 4), (4,)]),
    "add_self": (lambda t, x: t.add(x, x), [(2, 3, 4)]),
    "mul": (lambda t, x, y: t.mul(x, y), [(2, 3, 4), (2, 3, 4)]),
    "matmul": (lambda t, x, w: t.matmul(x, w), [(2, 3, 4), (4, 5)]),
    "layer_norm": (lambda t, x, g, b: t.layer_norm(x, g, b),
                   [(2, 3, 4), (4,), (4,)]),
    "layer_norm_full_bias": (lambda t, x, g, b: t.layer_norm(x, g, b),
                             [(2, 3, 4), (4,), (2, 3, 4)]),
    "concat_self": (lambda t, x: t.concat_last([x, x]), [(2, 3, 4)]),
}


@pytest.mark.parametrize("case", sorted(OWNERSHIP_CASES))
def test_no_two_returned_gradients_share_memory(rng, case):
    """Each backward owns the g it receives and may write into it, so no op
    hands one array to two inputs (add gives its second input a copy of g)
    and none returns a forward array."""
    build, shapes = OWNERSHIP_CASES[case]
    tape = Tape()
    out = build(tape, *(Tensor(rng.normal(size=s)) for s in shapes))
    node = tape.nodes[-1]
    grads = node.backward(rng.normal(size=out.shape))
    assert len(grads) == len(node.inputs)
    assert all(gi is not None for gi in grads)
    forward_arrays = [out.data, *(t.data for t in node.inputs)]
    for i, gi in enumerate(grads):
        for other in [*grads[i + 1:], *forward_arrays]:
            assert not np.shares_memory(gi, other), (case, i)


def test_backward_leaves_every_forward_array_unchanged(rng, monkeypatch):
    """Backward writes only into gradients: one C=16 training step and one
    Grad-CAM pass leave every node's output and every leaf byte-identical,
    so the non-finite replay reruns on the values the first pass read."""
    passes = []
    differentiate = Tape.backward

    def backward(tape, loss):
        arrays = [a for node in tape.nodes
                  for a in (node.out.data, *(t.data for t in node.inputs))]
        before = [a.tobytes() for a in arrays]
        differentiate(tape, loss)
        assert [a.tobytes() for a in arrays] == before
        passes.append(len(tape.nodes))

    monkeypatch.setattr(Tape, "backward", backward)
    cfg = ModelConfig(channels=16, bands=4, frames=6, classes=3, seed=1)
    params = init_params(cfg)
    x = rng.normal(size=(16, 6, 8, 16)).astype(np.float32)
    y = np.arange(16) % 3
    tape = Tape()
    logits, _ = forward(tape, wrap_params(params), cfg, x)
    tape.backward(tape.cross_entropy(logits, y))
    grad_cam_channels(params, cfg, x, y)
    assert len(passes) == 2 and passes[0] == 82


def layer_norm_backward(a, gain, bias, g, eps=1e-12):
    """Reference: the out-of-place layer norm backward."""
    n = a.shape[-1]
    centered = a - _row_sum(a) / n
    inv = 1.0 / np.sqrt(_row_sum(centered, centered) / n + eps)
    xhat = centered * inv
    gx_hat = g * gain
    ga = inv * (gx_hat - _row_sum(gx_hat) / n
                - xhat * (_row_sum(gx_hat, xhat) / n))
    return (ga, _unbroadcast(g * xhat, gain.shape),
            _unbroadcast(g, bias.shape))


# op -> (build, out-of-place reference backward(*inputs, out, g), shapes)
OUT_OF_PLACE = {
    "relu": (lambda t, a: t.relu(a),
             lambda a, y, g: (g * (y > 0),), [(3, 5)]),
    "softmax": (lambda t, a: t.softmax(a),
                lambda a, p, g: (p * (g - _row_sum(g, p)),), [(3, 5)]),
    "scale": (lambda t, a: t.scale(a, 0.3),
              lambda a, out, g: (g * 0.3,), [(3, 5)]),
    "layer_norm": (lambda t, a, gain, bias: t.layer_norm(a, gain, bias),
                   lambda a, gain, bias, out, g: layer_norm_backward(
                       a, gain, bias, g), [(2, 3, 5), (5,), (5,)]),
    "layer_norm_full_bias": (
        lambda t, a, gain, bias: t.layer_norm(a, gain, bias),
        lambda a, gain, bias, out, g: layer_norm_backward(a, gain, bias, g),
        [(2, 3, 5), (5,), (2, 3, 5)]),
}
DTYPE_PAIRS = [(np.float32, np.float32), (np.float64, np.float64),
               (np.float32, np.float64)]
DTYPE_IDS = ["f32", "f64", "f64_grad_to_f32"]


@pytest.mark.parametrize("forward_dtype, grad_dtype", DTYPE_PAIRS,
                         ids=DTYPE_IDS)
@pytest.mark.parametrize("op", sorted(OUT_OF_PLACE))
def test_backward_written_into_g_has_the_out_of_place_bits(
        rng, op, forward_dtype, grad_dtype):
    """relu, softmax, scale and layer norm write their input's gradient
    into g (not into g that layer norm also hands to its bias), with the
    out-of-place formula's dtype and bytes."""
    build, reference, shapes = OUT_OF_PLACE[op]
    arrays = [rng.normal(size=s).astype(forward_dtype) for s in shapes]
    tape = Tape()
    out = build(tape, *(Tensor(a) for a in arrays))
    g = rng.normal(size=out.shape).astype(grad_dtype)
    want = reference(*arrays, out.data, g.copy())
    got = tape.nodes[-1].backward(g)
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert np.shares_memory(got[0], g) == (op != "layer_norm_full_bias")


@pytest.mark.parametrize("forward_dtype, grad_dtype", DTYPE_PAIRS,
                         ids=DTYPE_IDS)
@pytest.mark.parametrize("product_first", [True, False])
def test_accumulation_has_the_out_of_place_sum_bits(
        rng, forward_dtype, grad_dtype, product_first):
    """A leaf's later gradients are added into its first one, with the bits
    of the out-of-place sum. x feeds a product with r, whose gradient has
    r's dtype, and a slice, whose gradient has x's; where the first of
    them is float32 and the second float64 the sum is taken out of place."""
    x0 = rng.normal(size=(2, 3, 4)).astype(forward_dtype)
    r = Tensor(rng.normal(size=(2, 3, 4)).astype(grad_dtype))

    def build(t, x_product, x_slice):
        uses = [lambda: t.sum_all(t.mul(x_product, r)),
                lambda: t.sum_all(t.slice_last(x_slice, 1, 3))]
        first, second = uses if product_first else uses[::-1]
        return t.add(first(), second())

    x = Tensor(x0.copy())
    tape = Tape()
    tape.backward(build(tape, x, x))
    copies = Tensor(x0.copy()), Tensor(x0.copy())
    tape = Tape()
    tape.backward(build(tape, *copies))
    # the reverse pass reaches the use recorded second first
    earlier, later = copies if product_first else copies[::-1]
    want = later.grad + earlier.grad
    assert x.grad.dtype == want.dtype and x.grad.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("op", ["relu", "softmax"])
def test_nonfinite_replay_names_the_op_below_a_relu_or_softmax(rng, op):
    """relu and softmax write their input's gradient into g; the replay
    still names the op below them whose gradient overflows first: the
    forward x * big is finite, its gradient for x (about 1e10 x big) is
    not."""
    x = Tensor(np.full((2, 3), 1e-300), name="x")
    big = Tensor(np.full((2, 3), 1e300), name="big")
    r = Tensor(rng.uniform(1.0, 2.0, size=(2, 3)) * 1e10, name="r")
    tape = Tape()
    h = tape.mul(x, big)
    y = tape.relu(h) if op == "relu" else tape.softmax(h)
    with pytest.raises(NumericalError, match="op 'mul' for input 'x'"):
        tape.backward(tape.sum_all(tape.mul(y, r)))


def test_backward_memory_beyond_forward_retention_at_c62():
    """One SEED-shaped training step (C=62, batch 16, MLP width 1984): what
    the forward pass holds stays under 32 MB, and what backward allocates
    beyond it under 13 MB. Keeping every intermediate gradient alive took
    46.7 MB of backward; freeing each once its node has used it, 16.1 MB.
    The forward held 67.8 MB while every bias add, ReLU, score scale and
    softmax kept its own copy; written in place, 28.9 MB. With each ReLU's
    backward reading its output rather than a mask the forward kept, the
    forward holds 25.1 MB and backward took 18.0 MB. With each backward
    writing into the gradient it receives (ReLU, softmax, scale, layer
    norm) and each later gradient added into a tensor's first, backward
    takes 10.4 MB."""
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
    assert held < 32e6, (held, peak)
    assert peak - held < 13e6, (held, peak)


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
    flattening has to copy) as well. The closure hands back both gradients
    as arrays."""
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
    assert type(ga) is np.ndarray and type(gb) is np.ndarray
    ref_ga, ref_gb = matmul_backward_batched(a.data, b.data, g)
    assert ga.shape == a_shape and gb.shape == (4, 6)
    assert rel_err(ga, ref_ga) < 1e-12
    assert rel_err(gb, ref_gb) < 1e-12


# ------------------------------------- weight gradients that accumulate


def leaf_grads(build, leaves):
    """Gradients of sum_all(build(tape, *leaves)) for every leaf."""
    tape = Tape()
    tape.backward(tape.sum_all(build(tape, *leaves)))
    assert all(node.out.grad is None for node in tape.nodes)
    return [t.grad for t in leaves]


# each graph takes its inputs, then its weight once per use
def two_products(t, x1, x2, w1, w2):
    return t.add(t.matmul(x1, w1), t.matmul(x2, w2))


def product_then_add(t, x, w1, w2):       # weight product first, then add
    return t.matmul(t.add(x, w1), w2)


def add_product_add(t, x, w1, w2, w3):    # plain, weight product, plain
    return t.add(t.matmul(t.add(x, w1), w2), w3)


def produced_weight(t, x, w1, w2):        # the transpose's output is 2-D
    return t.relu(t.matmul(t.matmul(x, t.transpose(t.scale(w1, 0.5))), w2))


@pytest.mark.parametrize("build, shapes, uses", [
    (two_products, [(2, 3, 4), (1, 3, 4), (4, 4)], 2),
    (product_then_add, [(2, 4, 4), (4, 4)], 2),
    (add_product_add, [(2, 4, 4), (4, 4)], 3),
    (produced_weight, [(2, 3, 4), (4, 4)], 2),
], ids=["shared_by_two_matmuls", "pending_then_add", "add_pending_add",
        "produced_by_an_op"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pending_weight_gradients_match_serial_bitwise(rng, build, shapes,
                                                       uses, dtype):
    """A weight's gradient is the sum of its uses' gradients, added in the
    reverse pass's order (last use first), bit for bit: a weight shared by
    two matmuls, a weight that also feeds an add (both orders), and a weight
    an op produced. The reference gives each use its own copy."""
    *xs, w = [rng.normal(size=s).astype(dtype) for s in shapes]
    shared = Tensor(w, name="w")
    got = leaf_grads(build, [Tensor(x) for x in xs] + [shared] * uses)
    copies = leaf_grads(build, [Tensor(x) for x in xs]
                        + [Tensor(w.copy()) for _ in range(uses)])
    want = copies[-1]
    for g in reversed(copies[len(xs):-1]):
        want = want + g
    for a, b in zip(got[:len(xs)] + [shared.grad], copies[:len(xs)] + [want]):
        assert type(a) is np.ndarray and a.dtype == dtype
        np.testing.assert_array_equal(a, b)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nonfinite_weight_product_is_named_by_the_replay(rng):
    """An inf in the weight product is reported as the matmul's gradient
    for the weight."""
    x = rng.normal(size=(2, 3, 4))
    x[1, 2, 3] = np.inf          # every output in its row is +inf
    w = np.abs(rng.normal(size=(4, 5))) + 0.1
    xt, wt, tape = Tensor(x, name="x"), Tensor(w, name="w"), Tape()
    with pytest.raises(NumericalError, match="op 'matmul' for input 'w'"):
        tape.backward(tape.sum_all(tape.matmul(xt, wt)))


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


@pytest.mark.parametrize("labels", [np.array([0.0, 1.0]),
                                    np.array([[0], [1]])])
def test_cross_entropy_rejects_float_or_2d_labels(labels):
    logits = Tensor(np.zeros((2, 3)))
    with pytest.raises(DataError, match="cross_entropy: labels"):
        Tape().cross_entropy(logits, labels)


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
