"""Minimal reverse-mode autodiff engine and the AdamW update step.

The op set is exactly what the attention model needs: matmul, add, elementwise
multiply, scale, transpose, reshape, slice/concat on the feature axis, ReLU,
row softmax, row layer norm, sum, and a fused softmax cross-entropy. All ops
work on arrays of arbitrary leading (batch) shape; the semantic axes are the
trailing one or two. Gradients flow through numpy broadcasting by summing the
upstream gradient back down to each input's shape. A product of a stacked
activation (more than 2 dims) with a shared 2-D weight is one 2-D GEMM over
the flattened rows, forward and for both gradients, rather than one GEMM per
leading index. A sample's float32 result may then differ in the last bits
with its row position in the batch; a given batch still computes bitwise the
same on every run, at any BLAS thread count: the weight gradient's GEMM
sums over the rows padded with zeros to a multiple of ``ROW_BLOCK``, and
every sum of a gradient over its rows into one vector (a one-column weight,
a bias, a broadcast position table) is an ``einsum``, not a BLAS GEMV.

Reductions over short rows are single-pass contractions, because numpy's
``ufunc.reduce`` pays a fixed cost per row: softmax and layer norm take their
row sums and row dots with ``einsum`` and the softmax shift with an exact
pairwise ``np.maximum``, and the leading axes of a broadcast gradient are
summed by one ``einsum`` too. Their float32 summation order is not numpy's pairwise
one, so float32 loss curves differ in the last bits from those of the
per-row reductions.

A ``Tape`` records ops in execution order (which is already a topological
order), and ``Tape.backward`` replays it in reverse. Only leaves keep their
gradients: a produced tensor's gradient is freed as soon as the node that
produced it has used it. A tensor needs a gradient if it is a leaf created
with ``needs_grad=True`` (the default) or if any input of the op that
produced it needs one; a tensor that needs none gets none, and no op computes
a gradient for such an input (attribution differentiates with respect to the
input alone, so its parameters are wrapped with ``needs_grad=False``). A tape
is built for one forward pass, differentiated at most once, and discarded.

Gradients are never written in place. The first gradient reaching a tensor is
stored as returned (it may be a view of, or the same array as, another
tensor's gradient: ``add`` hands ``g`` to both inputs), and later ones are
added out of place. Finiteness is checked once per backward, on the leaves
(tensors no node produced: parameters, inputs, constants), since a NaN or inf
made anywhere flows into some leaf's gradient. Only if that check fails is the
reverse pass replayed with a check after every op, to name the op and input
that produced the first non-finite gradient.

Forward values, unlike gradients, are written in place where a caller asks:
``add``, ``scale``, ``relu`` and ``softmax`` take ``inplace=True`` to write
their result into their first input's array, which no backward of theirs reads
(``add`` and ``scale`` read shapes, ``relu`` and ``softmax`` their own
outputs), so the tape holds one array where it held two. The op raises
``ValueError`` before it writes unless that input is the output of the node
recorded last, that node is neither a view (``reshape``, ``transpose``,
``slice_last``, which share their input's array) nor a ``relu`` or
``softmax`` (whose backward reads its output), and the result keeps the
input's shape and dtype.
So a leaf (a parameter, an input) is never overwritten, nor a tensor that
another recorded op reads; the caller must not read the overwritten tensor
afterwards.

Importing the engine pins glibc's malloc thresholds (see
`_pin_malloc_thresholds`), so that the temporaries of every pass are served
from a heap the process keeps rather than from fresh pages.
"""

from __future__ import annotations

import ctypes
import math
import numbers
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalError, check_labels, check_numbers

Array = np.ndarray

# glibc mallopt parameters
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20       # glibc's largest on 64-bit
TRIM_THRESHOLD = 256 << 20
# a GEMM that sums over a multiple of this many rows gives the same bits at
# any thread count (measured with OpenBLAS 0.3.31); other counts did not
ROW_BLOCK = 32
# ops whose output an in-place op may not overwrite: a view shares its
# input's array, and relu's and softmax's backwards read their own outputs
_KEEPS_OUTPUT = frozenset({"reshape", "transpose", "slice_last", "relu",
                           "softmax"})


def _pin_malloc_thresholds() -> bool:
    """Fix glibc's mmap and trim thresholds; True if both were set.

    By default glibc raises both thresholds as it frees large blocks, so
    where a process ends up depends on the order of its earlier allocations.
    Some processes then hand a pass's temporaries back to the kernel and
    fault them in again on every pass. On a 2-vCPU Xeon VM that made the
    benchmark's explain-c32 operation (Grad-CAM over 400 samples) 1.5-2.5x
    slower in about one run in four, with 0.5-1.3 million minor faults per
    run instead of 25-65 thousand; which runs were hit changed with nothing
    but the length of the checkout's path. With both thresholds fixed,
    blocks below 32 MB come from the heap, and the heap is given back only
    when 256 MB of it lie free at its top.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):   # not glibc
        return False
    # setting either one turns off glibc's adjustment of both
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD))


_pin_malloc_thresholds()


class Tensor:
    """A value recorded on a tape. Holds the forward array and, after
    ``Tape.backward`` and if it is a leaf with ``needs_grad``, the gradient of
    the differentiated scalar w.r.t. it.

    A floating array keeps its dtype, so ops compute in the dtype of their
    inputs; anything else (Python numbers, integers) becomes float64."""

    __slots__ = ("data", "grad", "name", "needs_grad")

    def __init__(self, data, name: str = "tensor", needs_grad: bool = True):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.grad: Array | None = None
        self.name = name
        self.needs_grad = needs_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(name={self.name!r}, shape={self.data.shape})"


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    lead = grad.ndim - len(shape)
    if lead:
        rows, tail = math.prod(grad.shape[:lead]), grad.shape[lead:]
        grad = np.einsum("ri->i", grad.reshape(rows, -1)).reshape(tail)
    axes = tuple(ax for ax, n in enumerate(shape)
                 if n == 1 and grad.shape[ax] != 1)
    return grad.sum(axis=axes, keepdims=True) if axes else grad


def _sum_over_rows(a: Array, b: Array) -> Array:
    """``a.T @ b`` for 2-D ``a`` and ``b`` with the same rows, with bits that
    do not depend on the BLAS thread count.

    OpenBLAS splits a GEMM's summed dimension between threads, at points
    that move with the thread count unless the rows are a multiple of
    ``ROW_BLOCK``, so the rows are padded with zeros to one; zero rows add
    nothing to the sum. With one column numpy would run a GEMV, whose bits
    move with the thread count at any padding once the rows pass about a
    thousand (the temporal score at batch 167 and up), so that product is an
    ``einsum``, which runs on no BLAS thread."""
    if b.shape[1] == 1:
        return np.einsum("ri,r->i", a, b[:, 0])[:, None]
    extra = -a.shape[0] % ROW_BLOCK
    if extra:
        a, b = (np.pad(x, ((0, extra), (0, 0))) for x in (a, b))
    return a.T @ b


def _row_sum(a: Array, b: Array | None = None) -> Array:
    """Sum over the last axis of ``a`` (of ``a * b`` if ``b`` is given) as
    one contraction, keeping that axis with length 1. ``ufunc.reduce`` pays a
    fixed cost per row, which dominates on the model's rows of 8-62."""
    s = np.einsum("...i->...", a) if b is None else \
        np.einsum("...i,...i->...", a, b)
    return s[..., None]


def _row_max(a: Array) -> Array:
    """``a.max(axis=-1, keepdims=True)``, bitwise, by halving the rows with
    ``np.maximum``; an odd width folds its last column into column 0."""
    while a.shape[-1] > 1:
        half = a.shape[-1] // 2
        m = np.maximum(a[..., :half], a[..., half:2 * half])
        if a.shape[-1] % 2:
            np.maximum(m[..., :1], a[..., -1:], out=m[..., :1])
        a = m
    return a


def _name(op: str, *parents: "Tensor") -> str:
    # capped so composed names stay cheap on deep graphs
    label = f"{op}({','.join(p.name for p in parents)})"
    return label if len(label) <= 64 else label[:61] + "..."


@dataclass
class _Node:
    op: str
    out: Tensor
    inputs: tuple[Tensor, ...]
    backward: Callable


class Tape:
    """Execution-ordered record of ops; differentiable once, in reverse."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def _record(self, op, out, inputs, backward) -> Tensor:
        out.needs_grad = any(t.needs_grad for t in inputs)
        self.nodes.append(_Node(op, out, inputs, backward))
        return out

    def _target(self, a: Tensor, inplace: bool, *others) -> Array | None:
        """The array an op on ``a`` (and ``others``) writes its result into:
        ``a.data`` if ``inplace``, else None for a fresh one.

        Refuses, with ``ValueError`` and before anything is written, unless
        ``a`` is the output of the node recorded last, that node is not in
        ``_KEEPS_OUTPUT``, and the result has ``a``'s shape and dtype. So no
        recorded op but ``a``'s producer has read ``a``, and that producer's
        backward does not read it; leaves (parameters, inputs) are never
        overwritten."""
        if not inplace:
            return None
        last = self.nodes[-1] if self.nodes else None
        if last is None or last.out is not a:
            raise ValueError(f"in-place op on '{a.name}', which is not the "
                             f"output of the last op recorded")
        if last.op in _KEEPS_OUTPUT:
            raise ValueError(f"in-place op on the output of '{last.op}'")
        shape = np.broadcast_shapes(a.shape, *(np.shape(o) for o in others))
        dtype = np.result_type(a.data, *others)
        if shape != a.shape or dtype != a.data.dtype:
            raise ValueError(f"in-place op on '{a.name}' {a.shape} "
                             f"{a.data.dtype} would give {shape} {dtype}")
        return a.data

    # ------------------------------------------------------------------ ops

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        if b.data.ndim == 2 and a.data.ndim > 2:
            # shared weight: one 2-D GEMM over the flattened rows, where a
            # stacked product would run one GEMM per leading index
            k, n = b.data.shape
            rows = a.data.reshape(-1, k)
            out = Tensor((rows @ b.data).reshape(*a.data.shape[:-1], n),
                         _name("matmul", a, b))

            def backward(g):
                g = g.reshape(-1, n)
                ga = (g @ b.data.T).reshape(a.data.shape) if a.needs_grad \
                    else None
                return ga, _sum_over_rows(rows, g) if b.needs_grad else None
        else:
            out = Tensor(a.data @ b.data, _name("matmul", a, b))

            def backward(g):
                ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2),
                                  a.data.shape) if a.needs_grad else None
                gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g,
                                  b.data.shape) if b.needs_grad else None
                return ga, gb

        return self._record("matmul", out, (a, b), backward)

    def add(self, a: Tensor, b: Tensor, inplace: bool = False) -> Tensor:
        out = Tensor(np.add(a.data, b.data,
                            out=self._target(a, inplace, b.data)),
                     _name("add", a, b))

        def backward(g):
            return (_unbroadcast(g, a.data.shape) if a.needs_grad else None,
                    _unbroadcast(g, b.data.shape) if b.needs_grad else None)

        return self._record("add", out, (a, b), backward)

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        out = Tensor(a.data * b.data, _name("mul", a, b))

        def backward(g):
            ga = _unbroadcast(g * b.data, a.data.shape) if a.needs_grad \
                else None
            gb = _unbroadcast(g * a.data, b.data.shape) if b.needs_grad \
                else None
            return ga, gb

        return self._record("mul", out, (a, b), backward)

    def scale(self, a: Tensor, c: float, inplace: bool = False) -> Tensor:
        out = Tensor(np.multiply(a.data, c, out=self._target(a, inplace, c)),
                     _name("scale", a))

        def backward(g):
            return (g * c,)

        return self._record("scale", out, (a,), backward)

    def transpose(self, a: Tensor) -> Tensor:
        """Swap the last two axes."""
        out = Tensor(np.swapaxes(a.data, -1, -2), _name("transpose", a))

        def backward(g):
            return (np.swapaxes(g, -1, -2),)

        return self._record("transpose", out, (a,), backward)

    def reshape(self, a: Tensor, shape: tuple[int, ...]) -> Tensor:
        out = Tensor(a.data.reshape(shape), _name("reshape", a))

        def backward(g):
            return (g.reshape(a.data.shape),)

        return self._record("reshape", out, (a,), backward)

    def slice_last(self, a: Tensor, start: int, stop: int) -> Tensor:
        out = Tensor(a.data[..., start:stop], _name("slice", a))

        def backward(g):
            ga = np.zeros_like(a.data)
            ga[..., start:stop] = g
            return (ga,)

        return self._record("slice_last", out, (a,), backward)

    def concat_last(self, parts: list[Tensor]) -> Tensor:
        out = Tensor(np.concatenate([p.data for p in parts], axis=-1), "concat")
        widths = [p.data.shape[-1] for p in parts]

        def backward(g):
            grads, pos = [], 0
            for p, w in zip(parts, widths):
                grads.append(g[..., pos:pos + w] if p.needs_grad else None)
                pos += w
            return tuple(grads)

        return self._record("concat_last", out, tuple(parts), backward)

    def relu(self, a: Tensor, inplace: bool = False) -> Tensor:
        y = np.maximum(a.data, 0.0, out=self._target(a, inplace))
        out = Tensor(y, _name("relu", a))

        def backward(g):
            # y > 0 exactly where a > 0, NaN included
            return (g * (y > 0),)

        return self._record("relu", out, (a,), backward)

    def softmax(self, a: Tensor, inplace: bool = False) -> Tensor:
        """Softmax over the last axis."""
        p = np.subtract(a.data, _row_max(a.data),
                        out=self._target(a, inplace))
        np.exp(p, out=p)
        p /= _row_sum(p)
        out = Tensor(p, _name("softmax", a))

        def backward(g):
            return (p * (g - _row_sum(g, p)),)

        return self._record("softmax", out, (a,), backward)

    def layer_norm(self, a: Tensor, gain: Tensor, bias: Tensor,
                   eps: float = 1e-12) -> Tensor:
        """Normalize each vector along the last axis, then apply gain/bias.

        eps floors the variance so constant rows map to zero instead of NaN.
        """
        n = a.data.shape[-1]
        centered = a.data - _row_sum(a.data) / n
        inv = 1.0 / np.sqrt(_row_sum(centered, centered) / n + eps)
        xhat = centered * inv
        out = Tensor(xhat * gain.data + bias.data, _name("layer_norm", a))

        def backward(g):
            ga = ggain = gbias = None
            if a.needs_grad:
                gx_hat = g * gain.data
                ga = inv * (gx_hat - _row_sum(gx_hat) / n
                            - xhat * (_row_sum(gx_hat, xhat) / n))
            if gain.needs_grad:
                ggain = _unbroadcast(g * xhat, gain.data.shape)
            if bias.needs_grad:
                gbias = _unbroadcast(g, bias.data.shape)
            return ga, ggain, gbias

        return self._record("layer_norm", out, (a, gain, bias), backward)

    def sum_all(self, a: Tensor) -> Tensor:
        out = Tensor(a.data.sum(), _name("sum", a))

        def backward(g):
            return (np.broadcast_to(g, a.data.shape).copy(),)

        return self._record("sum_all", out, (a,), backward)

    def cross_entropy(self, logits: Tensor, labels: np.ndarray) -> Tensor:
        """Mean softmax cross-entropy over a batch of logit rows.

        Fused forward/backward via log-sum-exp; gradient is (p - onehot)/B.
        """
        z = logits.data
        if z.ndim != 2:
            raise ValueError(f"logits must be 2-D, got shape {z.shape}")
        labels = check_labels("cross_entropy", labels, *z.shape)
        m = z.max(axis=-1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=-1))
        picked = z[np.arange(z.shape[0]), labels]
        out = Tensor((lse - picked).mean(), "cross_entropy")
        p = np.exp(z - lse[:, None])

        def backward(g):
            gz = p.copy()
            gz[np.arange(z.shape[0]), labels] -= 1.0
            gz *= g / z.shape[0]
            return (gz,)

        return self._record("cross_entropy", out, (logits,), backward)

    # ------------------------------------------------------------- backward

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into ``.grad`` of every leaf that needs
        a gradient; produced tensors and leaves with ``needs_grad=False`` end
        with ``.grad`` None.

        Gradients are checked for finiteness once, on the leaves, after the
        pass. If one is not finite, the pass is replayed from cleared
        gradients with a check after every op, and the ``NumericalError``
        names the op and input that first produced a non-finite gradient.
        """
        if loss.data.ndim != 0:
            raise ValueError("backward requires a scalar loss")
        produced = {id(node.out) for node in self.nodes}
        leaves = {id(t): t for node in self.nodes for t in node.inputs
                  if id(t) not in produced}.values()
        self._reverse(loss, check=False)
        bad = next((t for t in leaves if t.grad is not None
                    and not np.all(np.isfinite(t.grad))), None)
        if bad is None:
            return
        for t in leaves:            # produced tensors' gradients are freed
            t.grad = None
        self._reverse(loss, check=True)
        # every op's gradient was finite; their sum on some leaf overflowed
        raise NumericalError(f"non-finite gradient accumulated for '{bad.name}'")

    def _reverse(self, loss: Tensor, check: bool) -> None:
        loss.grad = np.ones_like(loss.data) if loss.needs_grad else None
        for node in reversed(self.nodes):
            # a produced tensor's gradient is freed once its node has used it
            g, node.out.grad = node.out.grad, None
            if g is None:
                continue
            for inp, gi in zip(node.inputs, node.backward(g)):
                if gi is None:
                    continue
                if check and not np.all(np.isfinite(gi)):
                    raise NumericalError(
                        f"non-finite gradient produced by op '{node.op}' "
                        f"for input '{inp.name}'")
                gi = gi.reshape(inp.data.shape)
                # out of place: gi may alias another tensor's gradient
                inp.grad = gi if inp.grad is None else inp.grad + gi

    def matmul_flops(self) -> int:
        """2 * multiply-adds summed over every matmul recorded so far."""
        return sum(2 * node.out.data.size * node.inputs[0].data.shape[-1]
                   for node in self.nodes if node.op == "matmul")


# ------------------------------------------------------------------- adamw

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8       # Kingma & Ba, arXiv:1412.6980


@dataclass
class OptimizerConfig:
    lr: float = 1e-3
    weight_decay: float = 1e-6
    batch_size: int = 16

    def __post_init__(self):
        check_numbers("optimizer", numbers.Real, ">= 0", lr=self.lr,
                      weight_decay=self.weight_decay)
        check_numbers("optimizer", numbers.Integral, ">= 1",
                      batch_size=self.batch_size)


class AdamW:
    """Decoupled weight decay Adam (Loshchilov & Hutter, arXiv:1711.05101) at
    the config's constant learning rate. It owns the parameters as one flat
    buffer ``theta`` and rebinds each ``params[name]`` to a view of it (an
    array taken out of the dict before construction is no longer updated);
    ``m``, ``v``, ``grad`` and two work buffers are allocated here, once."""

    def __init__(self, params: dict[str, Array], config: OptimizerConfig):
        self.config, self.step_count = config, 0
        self.theta = np.concatenate([np.ravel(p) for p in params.values()])
        self.m, self.v, self.grad, self._update, self._tmp = np.zeros(
            (5, self.theta.size), self.theta.dtype)
        cuts = np.cumsum([np.size(p) for p in params.values()])[:-1]

        def views(flat):        # name -> the parameter's part of flat
            return {name: part.reshape(np.shape(params[name]))
                    for name, part in zip(params, np.split(flat, cuts))}
        self._grads, self._updates = views(self.grad), views(self._update)
        params.update(views(self.theta))

    def step(self, grads: dict[str, Array | None]) -> None:
        """Update theta; a gradient that is missing or None counts as zero."""
        for name, view in self._grads.items():
            view[...] = 0 if grads.get(name) is None else grads[name]
        self.step_count += 1
        t, lr, wd = self.step_count, self.config.lr, self.config.weight_decay
        m, v, g, u, s = self.m, self.v, self.grad, self._update, self._tmp
        # lr * (m_hat / (sqrt(v_hat) + eps) + wd * theta), one op at a time
        m *= BETA1
        m += np.multiply(g, 1 - BETA1, out=s)
        v *= BETA2
        v += np.multiply(np.multiply(g, 1 - BETA2, out=s), g, out=s)
        np.divide(m, 1 - BETA1 ** t, out=u)
        u /= np.add(np.sqrt(np.divide(v, 1 - BETA2 ** t, out=s), out=s), EPS,
                    out=s)
        u += np.multiply(self.theta, wd, out=s)
        u *= lr
        if not np.isfinite([u.min(), u.max()]).all():   # NaN if any value is
            bad = next(name for name, part in self._updates.items()
                       if not np.isfinite(part).all())
            raise NumericalError(f"non-finite AdamW update for '{bad}'")
        self.theta -= u
