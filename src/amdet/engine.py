"""Minimal reverse-mode autodiff engine and the AdamW update step.

The op set is exactly what the attention model needs: matmul, add, elementwise
multiply, scale, transpose, reshape, slice/concat on the feature axis, ReLU,
row softmax, row layer norm, sum, and a fused softmax cross-entropy. All ops
work on arrays of arbitrary leading (batch) shape; the semantic axes are the
trailing one or two. Gradients flow through numpy broadcasting by summing the
upstream gradient back down to each input's shape.

A ``Tape`` records ops in execution order (which is already a topological
order), and ``Tape.backward`` replays it in reverse, accumulating gradients
onto every ``Tensor`` touched. There is no graph pruning: a tape is built for
one forward pass, differentiated at most once, and discarded.

Gradients are never written in place. The first gradient reaching a tensor is
stored as returned (it may be a view of, or the same array as, another
tensor's gradient: ``add`` hands ``g`` to both inputs), and later ones are
added out of place. Finiteness is checked once per backward, on the leaves
(tensors no node produced: parameters, inputs, constants), since a NaN or inf
made anywhere flows into some leaf's gradient. Only if that check fails is the
reverse pass replayed with a check after every op, to name the op and input
that produced the first non-finite gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DataError, NumericalError

Array = np.ndarray


class Tensor:
    """A value recorded on a tape. Holds the forward array and, after
    ``Tape.backward``, the gradient of the differentiated scalar w.r.t. it."""

    __slots__ = ("data", "grad", "name")

    def __init__(self, data, name: str = "tensor"):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(name={self.name!r}, shape={self.data.shape})"


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    # one reduction over the extra leading axes and the axes broadcast from 1
    lead = grad.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + ax for ax, n in enumerate(shape)
        if n == 1 and grad.shape[lead + ax] != 1)
    if not axes:
        return grad
    return grad.sum(axis=axes).reshape(shape)


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
    # shapes kept for FLOP accounting; matmul also stores the inner dim
    meta: dict = field(default_factory=dict)


class Tape:
    """Execution-ordered record of ops; differentiable once, in reverse."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def _record(self, op, out, inputs, backward, **meta) -> Tensor:
        self.nodes.append(_Node(op, out, inputs, backward, meta))
        return out

    # ------------------------------------------------------------------ ops

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        out = Tensor(a.data @ b.data, _name("matmul", a, b))

        def backward(g):
            if b.data.ndim == 2 and a.data.ndim > 2:
                # shared weight: one 2-D GEMM over the flattened rows
                k, n = b.data.shape
                return (g @ b.data.T,
                        a.data.reshape(-1, k).T @ g.reshape(-1, n))
            ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
            return ga, gb

        return self._record("matmul", out, (a, b), backward,
                            inner=a.data.shape[-1], out_shape=out.data.shape)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        out = Tensor(a.data + b.data, _name("add", a, b))

        def backward(g):
            return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

        return self._record("add", out, (a, b), backward)

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        out = Tensor(a.data * b.data, _name("mul", a, b))

        def backward(g):
            return (_unbroadcast(g * b.data, a.data.shape),
                    _unbroadcast(g * a.data, b.data.shape))

        return self._record("mul", out, (a, b), backward)

    def scale(self, a: Tensor, c: float) -> Tensor:
        out = Tensor(a.data * c, _name("scale", a))

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
            for w in widths:
                grads.append(g[..., pos:pos + w])
                pos += w
            return tuple(grads)

        return self._record("concat_last", out, tuple(parts), backward)

    def relu(self, a: Tensor) -> Tensor:
        mask = a.data > 0
        out = Tensor(np.maximum(a.data, 0.0), _name("relu", a))

        def backward(g):
            return (g * mask,)

        return self._record("relu", out, (a,), backward)

    def softmax(self, a: Tensor) -> Tensor:
        """Softmax over the last axis."""
        shifted = a.data - a.data.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        p = e / e.sum(axis=-1, keepdims=True)
        out = Tensor(p, _name("softmax", a))

        def backward(g):
            dot = (g * p).sum(axis=-1, keepdims=True)
            return (p * (g - dot),)

        return self._record("softmax", out, (a,), backward)

    def layer_norm(self, a: Tensor, gain: Tensor, bias: Tensor,
                   eps: float = 1e-12) -> Tensor:
        """Normalize each vector along the last axis, then apply gain/bias.

        eps floors the variance so constant rows map to zero instead of NaN.
        """
        mu = a.data.mean(axis=-1, keepdims=True)
        var = a.data.var(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = (a.data - mu) * inv
        out = Tensor(xhat * gain.data + bias.data, _name("layer_norm", a))

        def backward(g):
            gx_hat = g * gain.data
            term = gx_hat - gx_hat.mean(axis=-1, keepdims=True) \
                - xhat * (gx_hat * xhat).mean(axis=-1, keepdims=True)
            ga = inv * term
            ggain = _unbroadcast(g * xhat, gain.data.shape)
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
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        if z.ndim != 2 or z.shape[0] != labels.shape[0]:
            raise ValueError(
                f"logits {z.shape} incompatible with {labels.shape[0]} labels")
        if labels.size and not (0 <= labels.min() and labels.max() < z.shape[1]):
            raise DataError(
                f"labels must lie in [0, {z.shape[1]}), got "
                f"[{labels.min()}, {labels.max()}]")
        m = z.max(axis=-1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=-1))
        picked = z[np.arange(z.shape[0]), labels]
        loss = float((lse - picked).mean())
        out = Tensor(loss, "cross_entropy")
        p = np.exp(z - lse[:, None])

        def backward(g):
            gz = p.copy()
            gz[np.arange(z.shape[0]), labels] -= 1.0
            gz *= g / z.shape[0]
            return (gz,)

        return self._record("cross_entropy", out, (logits,), backward)

    # ------------------------------------------------------------- backward

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(tensor) into ``.grad`` of every recorded tensor.

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
        for node in self.nodes:
            node.out.grad = None
            for t in node.inputs:
                t.grad = None
        self._reverse(loss, check=True)
        # every op's gradient was finite; their sum on some leaf overflowed
        raise NumericalError(f"non-finite gradient accumulated for '{bad.name}'")

    def _reverse(self, loss: Tensor, check: bool) -> None:
        loss.grad = np.ones_like(loss.data)
        for node in reversed(self.nodes):
            g = node.out.grad
            if g is None:
                continue
            for inp, gi in zip(node.inputs, node.backward(g)):
                if check and not np.all(np.isfinite(gi)):
                    raise NumericalError(
                        f"non-finite gradient produced by op '{node.op}' "
                        f"for input '{inp.name}'")
                gi = gi.reshape(inp.data.shape)
                # out of place: gi may alias another tensor's gradient
                inp.grad = gi if inp.grad is None else inp.grad + gi

    def matmul_flops(self) -> int:
        """2 * multiply-adds summed over every matmul recorded so far."""
        total = 0
        for node in self.nodes:
            if node.op == "matmul":
                total += 2 * int(np.prod(node.meta["out_shape"])) * node.meta["inner"]
        return total


# ------------------------------------------------------------------- adamw


@dataclass
class OptimizerConfig:
    lr: float = 1e-3
    weight_decay: float = 1e-6
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 16
    grad_clip: float | None = None        # max global grad norm, off by default
    lr_schedule: str = "constant"         # "constant" or "cosine"


class AdamW:
    """Decoupled weight decay Adam over a dict of named parameter arrays.

    Updates happen in place so callers can keep long-lived references to the
    parameter arrays. Moments are keyed by parameter name.
    """

    def __init__(self, params: dict[str, Array], config: OptimizerConfig):
        self.config = config
        self.step_count = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict[str, Array], grads: dict[str, Array],
             lr: float | None = None) -> None:
        cfg = self.config
        lr = cfg.lr if lr is None else lr
        self.step_count += 1
        t = self.step_count
        if cfg.grad_clip is not None:
            norm = np.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
            if norm > cfg.grad_clip:
                scale = cfg.grad_clip / norm
                grads = {k: g * scale for k, g in grads.items()}
        for name, theta in params.items():
            g = grads.get(name)
            if g is None:
                g = np.zeros_like(theta)
            m = self.m[name]
            v = self.v[name]
            m *= cfg.beta1
            m += (1 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1 - cfg.beta2) * g * g
            m_hat = m / (1 - cfg.beta1 ** t)
            v_hat = v / (1 - cfg.beta2 ** t)
            update = lr * (m_hat / (np.sqrt(v_hat) + cfg.eps)
                           + cfg.weight_decay * theta)
            if not np.all(np.isfinite(update)):
                raise NumericalError(f"non-finite AdamW update for '{name}'")
            theta -= update


def schedule_lr(config: OptimizerConfig, epoch: int, total_epochs: int) -> float:
    """Learning rate for the given epoch under the configured schedule."""
    if config.lr_schedule == "constant":
        return config.lr
    if config.lr_schedule == "cosine":
        frac = epoch / max(total_epochs - 1, 1)
        return config.lr * 0.5 * (1.0 + np.cos(np.pi * frac))
    raise ValueError(f"unknown lr schedule: {config.lr_schedule!r}")
