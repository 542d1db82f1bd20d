"""Reverse-mode automatic differentiation over dense float64 tensors.

Define-by-run engine: every operation on a Tensor makes a new Tensor, and
links it into the implicit compute graph (parents + a backward closure that
knows the exact local gradient) only when a gradient is wanted: some input
requires grad and grad is enabled. Inside ``no_grad()`` nothing links, so
each intermediate array is freed as soon as its last reference drops; the
values computed are the same. Calling ``backward()`` on a scalar output
walks the graph once in reverse topological order and accumulates gradients
into every tensor that has ``requires_grad`` set, releasing the graph as it goes.

All buffers are float64 and row-major. Every op validates that its output
is finite; a NaN/Inf raises :class:`NumericError` naming the node, so a
diverging forward pass fails loudly instead of poisoning gradients.

Batches are padded to a common length: ops over time take an optional
leading batch axis and optional valid `lengths` ([B]; each utterance's
frames are a prefix), so padded frames never reach a valid frame's output.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from .errors import ConfigError, NumericError, SerkitError, ShapeError

# Scores per attention tile (~1 MB of float64): a tile's softmax stays in L2 cache.
BLOCK_ELEMENTS = 1 << 17


def _valid_frames(lengths, t: int) -> np.ndarray:
    """[B, T] mask of each utterance's valid frames: the first lengths[b] of T."""
    return np.arange(t) < np.asarray(lengths)[:, None]


def _softmax(scores: np.ndarray, lengths) -> np.ndarray:
    """Softmax over the last axis; with `lengths` ([B]) entries past lengths[b] come out 0."""
    if lengths is not None:
        scores = np.where(_valid_frames(lengths, scores.shape[-1]), scores, -np.inf)
    with np.errstate(invalid="ignore"):  # a row of length 0 turns NaN; _make rejects it
        e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def _released(g):
    """`_backward` of a node whose backward has run: its closure and parents are dropped."""
    raise SerkitError("backward() through a graph an earlier backward() released")


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Run ops without linking a graph (per thread); restores the previous mode on exit."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    return arr


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """Dense float64 tensor with optional gradient tracking.

    Values are immutable once consumed by the forward pass (read-only
    sharing across threads is safe, and basic slices and `T` are views, so
    no op writes into an input); parameter tensors are mutated only
    between steps by the optimizer, which owns write access.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False, _op: str = "leaf"):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None
        self._op = _op

    # -- accessors ------------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on non-scalar tensor of shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op}, requires_grad={self.requires_grad})"

    # -- graph machinery -------------------------------------------------------

    def _accumulate(self, grad: np.ndarray):
        """Add `grad` into self.grad. A first gradient that is C-contiguous and of this tensor's
        shape is adopted as is, anything else is copied. So every backward hands each array it
        made, or each view of its own incoming gradient, to at most one tensor."""
        if self.grad is not None:
            self.grad += grad
        elif grad.shape == self.data.shape and grad.flags.c_contiguous:
            self.grad = grad
        else:
            self.grad = np.empty_like(self.data)
            np.copyto(self.grad, grad)

    def backward(self, grad: np.ndarray | None = None):
        """Reverse-mode sweep seeded with `grad` (a copy is taken), or with 1 for a scalar. A node
        whose backward has run drops its closure and parents, so what it saved is freed once no
        later node reads it; a second backward() through the released graph raises."""
        if grad is None:
            if self.data.size != 1:
                raise ShapeError(
                    f"backward() without explicit gradient requires a scalar, got shape {self.data.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.array(grad, dtype=np.float64, ndmin=1)    # a copy: the caller keeps its seed
        if grad.shape != self.data.shape:
            raise ShapeError(f"backward() seed of shape {grad.shape} does not match "
                             f"output of shape {self.data.shape}")
        if not self.requires_grad:
            return
        # Iterative topological order over the grad-requiring subgraph.
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward is _released:
                raise SerkitError(f"backward() through op '{node._op}' whose graph an earlier "
                                  "backward() released")
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(grad)
        while topo:
            node = topo.pop()
            if node._backward is not None:  # a leaf keeps its gradient
                if node.grad is not None:
                    node._backward(node.grad)
                    node.grad = None
                node._backward, node._parents = _released, ()

    # -- primitive ops ---------------------------------------------------------

    @staticmethod
    def _make(data: np.ndarray, parents, op: str, backward=None) -> "Tensor":
        """Output node of `op`; it links `parents` and `backward` only when a gradient is wanted."""
        out = Tensor(data, _op=op)
        if not np.isfinite(out.data).all():
            raise NumericError(f"non-finite value in op '{op}'")
        if _grad_mode.enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def __add__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                gb = _unbroadcast(g, b.data.shape)
                b._accumulate(gb.copy() if gb is g and a.grad is g else gb)

        return Tensor._make(a.data + b.data, (a, b), "add", backward)

    __radd__ = __add__

    def __neg__(self):
        a = self

        def backward(g):
            a._accumulate(-g)

        return Tensor._make(-a.data, (a,), "neg", backward)

    def __sub__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __rsub__(self, other):
        return Tensor(other) + (-self)

    def __mul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.data, b.data.shape))

        return Tensor._make(a.data * b.data, (a, b), "mul", backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g / b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

        return Tensor._make(a.data / b.data, (a, b), "div", backward)

    def __rtruediv__(self, other):
        return Tensor(other) / self

    def __pow__(self, exponent: float):
        if not isinstance(exponent, (int, float)):
            raise ConfigError("pow supports scalar exponents only")
        a, c = self, float(exponent)

        def backward(g):
            a._accumulate(g * c * np.power(a.data, c - 1.0))

        return Tensor._make(np.power(a.data, c), (a,), f"pow{c}", backward)

    def __matmul__(self, other):
        """Matrix product over the last two axes; leading (batch) axes broadcast."""
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self, other
        if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
            raise ShapeError(
                f"matmul shape mismatch {a.data.shape} @ {b.data.shape} (node op 'matmul')"
            )

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

        return Tensor._make(a.data @ b.data, (a, b), "matmul", backward)

    def log(self):
        a = self

        def backward(g):
            a._accumulate(g / a.data)

        with np.errstate(divide="ignore", invalid="ignore"):
            out_data = np.log(a.data)
        return Tensor._make(out_data, (a,), "log", backward)

    def sigmoid(self):
        a = self
        # Stable two-branch form; clamp keeps saturated outputs strictly
        # inside (0, 1) where float64 rounding would hit the endpoints.
        e = np.exp(-np.abs(a.data))
        out_data = np.where(a.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        out_data = np.clip(out_data, 1e-300, np.nextafter(1.0, 0.0))

        def backward(g):
            a._accumulate(g * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (a,), "sigmoid", backward)

    def relu(self):
        return self.maximum(0.0)

    def maximum(self, floor: float):
        """Elementwise max(x, floor); grad passes only where x > floor. The output has 0.0
        added, so -0.0 comes out +0.0 and relu equals np.where(x > 0, x, 0.0)."""
        a = self
        out_data = np.maximum(a.data, floor)
        out_data += 0.0

        def backward(g):
            a._accumulate(g * (out_data > floor))

        return Tensor._make(out_data, (a,), "maximum", backward)

    def sum(self, axis=None, keepdims=False):
        a = self
        out = np.sum(a.data, axis=axis, keepdims=keepdims)

        def backward(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g.reshape(out.shape), axis)
            a._accumulate(np.broadcast_to(g, a.data.shape).copy())

        return Tensor._make(out, (a,), "sum", backward)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis, keepdims) / n

    def softmax(self):
        """Softmax over the last axis; rows sum to 1 within 1e-12."""
        a = self
        out_data = _softmax(a.data, None)

        def backward(g):
            a._accumulate(out_data * (g - np.sum(g * out_data, axis=-1, keepdims=True)))

        return Tensor._make(out_data, (a,), "softmax", backward)

    def reshape(self, *shape):
        a = self
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def backward(g):
            a._accumulate(g.reshape(a.data.shape))

        return Tensor._make(a.data.reshape(shape), (a,), "reshape", backward)

    @property
    def T(self):
        """Matrix transpose, a view: swaps the last two axes (leading batch axes stay)."""
        a = self
        if a.data.ndim < 2:
            raise ShapeError(f"transpose requires rank >= 2, got shape {a.data.shape}")

        def backward(g):
            a._accumulate(np.swapaxes(g, -1, -2))

        return Tensor._make(np.swapaxes(a.data, -1, -2), (a,), "transpose", backward)

    def __getitem__(self, key):
        """Basic indexing (a view) or integer-array indexing (a copy); backward scatter-adds, so
        repeated indices sum."""
        a = self
        parts = key if isinstance(key, tuple) else (key,)
        basic = all((isinstance(p, (slice, int, np.integer)) and not isinstance(p, bool))
                    or p is Ellipsis for p in parts)

        def backward(g):
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            if basic:  # a view selects each element at most once
                a.grad[key] += g
            else:
                np.add.at(a.grad, key, g)

        return Tensor._make(a.data[key], (a,), "slice", backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat of an empty tensor list")
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        index = [slice(None)] * g.ndim
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index[axis] = slice(lo, hi)
                t._accumulate(g[tuple(index)])

    return Tensor._make(np.concatenate([t.data for t in tensors], axis=axis), tensors, "concat", backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor, lora: tuple | None = None) -> Tensor:
    """x W^T + b over [..., d_in] -> [..., d_out], plus s * (x A^T) B^T for lora = (A, B, s).

    One node. Backward keeps x and, with LoRA, the [..., rank] product x A^T, and computes
    only the gradients some input wants (none for a frozen W or b, or an x without grad).
    """
    if weight.data.ndim != 2 or x.data.shape[-1] != weight.data.shape[1]:
        raise ShapeError(f"linear shape mismatch {x.data.shape} @ {weight.data.shape}^T")
    out_data = x.data @ weight.data.T
    out_data += bias.data
    parents = [x, weight, bias]
    if lora is not None:
        a, b, scale = lora
        xa = x.data @ a.data.T
        out_data += (xa @ b.data.T) * scale
        parents += [a, b]

    def backward(g):
        g = g.reshape(-1, g.shape[-1])
        xf = x.data.reshape(-1, x.data.shape[-1])
        if weight.requires_grad:
            weight._accumulate(g.T @ xf)
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=0))
        dxa = None
        if lora is not None:
            gs = g * scale
            if b.requires_grad:
                b._accumulate(gs.T @ xa.reshape(-1, xa.shape[-1]))
            if a.requires_grad or x.requires_grad:
                dxa = gs @ b.data           # d (x A^T)
            if a.requires_grad:
                a._accumulate(dxa.T @ xf)
        if x.requires_grad:
            dx = g @ weight.data
            if dxa is not None:
                dx += dxa @ a.data
            x._accumulate(dx.reshape(x.data.shape))

    return Tensor._make(out_data, parents, "linear", backward)


def attention_weights(seq: Tensor, w: Tensor, b: Tensor, v: Tensor, lengths=None) -> Tensor:
    """Additive-attention weights over the rows u_i of [..., n, d]: softmax_i v^T tanh(W u_i + b).

    With `lengths` ([B] for [B, n, d]) rows past lengths[b] get weight exactly 0 and no
    gradient. One node; backward keeps tanh(W u + b) [..., n, h] and the weights.
    """
    if seq.data.ndim < 2 or w.data.shape != (v.data.size, seq.data.shape[-1]):
        raise ShapeError(f"attention_weights: rows {seq.data.shape}, W {w.data.shape}, "
                         f"v {v.data.shape}")
    hidden = np.tanh(seq.data @ w.data.T + b.data)
    p = _softmax(hidden @ v.data, lengths)

    def backward(g):
        ds = (p * (g - np.sum(g * p, axis=-1, keepdims=True))).reshape(-1, 1)   # d scores
        hf = hidden.reshape(-1, hidden.shape[-1])
        if v.requires_grad:
            v._accumulate(ds[:, 0] @ hf)
        if w.requires_grad or b.requires_grad or seq.requires_grad:
            dz = 1.0 - hf * hf            # d (W u + b) = ds v (1 - tanh^2)
            dz *= ds
            dz *= v.data
            if b.requires_grad:
                b._accumulate(dz.sum(axis=0))
            if w.requires_grad:
                w._accumulate(dz.T @ seq.data.reshape(-1, seq.data.shape[-1]))
            if seq.requires_grad:
                seq._accumulate((dz @ w.data).reshape(seq.data.shape))

    return Tensor._make(p, (seq, w, b, v), "attention_weights", backward)


def conv1d_dilated(x: Tensor, weight: Tensor, bias: Tensor, dilation: int = 1,
                   lengths=None) -> Tensor:
    """Dilated 1D convolution over [..., C_in, T] preserving T; the output is C-contiguous.

    weight is [C_out, C_in, K] with odd K; symmetric zero padding of
    (K-1)//2 * dilation on each side keeps the time axis length. With
    `lengths` ([B]) padded input frames read as zeros, so each utterance's
    kernel edges see exactly what its own zero padding gives. Every width is
    one sum over taps, out = sum_i W[:, :, i] @ xp[..., i*d : i*d + T], of
    batched matmuls over shifted views of one zero-padded input `xp` (x
    itself when there is nothing to pad or mask, as at K=1). Backward keeps
    only `xp`: dx is the same tap sum over zero-padded g with the transposed
    taps in reverse order, and dW[:, :, i] sums g[n] @ tap_i[n]^T over utterances,
    with BLAS reading each tap's strided view of `xp` in place.
    """
    if x.data.ndim < 2 or weight.data.ndim != 3:
        raise ShapeError(f"conv1d expects x[..., C, T], w[Co,Ci,K]; "
                         f"got {x.data.shape}, {weight.data.shape}")
    c_out, c_in, k = weight.data.shape
    if x.data.shape[-2] != c_in:
        raise ShapeError(f"conv1d channel mismatch: x has {x.data.shape[-2]}, "
                         f"weight expects {c_in}")
    if k % 2 != 1:
        raise ConfigError(f"conv1d kernel width must be odd for symmetric padding, got {k}")
    if dilation < 1:
        raise ConfigError(f"conv1d dilation must be >= 1, got {dilation}")
    t = x.data.shape[-1]
    pad = (k - 1) // 2 * dilation

    def padded(a):              # [N, C, T] -> [N, C, T + 2*pad], zero outside
        if not pad:
            return a
        ap = np.zeros(a.shape[:-1] + (t + 2 * pad,))
        ap[..., pad:pad + t] = a
        return ap

    def tap_sum(w, ap):         # sum_i w[i] @ ap[..., i*d : i*d + T], batched over N
        out = np.matmul(w[0], ap[..., :t])
        for i in range(1, k):
            out += np.matmul(w[i], ap[..., i * dilation:i * dilation + t])
        return out

    keep = None if lengths is None else _valid_frames(lengths, t)[:, None].astype(float)
    xb = x.data.reshape(-1, c_in, t)
    xp = padded(xb if keep is None else xb * keep)
    n = xp.shape[0]
    w = np.ascontiguousarray(weight.data.transpose(2, 0, 1))   # [K, C_out, C_in] taps
    out_data = tap_sum(w, xp)
    out_data += bias.data[:, None]

    def backward(g):
        g = g.reshape(n, c_out, t)
        if bias.requires_grad:
            bias._accumulate(np.einsum("not->o", g))
        if weight.requires_grad:
            # In chunks of utterances: a whole-batch [N, C_out, C_in] product outgrows x at small
            # T, so each chunk's stays within BLOCK_ELEMENTS.
            rows = max(1, BLOCK_ELEMENTS // (c_out * c_in))
            dw = np.zeros((k, c_out, c_in))
            for i in range(k):
                tap = np.swapaxes(xp[..., i * dilation:i * dilation + t], -1, -2)
                for lo in range(0, n, rows):
                    dw[i] += np.matmul(g[lo:lo + rows], tap[lo:lo + rows]).sum(axis=0)
            weight._accumulate(dw.transpose(1, 2, 0))
        if x.requires_grad:
            # Tap i reads xp[t + i*d], so dx[t] sums tap K-1-i, transposed, over padded g[t + i*d].
            dx = tap_sum(w[::-1].transpose(0, 2, 1), padded(g))
            if keep is not None:
                dx *= keep
            x._accumulate(dx.reshape(x.data.shape))

    return Tensor._make(out_data.reshape(x.data.shape[:-2] + (c_out, t)), (x, weight, bias),
                        f"conv1d(d={dilation})", backward)


def _normalize(x: Tensor, gamma: Tensor, beta: Tensor, eps: float, grouped: tuple, lengths,
               op: str, relu: bool = False) -> Tensor:
    """The normalisation node behind group_norm and layer_norm.

    x is viewed as `grouped` [N, G, C/G, T]. Each (utterance, group) block is normalised over
    its first `lengths` ([N], or None for all) frames; the others come out 0. Then each channel
    is scaled by gamma and shifted by beta, and with `relu` clipped at 0 in place (backward
    masks g by the output). Forward makes two full-size buffers, the output and
    d = (x - mu) * keep, which backward keeps with the per-group rstd instead of xhat.
    Backward takes dbeta, dgamma and two per-group means from per-(utterance, channel) sums
    of g and g * d, and builds dx in dx and one scratch buffer (plus the masked g with relu).
    """
    xg = x.data.reshape(grouped)
    n, groups, width, t = xg.shape
    flat = (n, groups, width * t)         # per-group factors broadcast over one long axis
    scale = gamma.data.reshape(groups, width, 1)
    keep = None if lengths is None else _valid_frames(lengths, t)[:, None, None].astype(float)
    count = width * (t if lengths is None else np.asarray(lengths)[:, None])
    d = xg.copy() if keep is None else xg * keep
    mu = d.reshape(flat).sum(axis=-1) / count
    d -= mu[..., None, None] if keep is None else mu[..., None, None] * keep
    df = d.reshape(flat)
    rstd = 1.0 / np.sqrt(np.einsum("ngk,ngk->ng", df, df) / count + eps)    # [N, G]

    def scaled(a):      # a * rstd * gamma; at T=1 (LayerNorm) a per-(row, channel) factor
        if t > 1:       # would be full-size, so scale twice instead
            return a * (rstd[..., None, None] * scale)
        out = a * scale
        np.multiply(out.reshape(flat), rstd[..., None], out=out.reshape(flat))
        return out

    out_data = scaled(d)
    out_data += beta.data.reshape(scale.shape)
    if keep is not None:
        out_data *= keep
    if relu:
        np.maximum(out_data, 0.0, out=out_data)
        out_data += 0.0     # -0.0 -> +0.0, as Tensor.relu

    def backward(g):
        g = g.reshape(xg.shape)
        if relu:
            g = g * (out_data > 0)
        if keep is not None:     # padded outputs are constant zeros: their g counts nowhere
            g_sum = np.einsum("ngwt,nt->ngw", g, keep.reshape(n, t))
        else:                    # one frame per row: the sum over time is g itself
            g_sum = np.einsum("ngwt->ngw", g) if t > 1 else g[..., 0]
        gd_sum = np.einsum("ngwt,ngwt->ngw", g, d)
        if beta.requires_grad:
            beta._accumulate(g_sum.sum(axis=0).reshape(beta.data.shape))
        if gamma.requires_grad:
            gamma._accumulate(np.einsum("ngw,ng->gw", gd_sum, rstd).reshape(gamma.data.shape))
        if x.requires_grad:
            # With dxhat = g * gamma, M1 = mean(dxhat) and M2 = mean(dxhat * d) per group,
            # dx = (dxhat - M1 - xhat * rstd * M2) * rstd * keep; m1 = rstd M1, m2 = rstd^3 M2.
            m1 = np.einsum("ngw,gw->ng", g_sum, scale[..., 0]) * (rstd / count)
            m2 = np.einsum("ngw,gw->ng", gd_sum, scale[..., 0]) * (rstd ** 3 / count)
            del g_sum, gd_sum             # full-size for LayerNorm
            dx = scaled(g)
            dx_flat = dx.reshape(flat)
            dx_flat -= np.multiply(df, m2[..., None])
            dx_flat -= m1[..., None]
            if keep is not None:
                dx *= keep
            x._accumulate(dx.reshape(x.data.shape))

    return Tensor._make(out_data.reshape(x.data.shape), (x, gamma, beta), op, backward)


def group_norm(x: Tensor, num_groups: int, gamma: Tensor, beta: Tensor, eps: float = 1e-5,
               lengths=None, relu: bool = False) -> Tensor:
    """GroupNorm over [..., C, T]: per-group stats over the group's channels x all time steps.

    With `lengths` ([B]) the statistics cover valid frames only and padded
    frames come out as exact zeros. With `relu` the output is max(GroupNorm, 0) in the same
    node. One `_normalize` node, two full-size buffers each way (three in backward with relu).
    """
    if x.data.ndim < 2:
        raise ShapeError(f"group_norm expects [..., C, T], got shape {x.data.shape}")
    c, t = x.data.shape[-2:]
    if num_groups < 1 or c % num_groups != 0:
        raise ConfigError(f"group_norm: {c} channels not divisible by {num_groups} groups")
    if eps <= 0:
        raise ConfigError(f"group_norm eps must be > 0, got {eps}")
    return _normalize(x, gamma, beta, eps, (-1, num_groups, c // num_groups, t), lengths,
                      "group_norm_relu" if relu else "group_norm", relu)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row LayerNorm over the feature (last) axis of [..., d]: the unmasked `_normalize`
    with one group of d channels and one frame per row."""
    return _normalize(x, gamma, beta, eps, (-1, 1, x.data.shape[-1], 1), None, "layer_norm")


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int,
                         lengths=None) -> Tensor:
    """Scaled dot-product self-attention over [..., T, d] split into `num_heads` heads.

    `lengths` ([B]) counts each utterance's valid frames n, a prefix. One
    node. A tile is a run of consecutive (utterance, head) pairs of one n
    and at most about BLOCK_ELEMENTS scores (~1 MB), so its scores stay in
    cache; rows sorted by length, as `length_groups` gives them, make the
    fewest tiles. A tile computes only its [:n, :n] scores: padded query
    rows come out 0 with no gradient, and each pair's result is
    bit-identical to its unpadded run whatever its tile-mates or the order
    of the rows. Scores are exponentiated
    unshifted, e = exp(s), and one matmul e @ [v, 1] gives the unnormalised
    [n, d/H] output and its row sums together. A row whose sum is not
    finite or lies outside [1e-280, 1e280] falls back to e = exp(s - max s);
    the test reads only that row. Under no_grad the scores of every tile go
    into one reused buffer; with a gradient each tile's e and row sums are
    kept, and backward reads rowsum(p * dp) off them.
    """
    shape = q.data.shape
    if q.data.ndim < 2 or k.data.shape != shape or v.data.shape != shape:
        raise ShapeError(f"attention expects equal [..., T, d] q/k/v, got "
                         f"{q.data.shape}, {k.data.shape}, {v.data.shape}")
    if num_heads < 1 or shape[-1] % num_heads != 0:
        raise ConfigError(f"attention: width {shape[-1]} not divisible by {num_heads} heads")
    t = shape[-2]
    head_dim = shape[-1] // num_heads
    inv_scale = 1.0 / np.sqrt(head_dim)
    utterances = q.data.size // (t * shape[-1])
    lengths = np.full(utterances, t) if lengths is None else np.asarray(lengths)
    if lengths.shape != (utterances,) or np.any(lengths > t):
        raise ShapeError(f"attention lengths {lengths.tolist()} do not fit "
                         f"{utterances} x {t} frames")
    if np.any(lengths < 1):
        raise NumericError(f"attention: utterance {np.argmin(lengths)} has no valid frame")

    def split(a, ones=0):  # [..., T, d] -> [N*H, T, d/H], plus `ones` columns of 1
        heads = np.empty((utterances, num_heads, t, head_dim + ones))
        heads[..., :head_dim] = np.swapaxes(a.reshape(-1, t, num_heads, head_dim), 1, 2)
        heads[..., head_dim:] = 1.0
        return heads.reshape(-1, t, head_dim + ones)

    def merge(a):      # [N*H, T, d/H] -> [..., T, d]
        return np.swapaxes(a.reshape(-1, num_heads, t, head_dim), 1, 2).reshape(shape)

    tiles = []             # (pairs, n): a slice of consecutive pairs, all of length n
    runs = [0, *(np.flatnonzero(np.diff(lengths)) + 1).tolist(), utterances]
    for lo, hi in zip(runs[:-1], runs[1:]):     # utterances lo..hi-1 share one length n
        n = int(lengths[lo])
        rows = max(1, BLOCK_ELEMENTS // (n * n))
        tiles += [(slice(a, min(a + rows, hi * num_heads)), n)
                  for a in range(lo * num_heads, hi * num_heads, rows)]
    largest = max((blk.stop - blk.start) * n * n for blk, n in tiles)

    def scratch(buffer, blk, n):     # a tile's [m, n, n] view of a reused flat buffer
        return buffer[:(blk.stop - blk.start) * n * n].reshape(-1, n, n)

    qf, kf, v1 = split(q.data * inv_scale), split(k.data), split(v.data, ones=1)
    keep = _grad_mode.enabled and (q.requires_grad or k.requires_grad or v.requires_grad)
    buffer = None if keep else np.empty(largest)
    saved, out = [], np.zeros_like(qf)
    with np.errstate(over="ignore", invalid="ignore"):    # such rows take the fallback
        for blk, n in tiles:
            kt = np.swapaxes(kf[blk, :n], -1, -2)
            e = qf[blk, :n] @ kt if keep else np.matmul(qf[blk, :n], kt,
                                                       out=scratch(buffer, blk, n))
            np.exp(e, out=e)
            ev = e @ v1[blk, :n]          # [e @ v, rowsum(e)]; softmax @ v = e @ v / rowsum(e)
            total = ev[..., head_dim:]
            bad = ~((total >= 1e-280) & (total <= 1e280))    # NaN fails both
            if bad.any():
                pairs, rows, _ = np.nonzero(bad)
                s = np.matmul(qf[blk][pairs, rows, None], kt[pairs])    # [R, 1, n]
                s -= np.max(s, axis=-1, keepdims=True)
                np.exp(s, out=s)
                e[pairs, rows] = s[:, 0]
                ev[pairs, rows] = np.matmul(s, v1[blk, :n][pairs])[:, 0]
            np.divide(ev[..., :head_dim], total, out=out[blk, :n])
            if keep:
                saved.append((e, total.copy()))    # not a view, which would keep all of ev

    def backward(g):
        # Split again rather than keep the forward's head-major copies alive in the graph.
        # scores = (q * s) k^T, so dq = dscores (k * s) and dk = dscores^T (q * s).
        qf, kf = split(q.data * inv_scale), split(k.data * inv_scale)
        v1, gf = split(v.data, ones=1), split(g)
        dq, dk, dv = (np.zeros_like(qf) if a.requires_grad else None for a in (q, k, v))
        buffer = None if dq is None and dk is None else np.empty(largest)
        for (blk, n), (e, total) in zip(tiles, saved):
            gc = np.empty(v1[blk, :n].shape)                  # [gb, -c]
            gb = np.divide(gf[blk, :n], total, out=gc[..., :head_dim])   # p^T g = e^T gb
            if dv is not None:
                np.matmul(np.swapaxes(e, -1, -2), gb, out=dv[blk, :n])
            if buffer is not None:
                # dscores = p * (g v^T - rowsum(g * out)) = e * ([gb, -c] @ [v, 1]^T),
                # with c = rowsum(gb * out)
                gc[..., head_dim:] = -np.sum(gb * out[blk, :n], axis=-1, keepdims=True)
                ds = np.matmul(gc, np.swapaxes(v1[blk, :n], -1, -2), out=scratch(buffer, blk, n))
                e *= ds                   # in place: backward() releases e after this walk
                if dq is not None:
                    np.matmul(e, kf[blk, :n], out=dq[blk, :n])
                if dk is not None:
                    np.matmul(np.swapaxes(e, -1, -2), qf[blk, :n], out=dk[blk, :n])
        for tensor, grad in ((q, dq), (k, dk), (v, dv)):
            if grad is not None:
                tensor._accumulate(merge(grad))

    return Tensor._make(merge(out), (q, k, v), "attention", backward)


def finite_difference_sample(f, x: np.ndarray, indices, h: float = 1e-5) -> np.ndarray:
    """Central differences at a subset of flat indices (for large tensors)."""
    if h <= 0:
        raise ConfigError(f"finite difference step must be > 0, got {h}")
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros(len(indices))
    for j, i in enumerate(indices):
        xp = x.copy().reshape(-1)
        xp[i] += h
        fp = float(f(xp.reshape(x.shape)))
        xm = x.copy().reshape(-1)
        xm[i] -= h
        fm = float(f(xm.reshape(x.shape)))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"non-finite function value in finite differences at index {i}")
        out[j] = (fp - fm) / (2.0 * h)
    return out


def relative_error(analytic: np.ndarray, oracle: np.ndarray, floor: float = 1e-6) -> float:
    """Max elementwise |a - o| / max(|a|, |o|, floor)."""
    analytic = np.asarray(analytic, dtype=np.float64)
    oracle = np.asarray(oracle, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(oracle)), floor)
    if analytic.size == 0:
        return 0.0
    return float(np.max(np.abs(analytic - oracle) / denom))
