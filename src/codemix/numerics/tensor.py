"""Dense tensors with a reverse-mode gradient tape, backed by numpy.

Values are float32 for training/inference; float64 is used for gradient
checks. A NaN or Inf is a hard error (NonFiniteError), so silent
divergence cannot corrupt an experiment. Outside a model pass every op
checks its output. A model pass (the encoder, the decoder, one cached
decoder step) runs through `checked_pass`, which checks only the pass's
output: NaN and Inf propagate through every op the passes use, save a
-Inf attention score, which softmax turns into probability 0, so
`attention_probs` always checks its scores. When a pass's output is not
finite, the pass runs again on the same inputs with every op checked, and
the error names the op, as it would with per-op checks throughout. Until
its check passes a pass changes nothing but its dropout stream (no cache,
no capture list), so the replay puts back only the stream.

A tape node's backward is a pure function: it takes the node's gradient
and returns one gradient per parent, in parent order, and writes nothing.
`Tensor.backward()` is the one place that accumulates gradients: it walks
the tape in reverse topological order and adds each returned gradient into
`.grad` of each parent that requires one (a wrong gradient count raises).
It frees the tape as it goes: once a node's backward has run, the node
drops its closure (the arrays it saved), its parents and its gradient, so
a step's activations are released during its own backward. Only leaves
(parameters and inputs) keep `.grad`, and a second backward through a freed
node raises CodemixError. Wrap inference code in `no_grad()` to skip tape
construction entirely.

The tape ops are `matmul`, `gelu`, `linear`, `softmax`, `log_softmax`,
`layer_norm` and `gather_rows`; the package has no elementwise arithmetic
on the tape (the tests keep `add`, `mul`, `tsum` and `exp` as the
references of the fused nodes). Forwards and backwards are plain-array
helpers, written once (`layer_norm_forward`/`_backward`, `gelu_*`,
`linear_backward`, `log_softmax_backward`, `scatter_rows`: a row gather's
gradient, `attend`: attention's output and gradient function); the tape
ops wrap them, and so do the model's embedding, its pre-norm residual
blocks (the only nodes that attend), the label-smoothed CE and the KD loss
(`distill.kd_loss`), each one tape node with a hand-written backward. A
training objective with several terms is no node either: each term's
`backward` is seeded with its weight (`train.fit`).
The model's tensors are packed rows (n, D), one row per real (non-PAD)
position, so every position-wise op skips the padding; a `RowLayout` says
where each row sits in its padded (B, T) block, and attention alone
scatters the rows into padded blocks.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable

import numpy as np

from ..errors import CodemixError, NonFiniteError, ShapeError

_grad_enabled = True
_op_checks = True  # False only during a model pass's first run
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


@contextlib.contextmanager
def no_grad():
    """Disable tape construction inside the block (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    return _grad_enabled


def _assert_finite(arr: np.ndarray, what: str) -> None:
    # .all() without ndarray.all's Python wrapper
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise NonFiniteError(f"non-finite values in {what}")


def _op_check(arr: np.ndarray, what: str) -> None:
    """The finite check of one op's output, skipped during a model pass's
    first run: `checked_pass` checks the pass's output instead."""
    if _op_checks:
        _assert_finite(arr, what)


def checked_pass(run: Callable[[], object], what: str, rng=None):
    """Run the model pass `run()`, whose result is a Tensor or an array,
    and check the result once, with the ops inside unchecked but for the
    attention scores (`attention_probs`). A pass changes nothing of its
    caller's but the dropout stream `rng` until this check passes.

    If the result holds NaN or Inf, or a score check fails, the stream is
    put back to its state before the run and the pass runs again on the
    same inputs with every op checked, drawing the same masks, so the
    NonFiniteError names the first op that made a NaN or Inf. If that run
    raises nothing, the first run's error is raised."""
    global _op_checks
    state = None if rng is None else rng.bit_generator.state
    outer, _op_checks = _op_checks, False
    try:
        out = run()
        _assert_finite(out.data if isinstance(out, Tensor) else out, what)
        return out
    except NonFiniteError:
        _op_checks = outer
        if rng is not None:
            rng.bit_generator.state = state
        run()
        raise
    finally:
        _op_checks = outer


class Tensor:
    """A numpy array plus optional gradient buffer and tape linkage."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False,
                 what: str | None = "tensor data"):
        """`what` names the data in a NonFiniteError; None when the caller
        checks the data itself (`_make`, a model pass's result)."""
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:  # dtypes: `in` converts no type
            arr = arr.astype(np.float32)
        if what is not None:
            _assert_finite(arr, what)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], tuple] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype)
            if self.grad.shape != self.data.shape:
                self.grad = np.broadcast_to(self.grad, self.data.shape).copy()
        else:
            self.grad += g

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Reverse-mode sweep seeding this (scalar) tensor's gradient.

        The graph is freed as it is walked: each non-leaf node, once its
        backward has run, loses its closure, its parents and its `.grad`.
        Leaves keep `.grad`; a second backward through a freed node raises
        CodemixError."""
        if grad is None:
            if self.data.size != 1:
                raise ShapeError("backward() without an explicit gradient "
                                 "requires a scalar tensor")
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.accumulate_grad(np.asarray(grad, dtype=self.data.dtype))
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue  # a leaf keeps its .grad
            if node.grad is not None:
                for p, gp in zip(node._parents, node._backward(node.grad),
                                 strict=True):
                    if p.requires_grad:
                        p.accumulate_grad(gp)
            node._backward, node._parents, node.grad = _freed, (), None

    def __repr__(self):
        return (f"Tensor(shape={self.shape}, dtype={self.data.dtype}, "
                f"requires_grad={self.requires_grad})")


def _freed(grad: np.ndarray) -> None:
    """The backward of a node that an earlier backward() has freed."""
    raise CodemixError("backward() through a graph that an earlier "
                       "backward() freed; run the forward again")


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple[Tensor, ...],
          backward: Callable[[np.ndarray], tuple], op: str) -> Tensor:
    """The output of tape op `op`. Outside a model pass's first run a NaN
    or Inf in it raises NonFiniteError naming the op (`_op_check`).

    `backward` is a pure function: given the output's gradient g it
    returns one gradient per parent, in `parents` order, each shaped like
    its parent, and writes nothing. `Tensor.backward` alone adds them into
    the parents that require a gradient."""
    _op_check(data, f"{op} output")
    out = Tensor(data, what=None)
    if not _grad_enabled:
        return out
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum-reduce a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data @ b.data

    def backward(g):
        return (_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape),
                _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _make(out, (a, b), backward, "matmul")


_GELU_C = 0.7978845608028654  # sqrt(2/pi)


def gelu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU of a plain array: (output, the tanh term its gradient reuses)."""
    t = np.tanh(_GELU_C * (x + 0.044715 * (x * (x * x))))
    return 0.5 * x * (1.0 + t), t


def gelu_backward(g: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """GELU's input gradient at x for output gradient g and tanh term t."""
    sech2 = 1.0 - t * t
    d_inner = _GELU_C * (1.0 + 0.134145 * (x * x))
    return g * (0.5 * (1.0 + t) + 0.5 * x * sech2 * d_inner)


def gelu(a) -> Tensor:
    """Smooth GELU (tanh form). Being C-infinity keeps central-difference
    gradient checks clean, unlike the ReLU kink."""
    a = as_tensor(a)
    out, t = gelu_forward(a.data)

    def backward(g):
        return (gelu_backward(g, a.data, t),)

    return _make(out, (a,), backward, "gelu")


def linear(x, w, b=None, transpose_w: bool = False) -> Tensor:
    """x @ w (+ b), with weight gradients computed as single 2-D GEMMs.

    x has shape (..., D), packed rows (n, D) in the model, which makes the
    product one GEMM; w is (D, F), or (F, D) with transpose_w=True (used
    for the tied output projection). b, when given, is (F,).
    """
    x, w = as_tensor(x), as_tensor(w)
    wd = w.data.T if transpose_w else w.data
    out = x.data @ wd
    if b is not None:
        b = as_tensor(b)
        out = out + b.data

    def backward(g):
        gx, gw, gb = linear_backward(g, x.data, wd, bias=b is not None)
        gw = gw.T if transpose_w else gw
        return (gx, gw) if b is None else (gx, gw, gb)

    parents = (x, w) if b is None else (x, w, b)
    return _make(out, parents, backward, "linear")


def linear_backward(g: np.ndarray, x: np.ndarray, w: np.ndarray,
                    bias: bool = True
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The gradients (x, w, b) of x @ w + b given the output's gradient g,
    each one 2-D GEMM or sum over x's rows; b's is None without a bias."""
    g2 = g.reshape(-1, g.shape[-1])
    return ((g2 @ w.T).reshape(x.shape),
            x.reshape(-1, x.shape[-1]).T @ g2,
            g2.sum(axis=0) if bias else None)


def softmax_forward(x: np.ndarray) -> np.ndarray:
    """Numerically stable softmax of a plain array over its last axis (max
    subtraction)."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax(logits) -> Tensor:
    """Numerically stable softmax over the last axis (max subtraction)."""
    a = as_tensor(logits)
    out = softmax_forward(a.data)

    def backward(g):
        return (out * (g - (out * g).sum(axis=-1, keepdims=True)),)

    return _make(out, (a,), backward, "softmax")


class RowLayout:
    """Where packed rows sit in a padded (B, T) block: packed row r is
    position `idx[r]` of the block flattened in row-major (b, t) order.
    Position-wise layers run on the packed (n, ...) rows; only attention
    scatters them back into padded blocks. When every position is real,
    `pad` and `pack` are plain reshapes."""

    __slots__ = ("idx", "shape", "dense")

    def __init__(self, real: np.ndarray):
        """`real` is a (B, T) boolean array marking the real positions."""
        self.shape = real.shape
        self.idx = np.flatnonzero(real)
        self.dense = self.idx.size == real.size

    def pad(self, x: np.ndarray) -> np.ndarray:
        """Packed rows (n, D) -> (B, T, D), zeros at the padding."""
        if self.dense:
            return x.reshape(*self.shape, x.shape[-1])
        out = np.zeros((self.shape[0] * self.shape[1], x.shape[-1]),
                       dtype=x.dtype)
        out[self.idx] = x
        return out.reshape(*self.shape, x.shape[-1])

    def pack(self, x: np.ndarray) -> np.ndarray:
        """(B, T, D) -> the packed rows (n, D)."""
        flat = x.reshape(-1, x.shape[-1])
        return flat if self.dense else flat[self.idx]


def split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(B, T, D) -> (B, H, T, D / H), a view."""
    B, T, D = x.shape
    return x.reshape(B, T, n_heads, D // n_heads).transpose(0, 2, 1, 3)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """(B, H, T, dh) -> (B, T, H * dh)."""
    B, H, T, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B, T, H * dh)


def attention_names(what: str) -> tuple[str, str]:
    """The names `attention_probs` checks attention `what`'s scores and
    probabilities under."""
    return f"attention {what} scores", f"softmax {what} output"


def attention_probs(q: np.ndarray, kt: np.ndarray, mask: np.ndarray | None,
                    names: tuple[str, str]) -> np.ndarray:
    """softmax(q kt / sqrt(dh) + mask) for queries q (B, H, T, dh) and
    transposed keys kt (B, H, dh, S), checked under `attention_names`. The
    scale is a Python float, so float32 stays float32. The scores are
    checked even inside a model pass: softmax turns a -Inf score into
    probability 0, and a pass's output check would not see it. The
    probabilities of finite scores are finite, so they are checked only
    where every op is."""
    scores = (q * (1.0 / math.sqrt(q.shape[-1]))) @ kt
    if mask is not None:
        scores = scores + mask
    _assert_finite(scores, names[0])
    probs = softmax_forward(scores)
    _op_check(probs, names[1])
    return probs


def attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, q_rows: RowLayout,
           k_rows: RowLayout, mask: np.ndarray | None, n_heads: int,
           names: tuple[str, str], p: float = 0.0,
           rng: np.random.Generator | None = None,
           capture: list | None = None):
    """Multi-head attention of projected queries q (n_q, D), packed at
    `q_rows`, over keys and values k, v (n_k, D), packed at `k_rows`:
    (the queries' rows (n_q, D), heads merged, and the function taking
    their gradient to the gradients (q, k, v)).

    The rows are scattered into zero-filled padded blocks, and `mask`
    (broadcast to the (B, H, T, S) scores) must give -1e9 to every padding
    key a real query sees, as a key-padding or causal mask does: its
    probability is then exactly 0, so real rows never read padding. The
    scores are checked under `names` (`attention_probs`). p > 0 adds
    inverted dropout; `capture` gets the (B, H, T, S) weights before it.

    The gradient function keeps the padded Q, K, V, the probabilities and,
    under dropout, the boolean keep mask (`inverted_dropout`); it rebuilds
    the float mask and the dropped probabilities from them with the
    forward's ops, so their bits are the forward's. It scales after its
    matmuls, dq = (gs K) * scale and dk = gs^T (Q * scale): moving the
    scale changes float32 rounding and weights."""
    Q = split_heads(q_rows.pad(q), n_heads)
    K, V = (split_heads(k_rows.pad(t), n_heads) for t in (k, v))
    probs = attention_probs(Q, K.transpose(0, 1, 3, 2), mask, names)
    if capture is not None:
        capture.append(probs)
    used, keep = probs, None
    if p > 0:
        keep = rng.random(probs.shape) >= p
        used = probs * inverted_dropout(keep, p, probs.dtype)
    scale = 1.0 / math.sqrt(Q.shape[-1])

    def grad(g):
        used, drop = probs, None
        if keep is not None:  # the forward's mask and weights, rebuilt
            drop = inverted_dropout(keep, p, probs.dtype)
            used = probs * drop
        G = split_heads(q_rows.pad(g), n_heads)
        gv = k_rows.pack(merge_heads(np.swapaxes(used, -1, -2) @ G))
        gu = G @ np.swapaxes(V, -1, -2)
        if drop is not None:
            gu = gu * drop
        gs = probs * (gu - (probs * gu).sum(axis=-1, keepdims=True))
        return (q_rows.pack(merge_heads((gs @ K) * scale)),
                k_rows.pack(merge_heads(np.swapaxes(gs, -1, -2)
                                        @ (Q * scale))), gv)

    return q_rows.pack(merge_heads(used @ V)), grad


def log_softmax_forward(x: np.ndarray) -> np.ndarray:
    """log(softmax(x)) of a plain array over its last axis. Every entry is
    <= 0: the shifted maximum is exactly 0, so the log-sum-exp is at least
    log(1) = 0."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def log_softmax_backward(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The input gradient of a log-softmax with output `out` given the
    output's gradient g."""
    p = np.exp(out)
    return g - p * g.sum(axis=-1, keepdims=True)


def log_softmax(logits) -> Tensor:
    a = as_tensor(logits)
    out = log_softmax_forward(a.data)

    def backward(g):
        return (log_softmax_backward(g, out),)

    return _make(out, (a,), backward, "log_softmax")


def layer_norm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer normalization of a plain array over its last axis, with
    variance epsilon 1e-5: (output, normalized input, 1 / sigma); the last
    two feed the gradient."""
    # add.reduce / n: .mean() bit for bit, without its Python wrapper
    n = x.shape[-1]
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
                        + 1e-5)
    xhat = xc * inv
    return xhat * gain + bias, xhat, inv


def layer_norm(x, gain, bias) -> Tensor:
    """Layer normalization over the last axis: gain * (x - mu) / sigma + bias."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    out, xhat, inv = layer_norm_forward(x.data, gain.data, bias.data)

    def backward(g):
        return layer_norm_backward(g, gain.data, xhat, inv)

    return _make(out, (x, gain, bias), backward, "layer_norm")


def layer_norm_backward(g: np.ndarray, gain: np.ndarray, xhat: np.ndarray,
                        inv: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gradients (input, gain, bias) of a layer norm given its output's
    gradient g and `layer_norm_forward`'s xhat and inv."""
    red = tuple(range(g.ndim - 1))
    gh = g * gain
    m1 = gh.mean(axis=-1, keepdims=True)
    m2 = (gh * xhat).mean(axis=-1, keepdims=True)
    return ((gh - m1 - xhat * m2) * inv, (g * xhat).sum(axis=red),
            g.sum(axis=red))


def scatter_rows(g: np.ndarray, idx: np.ndarray,
                 table: np.ndarray) -> np.ndarray:
    """The gradient of the row gather `table[idx]` given its output's
    gradient g (shape idx.shape + table.shape[1:]): zeros shaped like
    `table` plus each row of g at its index, for non-negative indices of
    any shape. One 1-D np.add.at over the flattened table, at
    idx * d + arange(d) for rows of d entries: the additions of the 2-D
    np.add.at(zeros, idx, g), in the same order, so the same bits, with
    less work per index."""
    out = np.zeros_like(table)
    d = math.prod(table.shape[1:])
    flat_idx = idx.reshape(-1, 1) * d + np.arange(d)
    np.add.at(out.reshape(-1), flat_idx.reshape(-1), g.reshape(-1))
    return out


def gather_rows(table, idx) -> Tensor:
    """table[idx]: embedding lookup. idx is an integer array; the output has
    shape idx.shape + table.shape[1:]."""
    table = as_tensor(table)
    idx = np.asarray(idx, dtype=np.int64)
    out = table.data[idx]

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return (gt,)

    return _make(out, (table,), backward, "gather_rows")


def inverted_dropout(keep: np.ndarray, p: float, dtype) -> np.ndarray:
    """The inverted-dropout mask of the boolean array `keep`: 1 / (1 - p)
    in `dtype` where it is True, 0 where it is False. A tape node keeps
    `keep`, one byte an entry, and its backward rebuilds the mask with
    this same division, so the bits are the forward's."""
    return keep.astype(dtype) / (1.0 - p)


def dropout_mask(p: float, rng: np.random.Generator, rows: RowLayout,
                 x: np.ndarray) -> np.ndarray:
    """The inverted-dropout mask (0 or 1 / (1 - p), in x's dtype) of packed
    rows x (n, D) at `rows`. It is drawn for the whole padded block
    (B, T, D) and its real rows are kept, so a stream gives each real
    position the mask it gives that position of the padded block."""
    u = rows.pack(rng.random((*rows.shape, x.shape[-1])))
    return inverted_dropout(u >= p, p, x.dtype)
