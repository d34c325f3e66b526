"""Transformer encoder-decoder with tied embeddings and learned positions.

Conventions used everywhere in the package:
  encoder input   = source tokens + EOS (+ PAD)
  decoder input   = BOS + target tokens (+ PAD)
  decoder labels  = target tokens + EOS, one per real decoder position

With equal source/target token counts (the autoencoder augmentation) this
makes cross-attention matrices square, which the attention analysis relies
on. Pre-norm residual blocks are used for stable from-scratch training.

Batches are padded (B, T) id arrays, but the model runs on packed rows:
every real (non-PAD) position is one row of an (n, D) array, in row-major
(b, t) order (`numerics.tensor.RowLayout`). Embeddings, projections, layer
norms, GELU, dropout, residual adds and the tied output projection touch
only those rows, and attention alone scatters them into padded blocks
under its masks, so padding costs no position-wise work. Dropout masks
are drawn for the padded blocks, so a dropout stream gives each real
position the mask it would give it in the padded forward.

`encode` and `decode` run one layer stack, with gradients on or off. Each
pre-norm residual block (`_attend`, `_ffn`) is one tape node whose forward
is the plain-array helpers the cached decoder (`decode_step`) calls and
whose backward is written by hand; with gradients off a block is its plain
forward and one Tensor. Every pass, the cached decoder's included, reads
the parameters through one binding (`Seq2SeqModel.weights`) of the layers
that `LAYER_BLOCKS` describes.

A block's tape node keeps for backward only what backward cannot rebuild
cheaply and exactly: its layer norm's normalized input and 1 / sigma,
attention's padded Q, K, V, probabilities and context (W_o's input), the
GELU's input and tanh term, and each dropout mask as booleans. Backward
rebuilds the rest (the pre-norm output h, the float dropout masks,
attention's dropped probabilities, the GELU's output) with the forward's
own ops on the same arrays, so every gradient keeps its bits.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ..errors import DataError, ShapeError
from ..numerics import Tensor, grad_enabled, layer_norm, linear
from ..numerics.tensor import (RowLayout, _make, _op_check, attend,
                               attention_names, attention_probs,
                               checked_pass, dropout_mask, gelu_backward,
                               gelu_forward, inverted_dropout,
                               layer_norm_backward, layer_norm_forward,
                               linear_backward, log_softmax_forward,
                               merge_heads, scatter_rows, split_heads)
from ..text import BOS, EOS, PAD, Vocab, encode

NEG_INF = -1e9  # additive attention mask; finite so tensors stay finite


@dataclass
class Seq2SeqConfig:
    vocab: Vocab
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 256
    max_len: int = 32
    dropout_prob: float = 0.1
    init_std: float = 0.02

    def __post_init__(self):
        for f in fields(self):  # every int field is a size
            size = getattr(self, f.name)
            if f.type == "int" and not (isinstance(size, (int, np.integer))
                                        and size >= 1):
                raise DataError(f"{f.name} must be an integer >= 1, "
                                f"got {size!r}")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise DataError(f"dropout_prob must be in [0, 1), "
                            f"got {self.dropout_prob!r}")
        if self.d_model % self.n_heads != 0:
            raise DataError(f"d_model {self.d_model} not divisible by "
                            f"n_heads {self.n_heads}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    def scalar_items(self) -> dict[str, object]:
        """Every field but the vocabulary, in field order, then its mode."""
        items = {f.name: getattr(self, f.name) for f in fields(self)
                 if f.name != "vocab"}
        return {**items, "vocab_mode": self.vocab.mode}


# The pre-norm residual blocks of every encoder and decoder layer, in
# order, as (layer norm, body): the body "ffn" is a feed-forward block, any
# other an attention block. `_param_shapes` and `Seq2SeqModel.weights`
# both read it.
LAYER_BLOCKS = {"enc": (("ln1", "attn"), ("ln2", "ffn")),
                "dec": (("ln1", "self"), ("ln2", "cross"), ("ln3", "ffn"))}


def _layer_blocks(cfg: Seq2SeqConfig, side: str
                  ) -> list[list[tuple[str, str]]]:
    """The (layer norm, body) name prefixes of each `side` layer's blocks."""
    n = cfg.n_enc_layers if side == "enc" else cfg.n_dec_layers
    return [[(f"{side}{i}.{ln}", f"{side}{i}.{body}")
             for ln, body in LAYER_BLOCKS[side]] for i in range(n)]


def _param_shapes(cfg: Seq2SeqConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, kind) for every parameter, in creation order.
    kind is one of weight/bias/ln_gain/ln_bias."""
    d, f, v, m = cfg.d_model, cfg.d_ff, len(cfg.vocab), cfg.max_len
    out: list[tuple[str, tuple[int, ...], str]] = [
        ("tok_emb", (v, d), "weight"),
        ("enc_pos", (m, d), "weight"),
        ("dec_pos", (m, d), "weight"),
    ]

    def ln(prefix: str):
        out.extend([(f"{prefix}.g", (d,), "ln_gain"),
                    (f"{prefix}.b", (d,), "ln_bias")])

    for side in LAYER_BLOCKS:
        for layer in _layer_blocks(cfg, side):
            for norm, body in layer:
                ln(norm)
                if body.endswith(".ffn"):
                    out.extend([(f"{body}.w1", (d, f), "weight"),
                                (f"{body}.b1", (f,), "bias"),
                                (f"{body}.w2", (f, d), "weight"),
                                (f"{body}.b2", (d,), "bias")])
                else:
                    out.extend((f"{body}.w{n}", (d, d), "weight")
                               for n in "qkvo")
                    out.extend((f"{body}.b{n}", (d,), "bias") for n in "qkvo")
        ln(f"{side}_lnf")
    return out


class Seq2SeqModel:
    """Parameters plus forward passes. Training mutates parameters through
    the optimizer (single writer); inference is read-only.

    Every pass reads the parameters through `weights`, which the first
    pass binds and the model keeps. It holds the parameter Tensors, not
    their arrays, and no code replaces a tensor: the optimizer, `restore`
    and the gradient checks write `.data` in place, and a pass reads
    `.data` as it runs, so the binding never goes stale. An int8 model
    (`quant`) binds the float32 copy of each stored `QuantizedTensor`."""

    def __init__(self, config: Seq2SeqConfig, params: dict):
        self.config = config
        self.params = params

    @cached_property
    def weights(self) -> Weights:
        """The parameters bound into the layers of `LAYER_BLOCKS`, each
        block with the names its ops' checks use; built by the first pass,
        which looks each parameter up once and dequantizes an int8 one."""
        def get(name: str) -> Tensor:
            t = self.params[name]
            return t if isinstance(t, Tensor) else t.dequantized()

        def lin(w: str, b: str) -> Linear:
            return Linear(get(w), get(b), f"linear {w} output")

        def norm(prefix: str) -> Norm:
            return Norm(get(f"{prefix}.g"), get(f"{prefix}.b"),
                        f"layer_norm {prefix} output")

        def body(prefix: str) -> Attention | FFN:
            if prefix.endswith(".ffn"):
                return FFN(lin(f"{prefix}.w1", f"{prefix}.b1"),
                           lin(f"{prefix}.w2", f"{prefix}.b2"),
                           f"gelu {prefix} output")
            return Attention(*(lin(f"{prefix}.w{n}", f"{prefix}.b{n}")
                               for n in "qkvo"), attention_names(prefix))

        def layers(side: str) -> tuple:
            return tuple(tuple((norm(ln), body(b)) for ln, b in layer)
                         for layer in _layer_blocks(self.config, side))

        return Weights(get("tok_emb"), get("enc_pos"), get("dec_pos"),
                       layers("enc"), norm("enc_lnf"), layers("dec"),
                       norm("dec_lnf"))

    @property
    def quantized(self) -> bool:
        """True for an int8 model: some weight is stored quantized."""
        return not all(isinstance(t, Tensor) for t in self.params.values())

    @property
    def model_id(self) -> str:
        c = self.config
        return (f"seq2seq-{c.n_enc_layers}x{c.n_dec_layers}-d{c.d_model}"
                + ("-int8" if self.quantized else ""))

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: t.data.copy() for k, t in self.params.items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for k, t in self.params.items():
            np.copyto(t.data, snap[k])

    # -- forward ----------------------------------------------------------

    def _block(self, x: Tensor, norm: Norm, body,
               linears: tuple[Linear, ...], rows: RowLayout, rng,
               extra: tuple[Tensor, ...] = ()) -> Tensor:
        """The pre-norm residual block x + dropout(body(LN(x))) on packed
        rows at `rows`, LN being `norm`, as one tape node. `body(h)`
        returns its output and the function taking that output's gradient
        and h to (h's gradient, the gradients of the weights and biases of
        `linears` and of the tensors `extra`, in that order). The dropout
        mask is drawn after whatever `body` draws.

        For backward the node keeps the layer norm's xhat and 1 / sigma
        and the dropout mask as booleans. It rebuilds h as
        `layer_norm_forward` computes it, xhat * gain + bias, and the float
        mask with `inverted_dropout`: the same ops on the same arrays, so
        the same bits, while the tape holds neither."""
        h, xhat, inv = layer_norm_forward(x.data, norm.g.data, norm.b.data)
        _op_check(h, norm.name)
        y, body_grad = body(h)
        p, keep = self.config.dropout_prob, None
        if rng is not None and p > 0:
            keep = dropout_mask(p, rng, rows, y)
            y = y * keep
            keep = keep > 0
        # walked last to first: V, then K, before x, as on the per-op tape
        parents = () if not grad_enabled() else (
            x, norm.g, norm.b, *(t for lin in linears for t in lin[:2]),
            *extra)

        def backward(g):
            gy = g if keep is None else g * inverted_dropout(keep, p, g.dtype)
            gh, grads = body_grad(gy, xhat * norm.g.data + norm.b.data)
            gx, gg, gb = layer_norm_backward(gh, norm.g.data, xhat, inv)
            for t, gt in zip(parents, (g + gx, gg, gb, *grads)):
                if t.requires_grad:
                    t.accumulate_grad(gt)

        return _make(x.data + y, parents, backward, "residual add")

    def _attend(self, x: Tensor, block: tuple[Norm, Attention],
                rows: RowLayout, mask: np.ndarray, rng,
                kv: tuple[Tensor, ...] = (), kv_rows: RowLayout | None = None,
                capture: list | None = None) -> Tensor:
        """The attention block x + dropout(W_o attention(LN(x))) (see
        `_block`): self-attention, or, given the projected encoder keys and
        values kv = (k, v) packed at `kv_rows`, cross-attention."""
        norm, attn = block
        p = 0.0 if rng is None else self.config.dropout_prob

        def body(h):
            q = _linear_np(h, attn.q)
            k, v = ((t.data for t in kv) if kv else
                    (_linear_np(h, attn.k), _linear_np(h, attn.v)))
            ctx, ctx_grad = attend(q, k, v, rows, kv_rows or rows, mask,
                                   self.config.n_heads, attn.names, p, rng,
                                   capture)

            def grad(g, h):
                gctx, gwo, gbo = linear_backward(g, ctx, attn.o.w.data)
                gq, gk, gv = ctx_grad(gctx)
                gh, gwq, gbq = linear_backward(gq, h, attn.q.w.data)
                if kv:
                    return gh, (gwq, gbq, gwo, gbo, gk, gv)
                ghk, gwk, gbk = linear_backward(gk, h, attn.k.w.data)
                ghv, gwv, gbv = linear_backward(gv, h, attn.v.w.data)
                # h's gradient sums in the tape's order: q, k, then v
                return (gh + ghk + ghv,
                        (gwq, gbq, gwk, gbk, gwv, gbv, gwo, gbo))

            return _linear_np(ctx, attn.o), grad

        linears = (attn.q, attn.o) if kv else attn[:4]
        return self._block(x, norm, body, linears, rows, rng, kv)

    def _ffn(self, x: Tensor, block: tuple[Norm, FFN], rows: RowLayout,
             rng) -> Tensor:
        """The feed-forward block x + dropout(FFN(LN(x))) (see `_block`)."""
        norm, ffn = block
        return self._block(x, norm, lambda h: _ffn_np(h, ffn), ffn[:2], rows,
                           rng)

    def _rows(self, ids: np.ndarray) -> RowLayout:
        """The real (non-PAD) positions of a padded (B, T) id array."""
        if ids.shape[1] > self.config.max_len:
            raise DataError(f"sequence length {ids.shape[1]} exceeds "
                            f"max_len {self.config.max_len}")
        return RowLayout(ids != PAD)

    def _embed(self, ids: np.ndarray, rows: RowLayout, pos: Tensor,
               what: str) -> Tensor:
        """Token plus position embedding of each packed row, as one tape
        node `what` whose backward scatters its gradient into both tables
        (`scatter_rows`)."""
        tok = self.weights.tok_emb
        tok_idx, pos_idx = ids.reshape(-1)[rows.idx], rows.idx % ids.shape[1]

        def backward(g):
            for t, idx in ((tok, tok_idx), (pos, pos_idx)):
                if t.requires_grad:
                    t.accumulate_grad(scatter_rows(g, idx, t.data))

        return _make(tok.data[tok_idx] + pos.data[pos_idx], (tok, pos),
                     backward, what)

    @staticmethod
    def _checked(run, what: str, rng=None, capture: list | None = None):
        """`checked_pass(run, what)` for a pass that may draw from the
        dropout stream `rng` and append to `capture`: a replay starts from
        the stream's state and the list's length before the pass, so it
        draws the same masks and adds each weight array once."""
        state = None if rng is None else rng.bit_generator.state
        n = None if capture is None else len(capture)

        def reset():
            if rng is not None:
                rng.bit_generator.state = state
            if capture is not None:
                del capture[n:]

        return checked_pass(run, what, reset)

    def encode(self, src_ids: np.ndarray,
               rng=None) -> tuple[Tensor, np.ndarray]:
        """Returns (encoder states, additive key mask (B,1,1,S)): the states
        are the packed rows (n_src, D) of the real source positions, which
        the key mask's zeros mark (`source_rows`). Dropout runs when a
        dropout stream `rng` is given. A model pass: the states are checked
        once, and NaN or Inf in them replays the pass with every op
        checked, so the NonFiniteError names the op."""
        src_ids = np.asarray(src_ids, dtype=np.int64)
        rows = self._rows(src_ids)
        key_mask = np.where(src_ids == PAD, NEG_INF, 0.0)
        key_mask = key_mask[:, None, None, :].astype(self.dtype)
        states = self._checked(
            lambda: self._encode(src_ids, rows, key_mask, rng),
            "encoder states", rng)
        return states, key_mask

    def _encode(self, src_ids: np.ndarray, rows: RowLayout,
                key_mask: np.ndarray, rng) -> Tensor:
        w = self.weights
        x = self._embed(src_ids, rows, w.enc_pos, "encoder embedding")
        for attn, ffn in w.enc:
            x = self._attend(x, attn, rows, key_mask, rng)
            x = self._ffn(x, ffn, rows, rng)
        return layer_norm(x, w.enc_lnf.g, w.enc_lnf.b)

    def decode(self, enc_out: Tensor, enc_key_mask: np.ndarray,
               dec_in: np.ndarray, rng=None,
               capture: list | None = None) -> Tensor:
        """Teacher-forced decoder pass over the padded decoder input
        (B, T), given `encode`'s output; returns the logits of the real
        (non-PAD) decoder positions, (n_dec, vocab) in row-major (b, t)
        order, which `pad_batch`'s labels follow. Dropout runs when a
        dropout stream `rng` is given. A `capture` list gets each layer's
        row-stochastic cross-attention weights (B, heads, decoder
        positions, encoder positions), before dropout; only the real rows
        and columns carry meaning. A model pass, like `encode`: the logits
        are checked once, and a replay names the op that made a NaN or Inf
        (it starts from the dropout stream's state before the pass and
        leaves one weight array per layer in `capture`)."""
        dec_in = np.asarray(dec_in, dtype=np.int64)
        rows = self._rows(dec_in)
        return self._checked(
            lambda: self._decode(enc_out, enc_key_mask, dec_in, rows, rng,
                                 capture),
            "decoder logits", rng, capture)

    def _decode(self, enc_out: Tensor, enc_key_mask: np.ndarray,
                dec_in: np.ndarray, rows: RowLayout, rng,
                capture: list | None) -> Tensor:
        T = dec_in.shape[1]
        src_rows = source_rows(enc_key_mask)
        causal = np.triu(np.full((T, T), NEG_INF, dtype=self.dtype), k=1)
        causal = causal[None, None, :, :]
        w = self.weights
        x = self._embed(dec_in, rows, w.dec_pos, "decoder embedding")
        for attn, cross, ffn in w.dec:
            x = self._attend(x, attn, rows, causal, rng)
            # tape ops of their own: enc_out's gradient sums in tape order
            kv = tuple(linear(enc_out, lin.w, lin.b)
                       for lin in (cross[1].k, cross[1].v))
            x = self._attend(x, cross, rows, enc_key_mask, rng, kv, src_rows,
                             capture)
            x = self._ffn(x, ffn, rows, rng)
        x = layer_norm(x, w.dec_lnf.g, w.dec_lnf.b)
        # Tied output projection: logits = x @ tok_emb^T
        return linear(x, w.tok_emb, transpose_w=True)

    # -- incremental decoding ----------------------------------------------
    #
    # Plain numpy, no tape, in the model's dtype, on the helpers the
    # blocks are built from. Rows are hypotheses; each row is computed as
    # its own (1, D) product (stacked (N, 1, D) @ W matmuls run one BLAS
    # call per row) and cross-attention is taken per query, so a row's
    # values never depend on which other rows share the step.
    #
    # The helpers read the blocks of the model's binding (`weights`), so a
    # step looks up no parameter and formats no name.

    def start_decoding(self, encoded: list[tuple[Tensor, np.ndarray]]
                       ) -> DecoderCache:
        """Cache for decoding one BOS row per query. `encoded` holds each
        query's own `encode` output (encoder states (S, D), key mask);
        every decoder layer's cross-attention keys and values are computed
        here, once per query."""
        cfg = self.config
        cross = []
        for enc_out, key_mask in encoded:
            enc = source_rows(key_mask).pad(enc_out.data)
            kv = []
            for _, (_, attn), _ in self.weights.dec:
                k, v = (split_heads(_linear_np(enc, lin), cfg.n_heads)
                        for lin in (attn.k, attn.v))
                kv.append((k.transpose(0, 1, 3, 2), v))
            mask = key_mask if np.any(key_mask) else None
            cross.append((kv, mask))
        empty = np.zeros((len(encoded), cfg.n_heads, 0, cfg.head_dim),
                         dtype=self.dtype)
        return DecoderCache(cross, [(empty, empty)] * cfg.n_dec_layers,
                            [1] * len(encoded))

    def decode_step(self, cache: DecoderCache,
                    tokens: np.ndarray) -> np.ndarray:
        """Feed each row its latest token (BOS first) and return the rows'
        next-token log-probabilities (N, vocab). Appends the step's
        self-attention keys and values to the cache. A model pass: the
        log-probabilities are checked once, and NaN or Inf in them puts the
        cache's self-attention keys and values back and replays the step
        with every op checked, so the NonFiniteError names the op; the
        cache's step count advances only on success."""
        cfg = self.config
        t = cache.steps
        if t >= cfg.max_len:
            raise DataError(f"decoder position {t} exceeds max_len "
                            f"{cfg.max_len}")
        self_kv = list(cache.self_kv)

        def reset():
            cache.self_kv[:] = self_kv

        logp = checked_pass(lambda: self._decode_step_np(cache, tokens),
                            "decoder log-probabilities", reset)
        cache.steps += 1
        return logp

    def _decode_step_np(self, cache: DecoderCache,
                        tokens: np.ndarray) -> np.ndarray:
        n_heads, w = self.config.n_heads, self.weights
        x = w.tok_emb.data[tokens][:, None, :] + w.dec_pos.data[cache.steps]
        _op_check(x, "decoder embedding output")
        for i, ((ln1, attn), (ln2, cross), (ln3, ffn)) in enumerate(w.dec):
            a, cache.self_kv[i] = _self_attention_np(
                _ln_np(x, ln1), attn, n_heads, cache.self_kv[i])
            x = _residual_np(x, a)

            q = split_heads(_linear_np(_ln_np(x, ln2), cross.q), n_heads)
            parts, start = [], 0
            for n, (kv, mask) in zip(cache.counts, cache.cross):
                kt, v = kv[i]
                parts.append(attention_probs(q[start:start + n], kt, mask,
                                             cross.names) @ v)
                start += n
            x = _residual_np(x, _linear_np(merge_heads(np.concatenate(parts)),
                                           cross.o))

            x = _residual_np(x, _ffn_np(_ln_np(x, ln3), ffn)[0])
        x = _ln_np(x, w.dec_lnf)
        logits = x @ w.tok_emb.data.T
        _op_check(logits, "output projection")
        logp = log_softmax_forward(logits)[:, 0]
        _op_check(logp, "log_softmax output")
        return logp

    def forward(self, src_ids: np.ndarray, dec_in: np.ndarray, rng=None,
                capture: list | None = None) -> Tensor:
        """`encode` then `decode`: the logits of the real decoder
        positions, (n_dec, vocab) in row-major (b, t) order. Dropout runs
        in both when a dropout stream `rng` is given; a `capture` list gets
        the decoder's cross-attention weights, one array per layer."""
        enc_out, key_mask = self.encode(src_ids, rng)
        return self.decode(enc_out, key_mask, dec_in, rng, capture)

    @property
    def dtype(self):
        return self.weights.tok_emb.dtype


def source_rows(key_mask: np.ndarray) -> RowLayout:
    """The real source positions of `encode`'s key mask (B, 1, 1, S): the
    layout of its packed encoder states."""
    return RowLayout(key_mask[:, 0, 0, :] == 0)


class Linear(NamedTuple):
    """A projection x @ w + b, with the name its output is checked under."""
    w: Tensor
    b: Tensor
    name: str


class Norm(NamedTuple):
    """A layer norm's gain and offset, and its output's check name."""
    g: Tensor
    b: Tensor
    name: str


class FFN(NamedTuple):
    up: Linear
    down: Linear
    name: str              # of the GELU's output


class Attention(NamedTuple):
    q: Linear
    k: Linear
    v: Linear
    o: Linear
    names: tuple[str, str]  # `attention_probs`'s check names


class Weights(NamedTuple):
    """A model's parameters bound into its layers (`Seq2SeqModel.weights`):
    each layer is a tuple of its (Norm, Attention or FFN) blocks in
    `LAYER_BLOCKS` order."""
    tok_emb: Tensor
    enc_pos: Tensor
    dec_pos: Tensor
    enc: tuple
    enc_lnf: Norm
    dec: tuple
    dec_lnf: Norm


def _self_attention_np(h: np.ndarray, attn: Attention, n_heads: int,
                       past: tuple[np.ndarray, np.ndarray]):
    """Self-attention of rows h (N, T, D) over the keys and values `past`
    of earlier positions and its own: (output, (K, V) with h's appended)."""
    q, k, v = (split_heads(_linear_np(h, lin), n_heads) for lin in attn[:3])
    k = np.concatenate([past[0], k], axis=2)
    v = np.concatenate([past[1], v], axis=2)
    ctx = merge_heads(attention_probs(q, k.transpose(0, 1, 3, 2), None,
                                      attn.names) @ v)
    return _linear_np(ctx, attn.o), (k, v)


def _ffn_np(h: np.ndarray, ffn: FFN):
    """FFN(h), and the function taking its gradient and h to (h's
    gradient, the gradients (w1, b1, w2, b2)). That function keeps the
    GELU's input u and tanh term t, and rebuilds its output from them as
    `gelu_forward` computes it."""
    u = _linear_np(h, ffn.up)
    f, t = gelu_forward(u)
    _op_check(f, ffn.name)

    def grad(g, h):
        f = 0.5 * u * (1.0 + t)
        gf, gw2, gb2 = linear_backward(g, f, ffn.down.w.data)
        gh, gw1, gb1 = linear_backward(gelu_backward(gf, u, t), h,
                                       ffn.up.w.data)
        return gh, (gw1, gb1, gw2, gb2)

    return _linear_np(f, ffn.down), grad


def _linear_np(x: np.ndarray, lin: Linear) -> np.ndarray:
    out = x @ lin.w.data + lin.b.data
    _op_check(out, lin.name)
    return out


def _ln_np(x: np.ndarray, ln: Norm) -> np.ndarray:
    out = layer_norm_forward(x, ln.g.data, ln.b.data)[0]
    _op_check(out, ln.name)
    return out


def _residual_np(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x + y
    _op_check(out, "residual add output")
    return out


@dataclass
class DecoderCache:
    """Keys and values of an incremental decode (see
    Seq2SeqModel.decode_step). Rows are grouped by query in query order:
    the k-th live query owns the next `counts[k]` rows."""

    cross: list            # per live query: (per-layer (K^T, V), key mask)
    self_kv: list          # per layer: (K, V), each (rows, H, steps, dh)
    counts: list[int]
    steps: int = 0

    def reorder(self, parents: np.ndarray, counts: list[int]) -> None:
        """Keep rows `parents` (row indices, grouped by query) as the new
        rows; `counts` gives each live query's new row count, and a query
        with none leaves the cache."""
        self.cross = [c for c, n in zip(self.cross, counts) if n]
        self.counts = [n for n in counts if n]
        self.self_kv = [(k[parents], v[parents]) for k, v in self.self_kv]


def init_model(config: Seq2SeqConfig, rng: np.random.Generator,
               dtype=np.float32) -> Seq2SeqModel:
    """All weight matrices ~ N(0, init_std); biases and layer-norm offsets
    zero; layer-norm gains one. Draw order is fixed, so a seed pins the
    weights bit-for-bit."""
    params: dict[str, Tensor] = {}
    for name, shape, kind in _param_shapes(config):
        if kind == "weight":
            data = rng.normal(0.0, config.init_std, size=shape)
        elif kind == "ln_gain":
            data = np.ones(shape)
        else:
            data = np.zeros(shape)
        params[name] = Tensor(data.astype(dtype), requires_grad=True)
    return Seq2SeqModel(config, params)


def forward_teacher_forced(model: Seq2SeqModel, src_ids, tgt_ids,
                           capture_attn: bool = False):
    """Single-example teacher-forced pass.

    `src_ids` is the full encoder input and `tgt_ids` the full decoder input
    (callers BOS-prefix the target themselves; labels are the EOS-suffixed
    target). Returns logits of shape (len(tgt_ids), vocab) for a PAD-free
    decoder input, plus the per-layer cross-attention list of `forward`
    when `capture_attn`, else None.
    """
    src = np.asarray([src_ids], dtype=np.int64)
    tgt = np.asarray([tgt_ids], dtype=np.int64)
    capture = [] if capture_attn else None
    return model.forward(src, tgt, capture=capture), capture


def encode_source(text: str, vocab: Vocab) -> list[int]:
    """Encoder input ids for a text: tokens + EOS."""
    return encode(text, vocab) + [EOS]


def pad_batch(src_seqs: list[list[int]], tgt_seqs: list[list[int]],
              max_len: int) -> dict[str, np.ndarray]:
    """Pad plain (BOS/EOS-free) id sequences into training arrays.

    src     = tokens + EOS + PAD...   (B, S)
    dec_in  = BOS + tokens + PAD...   (B, T)
    labels  = tokens + EOS of every example, concatenated (n_dec,): the
              label of each real decoder position in row-major (b, t)
              order, the rows `Seq2SeqModel.forward` returns logits for
    """
    if len(src_seqs) != len(tgt_seqs):
        raise ShapeError("sources and targets differ in length")
    S = max(len(x) + 1 for x in src_seqs)
    T = max(len(x) + 1 for x in tgt_seqs)
    if S > max_len or T > max_len:
        raise DataError(f"batch length (src {S}, tgt {T}) exceeds max_len {max_len}")
    B = len(src_seqs)
    src = np.full((B, S), PAD, dtype=np.int64)
    dec_in = np.full((B, T), PAD, dtype=np.int64)
    labels: list[int] = []
    for i, (s, t) in enumerate(zip(src_seqs, tgt_seqs)):
        src[i, :len(s)] = s
        src[i, len(s)] = EOS
        dec_in[i, 0] = BOS
        dec_in[i, 1:1 + len(t)] = t
        labels += t
        labels.append(EOS)
    return {"src": src, "dec_in": dec_in,
            "labels": np.asarray(labels, dtype=np.int64)}


def make_batch(vocab: Vocab, sources: list[str], targets: list[str],
               max_len: int) -> dict[str, np.ndarray]:
    """Encode raw texts and pad them into training arrays (see pad_batch)."""
    return pad_batch([encode(s, vocab) for s in sources],
                     [encode(t, vocab) for t in targets], max_len)
