"""Label-smoothed cross-entropy over teacher-forced logits, as one tape node
that does the float operations of the composed tape ops (log-softmax, gold
pick, smoothing term, mean) in their order, so its values and gradients are
theirs bit for bit. It checks the log-probabilities, as `log_softmax
output`, and the loss."""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from ..numerics import Tensor
from ..numerics.tensor import (_make, _op_check, log_softmax_backward,
                               log_softmax_forward)


def label_smoothed_ce(logits: Tensor, target_ids,
                      epsilon: float = 0.1) -> Tensor:
    """Mean over positions of -sum_k q_k log p_k with
    q = (1 - epsilon) * one_hot + epsilon / |V|.

    `logits` (n, V) are the real decoder positions `Seq2SeqModel.forward`
    returns and `target_ids` (n,) their labels (`pad_batch`), so every
    position counts: padding never reaches the loss.
    epsilon=0 reduces to standard cross-entropy. Uniform predictions give
    ln|V| for any epsilon.
    """
    if not 0.0 <= epsilon < 1.0:
        raise DataError(f"label smoothing epsilon must be in [0, 1), got {epsilon}")
    targets = np.asarray(target_ids, dtype=np.int64)
    if targets.shape != logits.shape[:-1]:
        raise DataError(f"targets shape {targets.shape} does not match logits "
                        f"{logits.shape}")
    vocab_size = logits.shape[-1]
    logp = log_softmax_forward(logits.data)
    _op_check(logp, "log_softmax output")
    # each constant in the logits' dtype, as a tape op's Python number is
    gold_w = np.asarray(-(1.0 - epsilon), logp.dtype)
    smooth_w = np.asarray(-(epsilon / vocab_size), logp.dtype)
    mean_w = np.asarray(1.0 / targets.size, logp.dtype)
    per_pos = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    per_pos = per_pos * gold_w
    if epsilon > 0.0:
        per_pos = per_pos + logp.sum(axis=-1) * smooth_w
    loss = per_pos.sum() * mean_w

    def backward(g):
        # the gold scatter onto zeros, then the smoothing term: the order
        # in which the composed loss's tape added them
        g_pos = g * mean_w
        g_logp = np.zeros_like(logp)
        flat = g_logp.reshape(-1, vocab_size)
        flat[np.arange(targets.size), targets.reshape(-1)] += g_pos * gold_w
        if epsilon > 0.0:
            g_logp += g_pos * smooth_w
        return (log_softmax_backward(g_logp, logp),)

    return _make(np.asarray(loss), (logits,), backward, "label_smoothed_ce")
