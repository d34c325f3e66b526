"""Label-smoothed cross-entropy over teacher-forced logits."""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from ..numerics import Tensor, add, log_softmax, mul, take_along_last, tsum


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
    logp = log_softmax(logits, axis=-1)
    gold = take_along_last(logp, targets)
    per_pos = mul(gold, -(1.0 - epsilon))
    if epsilon > 0.0:
        per_pos = add(per_pos, mul(tsum(logp, axis=-1),
                                   -(epsilon / vocab_size)))
    return mul(tsum(per_pos), 1.0 / targets.size)
