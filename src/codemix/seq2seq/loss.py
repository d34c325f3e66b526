"""Label-smoothed cross-entropy over teacher-forced logits."""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from ..numerics import Tensor, add, log_softmax, mul, take_along_last, tsum
from ..text import PAD


def label_smoothed_ce(logits: Tensor, target_ids, epsilon: float = 0.1,
                      ignore_index: int = PAD) -> Tensor:
    """Mean over non-ignored positions of -sum_k q_k log p_k with
    q = (1 - epsilon) * one_hot + epsilon / |V|.

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
    keep = (targets != ignore_index).astype(logits.dtype)
    n_valid = float(keep.sum())
    if n_valid == 0:
        raise DataError("label_smoothed_ce: every position is ignored (PAD)")

    logp = log_softmax(logits, axis=-1)
    gold = take_along_last(logp, targets)
    per_pos = mul(gold, -(1.0 - epsilon))
    if epsilon > 0.0:
        per_pos = add(per_pos, mul(tsum(logp, axis=-1),
                                   -(epsilon / vocab_size)))
    masked = mul(per_pos, keep)
    return mul(tsum(masked), 1.0 / n_valid)
