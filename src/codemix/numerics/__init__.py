"""Numeric substrate: tape tensors, AdamW, seeded RNG."""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from .optim import AdamWState, adamw_step, check_rate, step_tensors
from .tensor import (Tensor, as_tensor, gather_rows, gelu, grad_enabled,
                     layer_norm, linear, log_softmax, matmul, no_grad,
                     softmax)


def make_rng(seed: int) -> np.random.Generator:
    """Project-wide RNG: PCG64 with an explicit seed. Identical seeds and
    call sequences produce identical streams."""
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise DataError(f"seed must be an integer >= 0, got {seed!r}")
    return np.random.Generator(np.random.PCG64(seed))


__all__ = [
    "AdamWState", "Tensor", "adamw_step", "as_tensor", "check_rate",
    "gather_rows", "gelu", "grad_enabled", "layer_norm", "linear",
    "log_softmax", "make_rng", "matmul", "no_grad", "softmax",
    "step_tensors",
]
