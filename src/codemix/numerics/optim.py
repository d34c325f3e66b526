"""AdamW with bias correction and decoupled weight decay."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DataError, ShapeError
from . import tensor
from .tensor import Tensor


@dataclass
class AdamWState:
    """Per-parameter first/second moments plus the step counter."""

    lr: float = 3e-4
    weight_decay: float = 0.0
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        check_rate("lr", self.lr, positive=True)
        check_rate("weight_decay", self.weight_decay)


def check_rate(name: str, value, positive: bool = False) -> None:
    """DataError naming `name` unless `value` is > 0 (`positive`) or >= 0:
    a learning rate <= 0 or a negative weight decay runs gradient ascent.
    NaN and +Inf pass; the step's finite check rejects what they write."""
    if value < 0 or (positive and value == 0):
        raise DataError(f"{name} must be {'> 0' if positive else '>= 0'}, "
                        f"got {value!r}")


def adamw_step(params: dict[str, np.ndarray | Tensor],
               grads: dict[str, np.ndarray],
               state: AdamWState) -> AdamWState:
    """One AdamW update, in place on the parameter arrays.

    p -= lr * (mhat / (sqrt(vhat) + 1e-8) + weight_decay * p), with
    beta1 = 0.9 and beta2 = 0.999. Missing gradients are treated as zero
    (decay still applies). A NaN or Inf in an updated parameter (from a
    non-finite lr, weight decay or gradient) raises NonFiniteError naming
    it; parameters earlier in `params` have been updated by then.
    """
    state.t += 1
    b1, b2 = 0.9, 0.999
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        arr = p.data if isinstance(p, Tensor) else p
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(arr)
        if g.shape != arr.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape "
                             f"{arr.shape} for '{name}'")
        if name not in state.m:
            state.m[name] = np.zeros_like(arr)
            state.v[name] = np.zeros_like(arr)
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + 1e-8)
        if state.weight_decay:
            update = update + state.weight_decay * arr
        arr -= state.lr * update
        tensor._assert_finite(arr, f"parameter {name!r} after the "
                                   "optimizer step")
    return state


def step_tensors(params: dict[str, Tensor], state: AdamWState) -> AdamWState:
    """AdamW over tape tensors, reading grads from `.grad` and clearing them."""
    grads = {k: t.grad for k, t in params.items() if t.grad is not None}
    for t in params.values():
        t.zero_grad()
    return adamw_step(params, grads, state)
