"""Symmetric per-tensor int8 weight quantization.

Only 2-D attention/FFN weight matrices are quantized; embeddings, biases
and layer norms stay float32. A quantized model exposes the same forward
API as its float parent: each weight is dequantized to float32 on the
model's first pass, which binds the float32 copies for every later pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Tensor
from .seq2seq.model import Seq2SeqModel

_F32_ONLY = ("tok_emb", "enc_pos", "dec_pos")


@dataclass
class QuantizedTensor:
    payload: np.ndarray          # int8, original shape
    scale: np.float32            # positive; dequant = payload * scale


def quantize_int8(tensor) -> QuantizedTensor:
    """scale = max|x| / 127 (1.0 for an all-zero tensor); payload is
    round(x / scale) clamped to [-127, 127]. The element-wise dequantization
    error is at most scale / 2 (division done in float64 so the bound is
    exact up to one ulp of the payload product)."""
    x = tensor.data if isinstance(tensor, Tensor) else np.asarray(tensor)
    x = x.astype(np.float32)
    peak = np.max(np.abs(x)) if x.size else 0.0
    scale = np.float32(peak / 127.0) if peak > 0 else np.float32(1.0)
    ratio = x.astype(np.float64) / np.float64(scale)
    payload = np.clip(np.round(ratio), -127, 127).astype(np.int8)
    return QuantizedTensor(payload, scale)


def dequantize(q: QuantizedTensor) -> np.ndarray:
    return q.payload.astype(np.float32) * q.scale


def _quantizable(name: str, shape: tuple[int, ...]) -> bool:
    return name not in _F32_ONLY and len(shape) == 2


class QuantizedSeq2Seq(Seq2SeqModel):
    """Seq2SeqModel whose weight matrices are stored as int8 + scale. Each
    is dequantized on the model's first pass, whose binding
    (`Seq2SeqModel.weights`) keeps the float32 tensors, so loading and
    quantizing stay cheap and each weight is dequantized once. Inference
    only."""

    def __init__(self, config, params: dict[str, Tensor],
                 qparams: dict[str, QuantizedTensor]):
        super().__init__(config, params)
        self.qparams = qparams

    def p(self, name: str) -> Tensor:
        q = self.qparams.get(name)
        return self.params[name] if q is None else Tensor(dequantize(q))

    @property
    def model_id(self) -> str:
        return super().model_id + "-int8"


def quantize_model(model: Seq2SeqModel) -> QuantizedSeq2Seq:
    params: dict[str, Tensor] = {}
    qparams: dict[str, QuantizedTensor] = {}
    for name, t in model.params.items():
        if _quantizable(name, t.data.shape):
            qparams[name] = quantize_int8(t)
        else:
            params[name] = Tensor(t.data.astype(np.float32).copy())
    return QuantizedSeq2Seq(model.config, params, qparams)
