"""Symmetric per-tensor int8 weights: a storage format of `Seq2SeqModel`.

Only 2-D attention/FFN weight matrices are quantized; embeddings, biases
and layer norms stay float32. An int8 model, inference only, holds a
`QuantizedTensor` in `params` in place of each quantized weight; its first
pass, which binds `Seq2SeqModel.weights`, dequantizes each to float32 once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .numerics import Tensor
from .seq2seq.model import Seq2SeqModel

_F32_ONLY = ("tok_emb", "enc_pos", "dec_pos")


@dataclass
class QuantizedTensor:
    payload: np.ndarray          # int8, original shape
    scale: np.float32            # positive; dequant = payload * scale

    def dequantized(self) -> Tensor:
        """The float32 weight. `dequantize` is looked up by name at each
        call, so a wrapper set on `quant.dequantize` sees every call."""
        return Tensor(dequantize(self))


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


def quantize_model(model: Seq2SeqModel) -> Seq2SeqModel:
    """An int8 copy of a float model; other parameters are copied."""
    if model.quantized:
        raise DataError("model is already int8-quantized")
    return Seq2SeqModel(model.config, {
        name: quantize_int8(t) if _quantizable(name, t.data.shape)
        else Tensor(t.data.astype(np.float32))
        for name, t in model.params.items()})
