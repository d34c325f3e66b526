"""Checkpoint container: a directory holding

  config.txt    human-readable `key = value` model configuration
  vocab.txt     one token per line, in id order
  manifest.tsv  name <TAB> dtype <TAB> shape <TAB> byte offset <TAB> scale
  weights.bin   raw little-endian payload blob

f32 payloads round-trip byte-exactly; an int8 model's `QuantizedTensor`s are i8
entries with a scale column. Loading rejects, with CheckpointError, a
config.txt without `quantized` (1 exactly when manifest.tsv lists an i8 entry,
else 0) or `vocab_mode` ("word" or "char"), a vocab.txt whose first lines
are not the special tokens in id order (a CRLF file), that lists a token
twice or whose last line has no newline, a scale on an f32 entry, an i8 scale
that is not a finite number > 0, an int8 payload byte of -128 (quantization
clamps to [-127, 127]), an int8 entry for a tensor quantization keeps in
float32, a tensor listed twice, more layers in config.txt than manifest.tsv has
tensors, and byte ranges that are not back to back in manifest order from byte
0 to the end of weights.bin (a gap, an overlap or trailing bytes).
"""

from __future__ import annotations

import math
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import CheckpointError, DataError, ShapeError
from .numerics import Tensor
from .quant import QuantizedTensor, _quantizable
from .seq2seq.model import Seq2SeqConfig, Seq2SeqModel, _param_shapes
from .text import SPECIAL_TOKENS, Vocab, read_utf8, split_lines

_FORMAT = "seq2seq-checkpoint-v1"
_DTYPES = {"f32": np.dtype("<f4"), "i8": np.dtype("int8")}


def _write_kv(path: Path, items: dict[str, object]) -> None:
    lines = [f"{k} = {v}\n" for k, v in items.items()]
    path.write_text("".join(lines), encoding="utf-8")


def read_kv(path: Path) -> dict[str, str]:
    """`key = value` lines (`split_lines`), `#` comments; a key once."""
    out: dict[str, str] = {}
    first: dict[str, int] = {}
    for lineno, line in enumerate(split_lines(read_utf8(path)), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CheckpointError(f"{path}: bad key-value line {lineno}: {line!r}")
        k, v = (part.strip() for part in line.split("=", 1))
        if first.setdefault(k, lineno) != lineno:
            raise CheckpointError(f"{path}: key {k!r} repeats (lines "
                                  f"{first[k]} and {lineno})")
        out[k] = v
    return out


def save_checkpoint(model: Seq2SeqModel, path) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    cfg = model.config

    items: dict[str, object] = {"format": _FORMAT}
    items["quantized"] = int(model.quantized)
    items.update(cfg.scalar_items())
    _write_kv(path / "config.txt", items)

    (path / "vocab.txt").write_text(
        "".join(t + "\n" for t in cfg.vocab.id_to_token), encoding="utf-8")

    manifest_lines = []
    blob = bytearray()
    for name, _, _ in _param_shapes(cfg):
        t = model.params[name]
        if isinstance(t, QuantizedTensor):
            arr, dtype, scale = t.payload, "i8", repr(float(t.scale))
        else:
            arr = t.data.astype("<f4")
            dtype, scale = "f32", ""
        shape_s = "x".join(str(s) for s in arr.shape)
        manifest_lines.append(f"{name}\t{dtype}\t{shape_s}\t{len(blob)}\t{scale}\n")
        blob.extend(arr.tobytes())
    (path / "manifest.tsv").write_text("".join(manifest_lines), encoding="utf-8")
    (path / "weights.bin").write_bytes(bytes(blob))


def _parse_manifest(path: Path):
    """manifest.tsv's rows, one a line (`split_lines`)."""
    rows = []
    for lineno, line in enumerate(split_lines(read_utf8(path)), 1):
        parts = line.split("\t")
        if len(parts) != 5:
            raise CheckpointError(f"{path}: bad manifest line {lineno}: {line!r}")
        name, dtype, shape_s, offset_s, scale_s = parts
        if dtype not in _DTYPES:
            raise CheckpointError(f"{path}: unknown dtype {dtype!r} for tensor "
                                  f"'{name}'")
        if dtype == "f32" and scale_s:
            raise CheckpointError(f"{path}: f32 tensor '{name}' has scale {scale_s!r}")
        try:
            shape = tuple(int(s) for s in shape_s.split("x"))
            offset = int(offset_s)
        except ValueError:
            raise CheckpointError(f"{path}: bad manifest line {lineno}: "
                                  f"{line!r}") from None
        rows.append((name, dtype, shape, offset, scale_s))
    return rows


def _parse_scale(path: Path, name: str, scale_s: str) -> np.float32:
    """An int8 tensor's scale: a finite positive float32 whose product with
    the largest payload magnitude (127) stays finite."""
    try:
        scale = float(scale_s)
    except ValueError:
        scale = math.nan
    with np.errstate(over="ignore"):
        scale32 = np.float32(scale)
        peak = np.float32(127.0) * scale32
    if not (scale32 > 0 and np.isfinite(peak)):
        raise CheckpointError(f"{path}: int8 tensor '{name}' has bad scale "
                              f"{scale_s!r}; need a finite number > 0")
    return scale32


def _read_tokens(path: Path) -> list[str]:
    """vocab.txt's tokens, one a line in id order, each line ending in
    LF, the first lines spelling `SPECIAL_TOKENS`. Not cut by
    `split_lines`: a token may hold a CR."""
    text = read_utf8(path / "vocab.txt")
    if text and not text.endswith("\n"):
        raise CheckpointError(f"{path}: vocab.txt does not end in a newline, "
                              f"so its last token may be cut short")
    tokens = text.split("\n")[:-1]
    for i, special in enumerate(SPECIAL_TOKENS):  # as save_checkpoint wrote
        if tokens[i:i + 1] != [special]:
            got = repr(tokens[i]) if i < len(tokens) else "missing"
            raise CheckpointError(f"{path}: vocab.txt line {i + 1} is {got}, "
                                  f"not the special token {special!r}")
    first: dict[str, int] = {}
    for lineno, token in enumerate(tokens, 1):
        if first.setdefault(token, lineno) != lineno:
            raise CheckpointError(f"{path}: vocab.txt repeats token "
                                  f"{token!r} (lines {first[token]} and "
                                  f"{lineno})")
    return tokens


def load_checkpoint(path):
    """Load a Seq2SeqModel, float32 or int8, saved by save_checkpoint."""
    path = Path(path)
    for fname in ("config.txt", "vocab.txt", "manifest.tsv", "weights.bin"):
        if not (path / fname).exists():
            raise CheckpointError(f"{path}: missing {fname}")
    kv = read_kv(path / "config.txt")
    if kv.get("format") != _FORMAT:
        raise CheckpointError(f"{path}: unknown checkpoint format "
                              f"{kv.get('format')!r}")
    tokens = _read_tokens(path)
    try:
        quantized = kv["quantized"]
        cfg = Seq2SeqConfig(vocab=Vocab(tokens, mode=kv["vocab_mode"]), **{
            f.name: (int if f.type == "int" else float)(kv[f.name])
            for f in fields(Seq2SeqConfig) if f.name != "vocab"})
    except KeyError as e:
        raise CheckpointError(f"{path}: config.txt missing key {e}") from None
    except (ValueError, DataError) as e:
        raise CheckpointError(f"{path}: bad config.txt: {e}") from None

    rows = _parse_manifest(path / "manifest.tsv")
    layers = cfg.n_enc_layers + cfg.n_dec_layers
    if layers > len(rows):  # each layer has tensors of its own
        raise CheckpointError(f"{path}: config.txt has {layers} layers, "
                              f"manifest.tsv only {len(rows)} tensors")
    expected = {name: shape for name, shape, _ in _param_shapes(cfg)}
    seen = set()
    for name, *_ in rows:
        if name not in expected:
            raise CheckpointError(f"{path}: unexpected tensor '{name}'")
        if name in seen:
            raise CheckpointError(f"{path}: tensor '{name}' listed twice")
        seen.add(name)
    missing = set(expected) - seen
    if missing:
        raise CheckpointError(f"{path}: manifest missing tensors: "
                              f"{sorted(missing)}")
    blob = (path / "weights.bin").read_bytes()
    params: dict[str, Tensor | QuantizedTensor] = {}
    end = 0  # where the previous tensor's bytes end
    for name, dtype, shape, offset, scale_s in rows:
        if shape != expected[name]:
            raise ShapeError(f"{path}: tensor '{name}' has shape {shape}, "
                             f"config implies {expected[name]}")
        if dtype == "i8" and not _quantizable(name, shape):
            raise CheckpointError(f"{path}: tensor '{name}' is int8, but "
                                  f"quantization keeps it float32")
        np_dtype = _DTYPES[dtype]
        count = math.prod(shape)
        if offset != end:
            raise CheckpointError(f"{path}: tensor '{name}' starts at byte "
                                  f"{offset}, not at {end}, where the "
                                  f"tensor before it ends")
        end = offset + count * np_dtype.itemsize
        if end > len(blob):
            raise CheckpointError(f"{path}: truncated container: tensor "
                                  f"'{name}' needs bytes [{offset}, "
                                  f"{end}) of {len(blob)}")
        arr = np.frombuffer(blob, dtype=np_dtype, count=count,
                            offset=offset).reshape(shape)
        if dtype == "i8":
            if np.any(arr == -128):
                raise CheckpointError(f"{path}: int8 tensor '{name}' holds "
                                      f"-128, which quantization never writes")
            params[name] = QuantizedTensor(arr.copy(),
                                           _parse_scale(path, name, scale_s))
        else:
            arr = arr.astype(np.float32)
            if not np.isfinite(arr).all():
                raise CheckpointError(f"{path}: tensor '{name}' holds NaN "
                                      f"or Inf")
            params[name] = Tensor(arr, requires_grad=True, what=None)
    if len(blob) > end:
        raise CheckpointError(f"{path}: {len(blob) - end} trailing bytes "
                              f"after the last tensor in weights.bin")
    model = Seq2SeqModel(cfg, params)
    if quantized != str(int(model.quantized)):
        raise CheckpointError(
            f"{path}: config.txt has quantized = {quantized}, but "
            + ("manifest.tsv lists int8 tensors, so it must be 1"
               if model.quantized else
               "manifest.tsv lists no int8 tensor, so it must be 0"))
    return model
