"""Transformer seq2seq: model, label-smoothed loss, greedy/beam decoding."""

from .decode import (BeamResult, beam_search, beam_search_batch,
                     greedy_decode, translate, translate_corpus)
from .loss import label_smoothed_ce
from .model import (Seq2SeqConfig, Seq2SeqModel, check_length,
                    encode_source, forward_teacher_forced, init_model,
                    make_batch, pad_batch)

__all__ = [
    "BeamResult", "Seq2SeqConfig", "Seq2SeqModel",
    "beam_search", "beam_search_batch", "check_length", "encode_source",
    "forward_teacher_forced", "greedy_decode", "init_model",
    "label_smoothed_ce", "make_batch", "pad_batch",
    "translate", "translate_corpus",
]
