import os

# Pin BLAS threads before numpy loads anywhere: single-threaded runs are
# what the latency/determinism criteria assume.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np  # noqa: E402 (after the thread pins)
import pytest  # noqa: E402

_ACCEPTANCE_RESULTS: list[tuple[str, str]] = []


def record_acceptance(name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[acceptance] {name}: {status}" + (f"  ({detail})" if detail else "")
    _ACCEPTANCE_RESULTS.append((name, line))
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for _, line in _ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


@pytest.fixture
def eos_banned(monkeypatch):
    """Every model's `decode_step` gives EOS, UNK and MASK no probability,
    so each decode runs to its step limit and emits content tokens alone.
    Returns the list of each call's row count, in call order."""
    from codemix.seq2seq.model import Seq2SeqModel
    from codemix.text import EOS, MASK, UNK
    step, rows = Seq2SeqModel.decode_step, []

    def banned(self, cache, tokens):
        lp = step(self, cache, tokens)
        lp[:, [EOS, UNK, MASK]] = -np.inf
        rows.append(len(tokens))
        return lp

    monkeypatch.setattr(Seq2SeqModel, "decode_step", banned)
    return rows
