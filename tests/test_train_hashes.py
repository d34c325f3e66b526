"""scripts_calib/train_hashes.py runs end to end on this tree's src and
prints its eight labelled fingerprints. The values are not pinned: BLAS
kernels round differently on other hosts, and the script is for comparing
two trees on one host."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LABELS = ["stages", "ce", "js", "crf", "detect", "translit", "int8", "xattn"]


def test_prints_eight_labelled_fingerprints():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts_calib" / "train_hashes.py"),
         str(ROOT / "src")], capture_output=True, text=True, timeout=120,
        check=True).stdout
    lines = [line.split() for line in out.splitlines()]
    assert [line[0] for line in lines] == LABELS, out
    assert all(len(line) == 2 and re.fullmatch(r"[0-9a-f]{16}", line[1])
               for line in lines), out
