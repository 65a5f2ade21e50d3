"""Byte-for-byte guard on CLI outputs.

Each case runs one CLI command in process and compares its stdout and exit
code with what is recorded under tests/golden/.  Performance changes must
keep these outputs identical.  After an intended output change, rewrite the
recorded files with `PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from equilab.cli import main

from conftest import GALLERY

GOLDEN = Path(__file__).parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

CASES = (
    [["analyze", f"gallery:{d}", "--strong", "--with-co-line"] for d in GALLERY]
    + [["analyze", "gallery:cycle(60)", "--strong", "--with-co-line", "--text"],
       ["crosscheck", "--max-n", "6"]]
    # a small budget pins the order in which each verb spends it
    + [["analyze", "gallery:cycle(6)", "--strong", "--with-co-line", "--budget", "30",
        "--text"],
       ["crosscheck", "--max-n", "5", "--samples", "5", "--seed", "1", "--budget", "50"]]
)


def slug(argv) -> str:
    return re.sub(r"[^0-9a-z]+", "_", " ".join(argv).lower()).strip("_")


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("argv", CASES, ids=slug)
def test_output_matches_golden(argv):
    code, out = run_cli(argv)
    name = slug(argv)
    assert code == json.loads(EXIT_CODES.read_text())[name]
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for argv in CASES:
        codes[slug(argv)], out = run_cli(argv)
        (GOLDEN / f"{slug(argv)}.out").write_bytes(out.encode())
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
