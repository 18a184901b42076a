"""Byte-for-byte CLI output pins: JSON, CSV and table for each command.

Each file under ``tests/golden/`` holds the three renderings of one
command, with the runtime masked.  Regenerate them (only when an output
change is intended) with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import pathlib
import re

import pytest

from primelab.cli import run_command

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

COMMANDS = [
    "count pi --x 100000",
    "count pi --x 50",
    "count pi --x 360",
    "count pi --x 361",
    "count pi --x 16777216",
    "count pi --x 16777217",
    "count twin --x 500",
    "count twin --x 10000",
    "count twin --x 9",
    "count twin --x 6240",
    "count twin --x 6241",
    "count tuple --x 10000 --offsets 2,6",
    "count tuple --x 2000 --offsets 2,6,8",
    "count tuple --x 20 --offsets 2",
    "count mersenne --x 100000",
    "count fermat --x 100000",
    "count mersenne --x 1000000000",
    "count fermat --x 1000000000",
    "estimate psi --x 100000",
    "estimate omega --x 100000",
    "estimate ap-psi --x 10000 --a 1 --b 4",
    "estimate ap-omega --x 10000 --a 1 --b 4",
    "estimate mersenne --x 100000",
    "estimate fermat --x 100000",
    "estimate twin-constant --x 10000",
    "goldbach --even 100 --span --refine 137",
    "goldbach --even 10000 --allow-zero-eta",
    "goldbach --even 1000 --mode guided",
    "schinzel --num 11 --den 13",
    "schinzel --num 22 --den 26",
    "bertrand --alpha 2 --min 1 --max 1000",
    "bertrand --alpha 1.2 --min 4 --max 1000",
    "bertrand --twin --alpha 2 --min 7 --max 500",
    "hl-scan --xmax 300 --ymax 300",
    "xi --sigma 0.75 0.5",
    "xi --sum 100 --s 2",
    "xi --sum 1000 --s 1",
    "crt 2:3 3:5 2:7",
    "crt --allow 3=1,2 --allow 5=1 --hi 100",
    "crt --allow 7=1,2,3,4,5 --allow 11=1,2,3,4,5,6 --lo 1 --hi 20",
    "primes --limit 1000 --list",
    "mersenne-witness --k 3 --n 2",
    "reproduce",
]
FORMATS = ("json", "csv", "table")


def _slug(command: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "-", command).strip("-") + ".txt"


def _mask_runtime(text: str) -> str:
    text = re.sub(r'"runtime_ms": \d+', '"runtime_ms": "*"', text)
    return re.sub(r"^\(\d+ ms\)$", "(* ms)", text, flags=re.MULTILINE)


def render(command: str) -> str:
    """All three renderings of one command, as stored in its golden file."""
    blocks = []
    for fmt in FORMATS:
        argv = command.split() + ["--format", fmt]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run_command(argv)
        blocks.append(f"$ primelab {' '.join(argv)}\n[exit {code}]\n"
                      f"{_mask_runtime(out.getvalue())}")
    return "\n".join(blocks)


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_matches_golden(command):
    want = (GOLDEN_DIR / _slug(command)).read_text(encoding="utf-8")
    assert render(command) == want


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for command in COMMANDS:
        (GOLDEN_DIR / _slug(command)).write_text(render(command), encoding="utf-8")
