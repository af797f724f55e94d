"""The README's Python examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_python_examples_run_in_order_and_print_what_they_say(capsys):
    blocks = python_blocks()
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # A `print(...)  # shown` line states its own output.
    shown = [line.split("# ", 1)[1].strip() for block in blocks for line in block.splitlines()
             if line.startswith("print(") and "# " in line]
    assert shown and capsys.readouterr().out.splitlines() == shown
