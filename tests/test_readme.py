"""The README's Python examples and CLI quickstart run as written."""

from __future__ import annotations

import argparse
import re
import shlex
from pathlib import Path

from cglens import cli

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


def cli_quickstart() -> list[tuple[str, list[str]]]:
    """Each ``$ cglens ...`` line of the "Quickstart (CLI)" block, with the lines shown under it."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Quickstart \(CLI\)\n\n```text\n(.*?)^```", text, re.M | re.S).group(1)
    commands = []
    for line in block.splitlines():
        if line.startswith("$ cglens "):
            commands.append((line[len("$ cglens "):], []))
        elif line:
            commands[-1][1].append(line)
    return commands


def shown_matches(shown: list[str], printed: list[str]) -> bool:
    """Line by line, where a ``...`` line stands for any run of lines."""
    if not shown:
        return not printed
    if shown[0] == "...":
        return any(shown_matches(shown[1:], printed[i:]) for i in range(len(printed) + 1))
    return bool(printed) and printed[0] == shown[0] and shown_matches(shown[1:], printed[1:])


def test_shown_matches_elides_only_at_dots():
    assert shown_matches(["a", "...", "d"], ["a", "b", "c", "d"])
    assert shown_matches(["a", "...", "d"], ["a", "d"])
    assert not shown_matches(["a", "...", "d"], ["a", "b", "c"])
    assert not shown_matches(["a", "b"], ["a", "b", "c"])


def test_cli_quickstart_prints_what_it_shows(tmp_path, monkeypatch, capsys):
    commands = cli_quickstart()
    assert len(commands) >= 4
    monkeypatch.chdir(tmp_path)
    for command, shown in commands:
        assert cli.main(shlex.split(command)) == 0, command
        printed = capsys.readouterr().out.splitlines()
        assert shown_matches(shown, printed), (command, printed)


def test_readme_names_exactly_the_cli_flags():
    text = README.read_text(encoding="utf-8")
    named = {flag for line in text.splitlines() if not line.lstrip().startswith("pip install")
             for flag in re.findall(r"(?<![\w-])--[a-z][a-z-]*", line)}
    subparsers = next(action.choices for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    options = {opt for sub in subparsers.values() for action in sub._actions
               for opt in action.option_strings}
    assert named == {opt for opt in options if opt.startswith("--")} - {"--help"}
