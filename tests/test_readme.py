"""The README's CLI examples run as written, on the theta document it shows."""

import json
import re
import shlex
from pathlib import Path

import pytest

from hx.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block_after(marker: str, fence: str) -> str:
    """The body of the first fenced block that opens with `fence` after the marker."""
    start = README.index(fence + "\n", README.index(marker)) + len(fence) + 1
    return README[start : README.index("```", start)]


THETA = _block_after("Document schema:", "```json")
COMMANDS = [line for line in _block_after("Commands, with the theta document", "```").splitlines() if line.startswith("hx ")]


def test_the_readme_shows_the_documented_examples():
    assert json.loads(THETA)["edges"] == [[0, 1], [0, 1], [0, 1]]
    assert len(COMMANDS) == 11


@pytest.mark.parametrize("line", COMMANDS, ids=[line.split("#")[0].strip() for line in COMMANDS])
def test_readme_command(tmp_path, monkeypatch, capsys, line):
    monkeypatch.chdir(tmp_path)
    Path("theta.json").write_text(THETA)
    command, _, comment = (part.strip() for part in line.partition("#"))
    code = main(shlex.split(command)[1:])
    out = capsys.readouterr().out
    assert code == 0
    if comment.startswith("{"):  # the printed object, as the README shows it
        assert out == comment + "\n"
    elif "--raw-sign" in command:
        assert json.loads(out)["lambda"] == json.loads(re.search(r"\[.*\]", comment).group())
