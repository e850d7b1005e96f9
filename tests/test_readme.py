"""The README's examples run as written.

Its ``ini`` block loads as a fixture, every ``verify`` line of its ``sh``
blocks parses as a command line, and the functions it lists under
"Fixture files" are those the expression parser accepts.
"""

import re
import shlex
from pathlib import Path

from acmsolitons.cli import _parse_args
from acmsolitons.config import load_config_text
from acmsolitons.expr import FUNCTIONS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8"
)


def _blocks(lang: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)


def test_ini_block_loads():
    [text] = _blocks("ini")
    config = load_config_text(text, "README.md")
    assert config.name == "kenmotsu3"


def test_verify_lines_parse():
    lines = [line for block in _blocks("sh") for line in block.splitlines()
             if line.startswith("verify ")]
    assert lines
    for line in lines:
        _parse_args(shlex.split(line)[1:])


def test_function_list_is_the_parser_s():
    section = README.split("## Fixture files", 1)[1]
    listed = re.search(r"functions `([^`]*)`", section).group(1).split()
    assert listed == sorted(FUNCTIONS)
