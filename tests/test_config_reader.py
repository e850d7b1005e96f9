"""The definition-file reader against ``configparser``, its test oracle.

``config._sections`` must return the sections, keys and values that
``ConfigParser`` returns with ``#`` comments, ``=`` as the one delimiter,
no interpolation and keys kept as written.  Hypothesis draws texts from
the accepted grammar (sections, keys, values holding ``#`` with and
without whitespace before it, full-line comments, blank lines, indented
continuations with blank lines inside, and ``\\r``, ``\\x0c`` and
``\\u2028`` inside lines), which both must accept alike, and free texts of
the same pieces, which both must accept alike or both refuse.  Every
``.ini`` of the repository and the README's example are read both ways.
"""

import configparser
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acmsolitons.config import ConfigError, _sections

ROOT = Path(__file__).resolve().parent.parent
FOLDERS = ("src/acmsolitons/fixtures", "perfbench/fixtures", "tests/data")
INI_FILES = sorted(
    path for folder in FOLDERS for path in (ROOT / folder).glob("*.ini")
)


def _oracle(text: str) -> dict:
    parser = configparser.ConfigParser(
        comment_prefixes=("#",),
        inline_comment_prefixes=("#",),
        interpolation=None,
        delimiters=("=",),
    )
    parser.optionxform = str
    parser.read_string(text)
    return {s: dict(parser.items(s)) for s in parser.sections()}


def _readme_ini() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [text] = re.findall(r"^```ini\n(.*?)^```$", readme, re.M | re.S)
    return text


def test_finds_the_definition_files():
    for folder in FOLDERS:
        assert any(p.parent == ROOT / folder for p in INI_FILES), folder


@pytest.mark.parametrize(
    "path", INI_FILES, ids=[p.relative_to(ROOT).as_posix() for p in INI_FILES]
)
def test_definition_files_read_as_configparser_reads_them(path):
    text = path.read_text(encoding="utf-8")
    assert _sections(text, path.name) == _oracle(text)


def test_readme_example_reads_as_configparser_reads_it():
    text = _readme_ini()
    got = _sections(text, "README.md")
    assert got == _oracle(text)
    # its inline comments are cut, whitespace before them included
    assert got["manifold"]["constraints"] == "z - 1"
    assert got["run"]["scalar"] == "f"


SPACE = " \t\r\x0c\u2028"
# value text: # with and without whitespace before it, = and brackets
VALUE = st.text("ab1#=[]" + SPACE, max_size=10)
INDENT = st.text(SPACE, min_size=1, max_size=3)
BLANK = st.sampled_from(["", " ", "\t", "\r", "\x0c", "\u2028 "])
COMMENT = st.builds(lambda pad, text: pad + "#" + text,
                    st.text(SPACE, max_size=2), VALUE)


@st.composite
def _option(draw, key, pad):
    """The lines of one option: its key line indented by ``pad``, then
    continuations (deeper lines, blank lines and comments) of its value."""
    lines = [pad + key + draw(st.sampled_from(["=", " = ", "\t=  ", " ="]))
             + draw(VALUE)]
    for _ in range(draw(st.integers(0, 3))):
        lines.append(draw(st.one_of(
            st.builds(lambda indent, text: pad + indent + text, INDENT, VALUE),
            BLANK, COMMENT,
        )))
    return lines


@st.composite
def _accepted_text(draw):
    names = draw(st.lists(
        st.text("abz_-0 ]", min_size=1, max_size=5).filter(
            lambda n: n.strip() != "DEFAULT"),
        min_size=1, max_size=4, unique=True,
    ))
    lines = draw(st.lists(st.one_of(BLANK, COMMENT), max_size=2))
    for name in names:
        lines.append(f"[{name}]" + draw(st.sampled_from(["", "  # x", "\r"])))
        keys = draw(st.lists(
            st.from_regex(r"[a-z][a-z0-9_#\[\]-]{0,4}", fullmatch=True),
            max_size=4, unique=True,
        ))
        for i, key in enumerate(keys):
            lines += draw(st.lists(st.one_of(BLANK, COMMENT), max_size=1))
            # a header line starts no value, so the first key line may be
            # indented deeper than it
            pad = draw(st.sampled_from(["", " ", "\t "])) if i == 0 else ""
            lines += draw(_option(key, pad))
    return draw(st.sampled_from(["\n", "\n\n"])).join(lines) + draw(
        st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(_accepted_text())
def test_accepted_texts_read_as_configparser_reads_them(text):
    assert _sections(text, "drawn") == _oracle(text)


PIECE = st.one_of(
    st.sampled_from([
        "[s]", "[t]", " [s]", "[s] = 1", "[]", "[a]b]", "k = v", "k=v #c",
        "k = v#c", "  k = v", "\tcont", "k", "= v", "x#y = 1", " # c", "#",
        "\u2028k = v\r", "k = \x0c", "", " ",
    ]),
    st.text("ks=#[] \t\r\x0c\u2028", max_size=6),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(PIECE, max_size=8))
def test_free_texts_are_refused_or_read_alike(lines):
    text = "\n".join(lines)
    try:
        want = _oracle(text)
    except configparser.Error:
        with pytest.raises(ConfigError, match=r"^config parse error: free line \d+: "):
            _sections(text, "free")
    else:
        assert _sections(text, "free") == want
