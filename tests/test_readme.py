"""The README's examples: its spec block parses to the sample it describes,
and its library snippet prints the values its comments state."""

import contextlib
import io
import re
from pathlib import Path

from weylzeta.specfile import load_spec_file, parse_spec_text

ROOT = Path(__file__).resolve().parent.parent


def _blocks(language: str) -> list:
    """The fenced code blocks of README.md in language ('' for none)."""
    text = (ROOT / "README.md").read_text()
    return [body for lang, body in re.findall(r"```(\w*)\n(.*?)```", text, re.S) if lang == language]


def test_the_readme_spec_block_is_the_a2_klein_sample():
    # the commented key/value block, inline comments and all, is the
    # sample file with its optional order spelled out
    (block,) = [b for b in _blocks("") if "kind = klein" in b]
    sample = load_spec_file(str(ROOT / "samples" / "a2_klein.spec"))
    assert sample.order is None
    assert parse_spec_text(block) == sample._replace(order=48)


def test_the_readme_library_snippet_prints_what_it_says():
    (snippet,) = _blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(snippet, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    # each print's trailing comment is the line it prints
    stated = [line.split("# ", 1)[1].strip() for line in snippet.splitlines() if line.startswith("print(")]
    assert printed == stated == [
        "3 3 pi1",
        "((6, -1), (12, -1))",
        "(2, [1], [1, 0, 0, -1, 0, 0, -1, 0, 0, 1])",
    ]
