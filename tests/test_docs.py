"""The README's code runs as written, so API drift fails here rather than
leaving the docs wrong."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md, Library example", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 5
