"""The library example in README.md runs as printed."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text("utf-8"), re.S)
    assert len(blocks) == 1
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), namespace)
    assert out.getvalue() == "ConjugacyStatus.CONJUGATE\n"
    verdict = namespace["verdict"]
    assert verdict.straight is False
    subset = namespace["witness"].subset
    assert {subset.system.names[i] for i in subset.members} == {"t"}
