"""The README's library quick start runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs(capsys):
    text = README.read_text()
    start = text.index("## Library quick start")
    match = re.compile(r"```python\n(.*?)```", re.S).search(text, start)
    # pad with the lines above the block so tracebacks name README lines
    code = "\n" * text.count("\n", 0, match.start(1)) + match.group(1)
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    assert float(printed[0]) < 1e-3        # identity error
    assert float(printed[1]) > 0.0         # mass parameter
