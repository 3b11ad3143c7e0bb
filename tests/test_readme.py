"""The README's library quick start runs as documented."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(blocks[0], str(README), "exec"), {})
    reference, classical, quantum, queries = printed.getvalue().split()
    assert abs(float(quantum) - float(reference)) <= 1e-2
    assert abs(float(classical) - float(reference)) <= 5e-2
    assert int(queries) > 0
