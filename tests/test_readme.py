"""The README's library quickstart runs as documented."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL)
    assert len(blocks) == 1, "expected one python block in the README"
    return blocks[0]


def test_readme_quickstart_runs_and_prints_the_documented_values():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quickstart(), str(README), "exec"), {"__name__": "readme"})
    lines = out.getvalue().splitlines()
    assert lines[:2] == ["1/48", "(I)"]
    assert float(lines[2]) >= 1 / 48  # the bound dominates the exact error
