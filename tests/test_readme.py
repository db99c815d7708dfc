"""The README's code examples run against the current API."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(section: str) -> str:
    """The first ```python block after the heading ``## <section>``."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {section}\n")
    match = re.compile(r"```python\n(.*?)```", re.S).search(text, start)
    assert match is not None, f"no python block under '## {section}'"
    return match.group(1)


def test_library_snippet_runs(capsys):
    exec(compile(_python_block("Library"), "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
    assert 0.0 < float(printed[0]) < 1.0  # the closed-form risk
    assert printed[1].startswith("RiskReport(")
