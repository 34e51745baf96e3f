"""The README's "Library use" example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README.name} (Library use)", "exec"), {})
    median_abs, rho, p = map(float, capsys.readouterr().out.split())
    assert 0.0 <= median_abs <= 1.0
    assert -1.0 <= rho <= 1.0
    assert 0.0 <= p <= 1.0
