"""README's Python quick start runs as written."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_quick_start_runs(monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (Python)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(ROOT)  # the block reads its model by a relative path
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["v_opt"] >= namespace["v_base"]
