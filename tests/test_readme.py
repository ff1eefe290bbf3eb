"""The README's Python quick start runs against the current API."""

from __future__ import annotations

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_quick_start_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), flags=re.DOTALL)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["comp"].violations == []
    assert capsys.readouterr().out
