"""The README's Python quick start runs against the current API."""

from __future__ import annotations

import json
import os
import re

import jsonschema

import perturbex.harness as harness
from perturbex.cli import main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_quick_start_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), flags=re.DOTALL)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["comp"].violations == []
    assert capsys.readouterr().out


def test_certify_config_example_runs(tmp_path):
    """The README's certify config satisfies the certify schema and exits 0."""
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```json\n(.*?)```", fh.read(), flags=re.DOTALL)
    assert len(blocks) == 1
    payload = json.loads(blocks[0])
    jsonschema.validate(payload, harness.COMMAND_SCHEMAS["certify"])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(blocks[0])
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
