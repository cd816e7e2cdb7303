"""The README's Quick start runs as written."""

import pathlib
import re
import shlex

from propmech.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("## Quick start", 1)[1].split("\n## ", 1)[0]


def test_readme_quick_start_runs_as_written(tmp_path, monkeypatch, capsys):
    section = _quick_start()
    (python,) = re.findall(r"```python\n(.*?)```", section, re.S)
    (shell,) = re.findall(r"```sh\n(.*?)```", section, re.S)
    monkeypatch.chdir(tmp_path)
    exec(compile(python, str(README), "exec"), {})
    lines = shell.strip().splitlines()
    assert lines and all(line.startswith("propmech ") for line in lines)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
    capsys.readouterr()
