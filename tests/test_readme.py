"""The README's command-line examples run as written, in order."""

import re
import shlex
from pathlib import Path

from codedcache.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def command_line_examples() -> list[list[str]]:
    """Each ``codedcache ...`` line of the first code block under "Command line"."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.DOTALL).group(1)
    return [
        shlex.split(line, comments=True)
        for line in block.splitlines()
        if line.startswith("codedcache ")
    ]


def test_command_line_examples_exit_zero(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    examples = command_line_examples()
    assert len(examples) >= 6
    for argv in examples:
        code = main(argv[1:])
        err = capsys.readouterr().err
        assert code == 0, f"{shlex.join(argv)} exited {code}: {err}"
