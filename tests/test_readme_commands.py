"""Every ``cherednik ...`` line of README's "Command line" block exits 0."""

import pathlib
import re
import shlex

import pytest

from cherednik.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
SECTION = README.read_text().split("## Command line", 1)[1].split("\n## ")[0]
# the first sh block holds the commands, the first text block the lines of
# the argument file job.args they use
COMMANDS = [shlex.split(line, comments=True)[1:]
            for line in re.search(r"```sh\n(.*?)```", SECTION, re.S)
            .group(1).splitlines() if line.startswith("cherednik ")]
JOB_ARGS = re.search(r"```text\n(.*?)```", SECTION, re.S).group(1)


def test_readme_block_has_commands():
    assert len(COMMANDS) >= 7
    assert any("@job.args" in argv for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_exits_0(tmp_path, monkeypatch, capsys, argv):
    (tmp_path / "job.args").write_text(JOB_ARGS)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert capsys.readouterr().out
