"""The README's command-line examples, each run as a fresh
``python -m swapsim.cli`` process: the path where ``main`` reads
``sys.argv`` itself, and a check that the examples still run."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from swapsim import cli

README = Path(__file__).parents[1] / "README.md"


def readme_commands():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", text, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("swapsim ")]


COMMANDS = readme_commands()


def test_readme_examples_cover_every_subcommand():
    assert {argv[0] for argv in COMMANDS} == set(cli.COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_example_runs(tmp_path, argv):
    # Fewer trials, and every artifact under tmp_path.
    argv = [
        "200" if prev == "--trials" else str(tmp_path / arg) if prev == "--out" else arg
        for prev, arg in zip([None, *argv], argv)
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "swapsim.cli", *argv], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    if "--out" in argv:
        assert Path(argv[argv.index("--out") + 1] + ".report.json").is_file()
