"""The README's examples run as written: every CLI command and the Python snippet."""

import shlex
from pathlib import Path

import pytest

from lambda_crossing.cli import COMMANDS, OUTDIR_ENV, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _fenced(after: str, lang: str) -> str:
    """The first ```lang block after the given heading line."""
    return README.split(after, 1)[1].split(f"```{lang}\n", 1)[1].split("```", 1)[0]


CLI_COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for line in _fenced("## CLI", "sh").replace("\\\n", " ").splitlines()
    if line.startswith("lambda-crossing ")
]


def test_readme_lists_every_subcommand():
    assert {argv[0] for argv in CLI_COMMANDS} == set(COMMANDS)


@pytest.mark.parametrize("argv", CLI_COMMANDS, ids=[argv[0] for argv in CLI_COMMANDS])
def test_cli_example_runs(tmp_path, monkeypatch, argv):
    monkeypatch.setenv(OUTDIR_ENV, str(tmp_path))
    assert main(argv) == 0
    written = list(tmp_path.iterdir())
    assert written
    for path in written:
        assert path.stat().st_size > 0, path.name


def test_python_snippet_runs(capsys):
    exec(compile(_fenced("## Library overview", "python"), "README.md", "exec"), {})
    assert len(capsys.readouterr().out.split()) == 3
