"""The README's examples run as written: the library example prints what its comments say, and every command
line exits as documented."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from chernkit import cli

README = Path(__file__).parents[1] / "README.md"


def _library_example() -> str:
    text = README.read_text()
    section = text[text.index("## Library example") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_example(), str(README), "exec"), {})
    uv, extremum, shapes = out.getvalue().splitlines()
    u, v = (float(x) for x in uv.split())
    assert abs(u - 6.0) < 1e-12 and abs(v - 2.0) < 1e-12  # 6.0, 2.0 on hopf-3
    spread, restarts_used = extremum.split()
    assert abs(float(spread)) < 1e-12 and restarts_used == "0"  # ~0, 0: C_{1,-3} is constant, certified
    assert shapes == "(100,) (3, 3)"


def _command_lines() -> list:
    """The argv of each `chernkit ...` line of the "Command line" block, its comment dropped."""
    text = README.read_text()
    section = text[text.index("## Command line") :]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("chernkit ")]


def test_the_readme_shows_every_command():
    assert {argv[1] for argv in _command_lines()} == {"catalog", "verify", "eval", "extremize"}


@pytest.mark.parametrize("argv", _command_lines(), ids=shlex.join)
def test_readme_command_line_exits_as_documented(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the lines write report.json and read my.metric here
    (tmp_path / "my.metric").write_text("dim 2\ng[1,1] = 1 + abs2(z)\ng[2,2] = 1\n")
    want = 1 if argv[1:] == ["verify", "--tol", "1e-30"] else 0  # the force-fail knob
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv[1:]) == want
