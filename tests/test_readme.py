"""The README's library example runs as written and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

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
