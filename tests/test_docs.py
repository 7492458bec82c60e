"""README's Python API block runs as written and prints what it says."""

import contextlib
import io
import os
import re
import time

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_python_api_block_runs():
    with open(README) as fh:
        text = fh.read()
    section = text[text.index("## Python API"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    print(f"README block ran in {time.perf_counter() - t0:.2f} s")
    lines = out.getvalue().splitlines()
    assert lines[0] == "6"                                  # the residual's degree
    assert 1.0 - 0.25 <= float(lines[1]) < 2.0              # decay slope, "~1.3"
    assert abs(float(lines[7]) + 1.5) <= 0.05               # blow-up slope -(m+2)/2
    assert lines[8] == "[1000.]"                            # 1/delta(0) at eps = 1e-3
    assert lines[-1] == "True True"
