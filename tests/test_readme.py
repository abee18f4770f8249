"""Every ```python block of README.md runs as written, so the quickstart
names only API that exists."""

import pathlib
import re

README = pathlib.Path(__file__).parents[1] / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for k, code in enumerate(blocks, 1):
        exec(compile(code, f"README.md python block {k}", "exec"), {"__name__": "readme"})
