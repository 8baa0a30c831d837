"""The README's Library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "README Library section has no python block"
    namespace = {}
    exec(compile(block.group(1), "README.md", "exec"), namespace)
    assert namespace["frame"].matrix.column(0) == namespace["tangent"]
