"""The README's library quickstart runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_quickstart_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["mapped"].shape == namespace["mapped_sgd"].shape == (5, 3)
    assert namespace["fallback"].shape == (5,)
