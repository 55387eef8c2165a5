"""The README's library example runs against the package's public names."""

import contextlib
import io
import re
from pathlib import Path

from edgelift.lift import ReducibleWithFactors

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(blocks[0], str(README), "exec"), namespace)
    assert isinstance(namespace["verdict"], ReducibleWithFactors)
    assert out.getvalue().strip()
