"""The README's Library example runs as written.

The block is executed verbatim, so a name it imports that leaves the
package's top level, or a return value it unpacks that changes shape,
fails here.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README Library section has no python block"
    return match.group(1)


def test_library_example_runs_verbatim():
    namespace = {}
    exec(compile(library_block(), str(README), "exec"), namespace)
    p_star, q_star = namespace["trace"].final_frequencies()
    assert abs(p_star - 0.948) <= 0.03 and abs(q_star - 0.84) <= 0.03  # as its comment says
