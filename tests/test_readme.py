"""README's Python examples run as written.

The blocks run in order in one namespace, as a reader pasting them into
one session would run them: a later block uses names an earlier one
defined (the lockstep example uses the first block's `graph` and `cfg`).
"""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
    assert "decided_n_true" in capsys.readouterr().out
