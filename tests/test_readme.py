"""The README's code runs as printed: its "Library use" block is executed
as it stands, so an API change that breaks it fails here."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block():
    """The first ``python`` code block under the ``## Library use`` heading."""
    section = README.read_text().split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs(capsys):
    exec(compile(library_use_block(), "README.md (Library use)", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # one "k estimate" line per step, then the posterior at 9 points as a
    # printed array, which may wrap
    for k, line in enumerate(lines[:50], 1):
        step, estimate = line.split()
        assert int(step) == k and math.isfinite(float(estimate))
    values = " ".join(lines[50:])
    assert values.startswith("[") and values.endswith("]")
    assert len([float(v) for v in values[1:-1].split()]) == 9
