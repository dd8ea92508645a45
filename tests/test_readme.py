"""The README's library example runs as written against the package under test."""
import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# Appended to the example: every package-level name must resolve.
RESOLVE_ALL = """
import levylink
missing = [name for name in levylink.__all__ if not hasattr(levylink, name)]
assert not missing, missing
"""


def test_readme_library_example_runs(tmp_path):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    res = subprocess.run(
        [sys.executable, "-c", blocks[0] + RESOLVE_ALL],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
