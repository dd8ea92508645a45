"""Shared set-up: every ``python -m levylink`` child imports the package under test.

The CLI tests start their children with ``cwd=tmp_path``. A relative
``PYTHONPATH=src`` does not resolve from there, and an installed copy of
``levylink`` would be tested in place of this tree. So the directory that
holds the package this process imported goes first on the children's
``PYTHONPATH`` for the whole session.

The report header names the platform fingerprint that the golden bytes
are keyed by, so a log shows which constant set a run compared against.
Next to it stands the package's line count, the total ``wc -l
src/levylink/*.py`` prints, so every log records the size of the code it
tested.
"""
import os
from pathlib import Path

import pytest

import levylink
from platform_key import fingerprint


def platform_line():
    numpy, machine, x86_v4 = fingerprint()
    modules = Path(levylink.__file__).resolve().parent.glob("*.py")
    lines = sum(p.read_bytes().count(b"\n") for p in modules)  # as wc -l counts
    return (f"levylink platform: numpy {numpy}, {machine}, X86_V4 (AVX-512) loops {x86_v4}; "
            f"src/levylink/*.py {lines} lines")


def pytest_report_header(config):
    return platform_line()


def pytest_terminal_summary(terminalreporter, config):
    if config.get_verbosity() < 0:  # -q leaves out the report header
        terminalreporter.write_line(platform_line())


@pytest.fixture(scope="session", autouse=True)
def package_root():
    """The directory that holds the imported ``levylink``, first on ``PYTHONPATH``.

    Existing ``PYTHONPATH`` entries stay after it; the variable is restored
    when the session ends.
    """
    root = Path(levylink.__file__).resolve().parent.parent
    entries = (str(root), os.environ.get("PYTHONPATH"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(e for e in entries if e))
        yield root
