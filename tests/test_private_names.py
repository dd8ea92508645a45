"""Tests reach into ``levylink`` only through the private names listed here.

A test that calls a private helper ties itself to that helper's shape, and
a reference that calls the code it checks cannot catch a fault in it (a
draw reference that shifted its variates with ``stable_rng._shift`` passed
whatever ``_shift`` did).  A private name is one that starts with ``_`` and
is not a dunder.  Every file under ``tests/`` is read with ``ast`` for the
three ways a test reaches such a name: ``from levylink.<m> import _x``, an
attribute ``<m>._x`` of an imported submodule, and ``setattr(<m>, "_x", ...)``.
"""
import ast
import pkgutil
from pathlib import Path

import levylink

ALLOWED = {
    ("stable_rng", "_BLOCK"): "the block size the blocked-draw tests cut their requests at",
    ("stable_rng", "_standard"): "a spy that records the block sizes sample_n asks for",
    ("noise_stats", "_power"): "patched to stretch one horizon in the calibration tests",
    ("cli", "_float_list"): "the list parser's blank-item rule, tested directly",
    ("trajio", "_refuse_paths"): "the home of the path rules, read by test_path_rules",
    ("link_fit", "_median"): "the partition median, tested against np.median bit for bit",
    ("trajio", "_read_rows"): "the CSV row reader, tested against a file-based parse",
    ("svgplot", "_bounds"): "the plot bounds the polyline reference scales to",
    ("noise_stats", "_KS_COEFF"): "the KS table the selfsim --significance choices must equal",
}

SUBMODULES = {m.name for m in pkgutil.iter_modules(levylink.__path__)}
TEST_FILES = sorted(Path(__file__).parent.glob("*.py"))


def private_uses(source):
    """Each (submodule, name) pair of a private ``levylink`` name that ``source`` reaches."""
    tree = ast.parse(source)
    modules = {f"levylink.{m}": m for m in SUBMODULES}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "levylink":
            modules.update((a.asname or a.name, a.name) for a in node.names if a.name in SUBMODULES)
        elif isinstance(node, ast.Import):
            modules.update((a.asname, modules[a.name]) for a in node.names
                           if a.asname and a.name in modules)
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("levylink."):
            uses += [(node.module[9:], a.name) for a in node.names]
        elif isinstance(node, ast.Attribute) and ast.unparse(node.value) in modules:
            uses.append((modules[ast.unparse(node.value)], node.attr))
        elif (isinstance(node, ast.Call) and ast.unparse(node.func).endswith("setattr")
              and len(node.args) > 1 and ast.unparse(node.args[0]) in modules
              and isinstance(node.args[1], ast.Constant)):
            uses.append((modules[ast.unparse(node.args[0])], node.args[1].value))
    return {(m, name) for m, name in uses
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))}


def test_the_scan_sees_each_way_of_reaching_a_private_name():
    source = (
        "import levylink\n"
        "import levylink.cli as c\n"
        "from levylink import stable_rng as sr, noise_stats\n"
        "from levylink.trajio import _read_rows, format_real\n"
        "sr._shift(r, p)\n"
        "c._float_list('1')\n"
        "levylink.svgplot._bounds([])\n"
        "monkeypatch.setattr(noise_stats, '_power', f)\n"
        "noise_stats.increments, sr.__name__, levylink.__getattr__\n"
    )
    assert private_uses(source) == {
        ("stable_rng", "_shift"), ("cli", "_float_list"), ("trajio", "_read_rows"),
        ("svgplot", "_bounds"), ("noise_stats", "_power"),
    }


def test_tests_use_only_the_listed_private_names():
    stray = sorted((path.name, *use) for path in TEST_FILES
                   for use in private_uses(path.read_text()) if use not in ALLOWED)
    assert stray == [], f"tests reach private levylink names not in ALLOWED: {stray}"
