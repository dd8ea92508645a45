"""Each rule about a command's paths is written once, in ``trajio._refuse_paths``.

The same-file rule resolves paths with ``os.path.realpath``, ``--outdir`` is
made with ``os.makedirs`` and the write pre-flight asks ``os.stat`` about a
path's parent and ``os.lstat`` about the path.  A module that calls one of
them itself, or a command that opens a file itself, holds a second copy of a
rule, free to drift from the first.
"""
import ast
import importlib
import inspect
import pkgutil

import pytest

import levylink

RULE_CALLS = ("os.path.realpath", "os.makedirs", "os.stat", "os.lstat")
HOME = ("trajio", "_refuse_paths")

SUBMODULES = sorted(
    m.name for m in pkgutil.iter_modules(levylink.__path__) if m.name != "__main__"
)


def dotted(node):
    """``a.b.c`` for a name or attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = dotted(node.value)
        return head and f"{head}.{node.attr}"
    return None


def calls(tree):
    """The dotted name of every call in ``tree`` that has one."""
    return [dotted(node.func) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and dotted(node.func)]


def module_tree(name):
    return ast.parse(inspect.getsource(importlib.import_module(f"levylink.{name}")))


def test_cli_calls_no_path_rule_and_opens_no_file():
    made = [c for c in calls(module_tree("cli")) if c in (*RULE_CALLS, "open")]
    assert made == [], f"levylink.cli checks or opens a path itself: {made}"


@pytest.mark.parametrize("name", SUBMODULES)
def test_only_the_rule_home_calls_the_path_rules(name):
    tree = module_tree(name)
    homes = [node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and (name, node.name) == HOME]
    inside = [c for home in homes for c in calls(home) if c in RULE_CALLS]
    outside = [c for c in calls(tree) if c in RULE_CALLS]
    assert len(outside) == len(inside), f"levylink.{name} calls a path rule outside {HOME}"


def test_the_rule_home_calls_each_rule():
    (home,) = [node for node in ast.walk(module_tree(HOME[0]))
               if isinstance(node, ast.FunctionDef) and node.name == HOME[1]]
    assert sorted(set(calls(home)) & set(RULE_CALLS)) == sorted(RULE_CALLS)
