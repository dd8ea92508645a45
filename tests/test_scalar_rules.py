"""Each scalar input rule is written once, in ``levylink.stable_rng``.

``positive_real``, ``non_negative_real`` and ``finite_real`` own the wording
of their refusals.  A module that writes one of those messages itself has a
second copy of the rule, free to drift from the first.  The power rule of
the scaling law, x**(1/alpha) of a positive real x that fits a float64, is
written once too, in ``noise_stats._power``.
"""
import ast
import importlib
import inspect
import pkgutil

import pytest

import levylink

RULE_PHRASES = ("must be a positive real", "must be a non-negative real", "must be finite")
HOME = "stable_rng"

SUBMODULES = sorted(
    m.name for m in pkgutil.iter_modules(levylink.__path__) if m.name != "__main__"
)


def string_constants(name):
    """Every string literal of ``levylink.<name>``, f-string parts included."""
    tree = ast.parse(inspect.getsource(importlib.import_module(f"levylink.{name}")))
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]


@pytest.mark.parametrize("name", [n for n in SUBMODULES if n != HOME])
def test_no_module_writes_a_scalar_rule_message_itself(name):
    written = [s for s in string_constants(name) for p in RULE_PHRASES if p in s]
    assert written == [], f"levylink.{name} words a scalar rule itself: {written}"


def test_the_rule_home_writes_each_message_once():
    strings = string_constants(HOME)
    assert [sum(p in s for s in strings) for p in RULE_PHRASES] == [1, 1, 1]


POWER_PHRASE = "**(1/alpha) overflows float64"


def test_the_power_rule_is_worded_once_inside_noise_stats_power():
    written = {n: sum(POWER_PHRASE in s for s in string_constants(n)) for n in SUBMODULES}
    assert {n: k for n, k in written.items() if k} == {"noise_stats": 1}
    tree = ast.parse(inspect.getsource(importlib.import_module("levylink.noise_stats")))
    (power,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_power"
    ]
    assert any(
        isinstance(node, ast.Constant) and POWER_PHRASE in str(node.value)
        for node in ast.walk(power)
    )
