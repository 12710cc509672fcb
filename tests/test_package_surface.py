"""Every function and class in src/spbaw is reached from the package
itself, or is on an explicit list of the names only the tests and the
benchmark tracer call.  A second path that nothing runs fails here."""

import ast
from pathlib import Path

import spbaw

# Wrapped by perfbench/tracer.py's LAYERS; the package no longer calls them.
TRACER_ONLY = {"classify", "enumerate_irreducibles", "enumerate_ibr_universe",
               "from_core_quotient_sym", "star_plain"}
# References and helpers of the tests live in tests/testonly.py.
TESTS_ONLY = set()


def unreferenced(package_dir):
    """The functions and classes, dunders excluded, that no Name, Attribute
    or import alias in the package's modules refers to."""
    defined, used = set(), set()
    for path in sorted(Path(package_dir).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return defined - used


def test_every_definition_is_reached_or_listed():
    assert unreferenced(Path(spbaw.__file__).parent) == TRACER_ONLY | TESTS_ONLY
