"""Every function and class in src/spbaw is reached from the package
itself, or is on an explicit list of the names only the tests and the
benchmark tracer call.  A second path that nothing runs fails here, as
does a parameter that its function never reads, and an assert statement,
which python -O would strip."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

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


def unread_parameters(package_dir):
    """(module, function, parameter) for every parameter of a function or
    lambda, self and cls excluded, that its body never reads."""
    out = set()
    for path in sorted(Path(package_dir).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            out.update((path.stem, name, p) for p in params
                       if p not in ("self", "cls") and p not in read)
    return out


def test_every_parameter_is_read():
    assert unread_parameters(Path(spbaw.__file__).parent) == set()


def test_no_assert_statement():
    # python -O strips assert statements; every check raises explicitly
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(spbaw.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_class_is_looked_up_by_scan():
    # a label's classes are walked in step with labelspace.class_mults; the
    # lookups one class at a time are gone, and nothing defines or calls them
    lookups = {"_value_at", "mult", "core_of"}
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(spbaw.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if getattr(node, "name", None) in lookups or getattr(node, "id", None) in lookups
             or isinstance(node, ast.Attribute) and node.attr in lookups]
    assert found == []


@pytest.mark.parametrize("call", [
    "gf.GF(9, 1)",
    "fieldctx.order_mod(2, 9)",
    "gf.GF(3, 1).inv(0)",
    "partcomb.partition_of_beta((3, 3, 1))",
    "symbcomb.sym_core_quotient(symbcomb.LSymbol((2, 0), (1,)), 2, 'bogus')",
    "gf.GF(3, 2).pow(2, -1)",
    # a core at X-1 of rank 2 takes 5 of a multiplicity of 1
    "labelspace.block_weights(ctx := fieldctx.make_context(3, 1, 5),"
    " (b := labelspace.enumerate_blocks(ctx, 1)[0])._replace("
    "kappa=b.kappa[:1] + ((b.kappa[1][0], symbcomb.LSymbol((2,), ())),)))",
])
def test_bad_argument_is_refused_under_python_O(call):
    # each call once returned a wrong value, or never returned, under -O
    script = f"""
import sys
if __debug__:
    sys.exit(3)
from spbaw import fieldctx, gf, labelspace, partcomb, symbcomb
try:
    print("returned", repr({call}))
except ValueError as exc:
    print("ValueError:", exc)
"""
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ValueError: "), proc.stdout


def module_state(package_dir):
    """file:line of every global statement and of every module-level
    binding of an empty {}, [], set(), dict() or list(): memo tables live
    on the functions that compute them, as functools.lru_cache."""
    def empty(node):
        if isinstance(node, (ast.Dict, ast.List)):
            return not (node.keys if isinstance(node, ast.Dict) else node.elts)
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "dict", "list")
                and not node.args and not node.keywords)

    found = []
    for path in sorted(Path(package_dir).glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Global)]
        found += [f"{path.name}:{node.lineno}" for node in tree.body
                  if isinstance(node, (ast.Assign, ast.AnnAssign))
                  and node.value is not None and empty(node.value)]
    return found


def test_no_module_level_state():
    assert module_state(Path(spbaw.__file__).parent) == []
