"""Puts the package's source directory first on sys.path and on PYTHONPATH,
so the tests, and the interpreters they start, import spbaw from this
checkout without an install or a PYTHONPATH of their own.  Neither the
tests nor those interpreters write bytecode into the checkout: a
`__pycache__` left in src/spbaw would speed up every later import from
it."""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
