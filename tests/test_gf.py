"""The encoding of F_(p^f) that report bytes at f >= 2 depend on, and the
layering of spbaw.gf under the rest of the package."""

import ast
from itertools import product
from pathlib import Path

import pytest

from spbaw import ffpoly, gf
from spbaw.fieldctx import make_context

# every F_(p^f) with p odd, f >= 2 and q <= 125
FIELDS = [(p, f) for p in (3, 5, 7, 11) for f in (2, 3, 4) if p ** f <= 125]


def _encoding(coeffs, p):
    return sum(c * p ** i for i, c in enumerate(coeffs))


@pytest.mark.parametrize("p,f", FIELDS)
def test_modulus_is_the_smallest_irreducible_by_integer_encoding(p, f):
    # from Rabin's test on every monic polynomial over F_p, not the sieve
    ctx = make_context(p, 1, 5 if p == 3 else 3)
    degree_f = [g for g in ffpoly.enumerate_irreducibles(ctx, f) if len(g) == f + 1]
    want = min(degree_f, key=lambda g: _encoding(g[:-1], p))
    assert tuple(gf.GF(p, f).modulus) == want


@pytest.mark.parametrize("p,f", FIELDS + [(13, 2), (3, 5)])
def test_tables_are_coordinates_over_f_p_and_multiplication_by_t(p, f):
    # element a has coordinates a_0 + a_1 t + ...; t is encoded as p, and
    # t a shifts the coordinates up and reduces t^f by the modulus
    F = gf.GF(p, f)
    m = F.modulus
    for a in range(F.q):
        va = [(a // p ** i) % p for i in range(f)]
        top, shifted = va[-1], [0] + va[:-1]
        want = [(c - top * mi) % p for c, mi in zip(shifted, m)]
        assert F.mul(p, a) == _encoding(want, p)
        assert F.neg(a) == _encoding([-c % p for c in va], p)
        for b in range(F.q):
            vb = [(b // p ** i) % p for i in range(f)]
            assert F.add(a, b) == _encoding([(x + y) % p for x, y in zip(va, vb)], p)
    # a b is the sum of a_i copies of t^i b, from the add table and t b
    for b in range(F.q):
        powers = [b]
        for _ in range(f - 1):
            powers.append(F.mul(p, powers[-1]))
        for a in range(F.q):
            want = 0
            for i in range(f):
                for _ in range((a // p ** i) % p):
                    want = F.add(want, powers[i])
            assert F.mul(a, b) == want


@pytest.mark.parametrize("p,f", [(p, f) for p, f in FIELDS if p ** f <= 27])
def test_tables_satisfy_the_field_axioms(p, f):
    F = gf.GF(p, f)
    elements = range(F.q)
    for a in elements:
        assert F.add(a, 0) == a == F.mul(a, 1)
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    for a, b, c in product(elements, repeat=3):
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_gf_imports_nothing_from_the_package():
    # gf is the bottom layer, under fieldctx and ffpoly
    tree = ast.parse(Path(gf.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and (node.module or "").split(".")[0] != "spbaw", \
                ast.unparse(node)
        elif isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "spbaw" for a in node.names), ast.unparse(node)
