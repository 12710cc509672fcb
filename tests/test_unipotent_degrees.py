"""The unipotent blocks of weight 0 against Lusztig's degree formula.

By Brauer's theorem a block has defect zero exactly when its one ordinary
character chi has chi(1)_ell = |G|_ell.  The unipotent characters of
Sp_2n(q) are labelled by the symbols (S; T) of rank n and odd defect, and
their degrees are given by Lusztig's formula (Carter, Finite Groups of Lie
Type, 1985, section 13.8), which this file implements without the package.
The unipotent blocks (s = 1) the package puts at weight 0 must be exactly
the blocks of the defect-zero unipotent characters.
"""

from itertools import combinations
from math import comb, prod

import pytest

from spbaw import labelspace as ls
from spbaw.cli import DEFAULT_WORK_LIMIT
from spbaw.fieldctx import make_context

CONFIGS = [(3, 1, 5), (3, 1, 7), (3, 1, 13), (5, 1, 3), (3, 2, 5), (7, 1, 3),
           (5, 1, 7), (3, 1, 11)]
MAX_RANK = 5


def _partitions(k, largest=None):
    if k == 0:
        yield ()
        return
    for first in range(min(k, largest or k), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first,) + rest


def _beta(part, length):
    part = part + (0,) * (length - len(part))
    return tuple(x + length - 1 - i for i, x in enumerate(part))


def unipotent_symbols(n):
    """The reduced symbols (S; T) of rank n and odd defect d = |S| - |T|,
    one per bipartition of n - (d^2 - 1)/4."""
    out = []
    d = 1
    while (d * d - 1) // 4 <= n:
        k = n - (d * d - 1) // 4
        for a in range(k + 1):
            for alpha in _partitions(a):
                for beta in _partitions(k - a):
                    t = max(len(alpha) - d, len(beta))
                    out.append((_beta(alpha, t + d), _beta(beta, t)))
        d += 2
    return out


def unipotent_degree(S, T, n, q):
    """chi_(S;T)(1) for Sp_2n(q), |S| + |T| = 2m + 1."""
    m = (len(S) + len(T) - 1) // 2
    assert sum(S) + sum(T) - m * m == n
    num = prod(q ** (2 * i) - 1 for i in range(1, n + 1))
    for row in (S, T):
        num *= prod(q ** y - q ** x for x, y in combinations(sorted(row), 2))
    num *= prod(q ** x + q ** y for x in S for y in T)
    den = 2 ** m * q ** sum(comb(2 * k + 1, 2) for k in range(m))
    den *= prod(q ** (2 * h) - 1 for z in S + T for h in range(1, z + 1))
    assert num % den == 0, (S, T, n, q)
    return num // den


def valuation(x, ell):
    v = 0
    while x % ell == 0:
        x //= ell
        v += 1
    return v


def is_defect_zero(S, T, n, q, ell):
    order = prod(q ** (2 * i) - 1 for i in range(1, n + 1))
    return valuation(unipotent_degree(S, T, n, q), ell) == valuation(order, ell)


def test_degrees_of_sp4_3():
    degrees = sorted(unipotent_degree(S, T, 2, 3) for S, T in unipotent_symbols(2))
    assert degrees == [1, 6, 15, 15, 24, 81]


def test_symbol_counts():
    # the unipotent characters of Sp_2n(q): 2, 6, 12, 25, 46 for n <= 5
    assert [len(unipotent_symbols(n)) for n in range(1, 6)] == [2, 6, 12, 25, 46]


def _admitted(p, f):
    return [n for n in range(1, MAX_RANK + 1)
            if (p ** f) ** (2 * n + 1) <= DEFAULT_WORK_LIMIT]


@pytest.mark.parametrize("p,f,ell", CONFIGS)
def test_weight_zero_unipotent_blocks_are_the_defect_zero_characters(p, f, ell):
    ctx = make_context(p, f, ell)
    xm = ls.x_minus_class(ctx)
    for n in _admitted(p, f):
        q = ctx.q
        unipotent = [b for b in ls.enumerate_blocks(ctx, n)
                     if b.s.entries == ((xm, 2 * n + 1),)]
        symbols = {tuple(sorted(st)) for st in unipotent_symbols(n)}
        seen, weight_zero = set(), 0
        for b in unipotent:
            w = sum(w for _, w in ls.block_weights(ctx, b))
            labels = ls.enumerate_ibr(ctx, b)
            for ib in labels:
                rows = tuple(dict(ib.lam)[xm])
                seen.add(rows)
                assert is_defect_zero(*rows, n, q, ell) == (w == 0), (n, b, rows)
            if w == 0:
                weight_zero += 1
                assert len(labels) == 1
                assert len(ls.enumerate_weights_q(ctx, b)) == 1
                assert len(ls.enumerate_weights_k(ctx, b)) == 1
        assert seen == symbols, (n, seen ^ symbols)
        assert weight_zero == sum(is_defect_zero(S, T, n, q, ell)
                                  for S, T in unipotent_symbols(n)), n
