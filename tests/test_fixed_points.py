"""The automorphism actions against fixed-point counts computed without
the package.

By Brauer's permutation lemma, which holds for Brauer characters since
their table is invertible, an automorphism fixes as many irreducible
Brauer characters as ell-regular classes; the labels come from an
Aut-stable basic set, so they obey the same count, and the bijection
carries it to the weights.  Equivariance and the action laws compare the
actions with one another; these counts check each action on its own.

  field(i) at q = p^f: the ell-regular classes of Sp_2n(p^gcd(i, f)),
      the Shintani descent of the classes to the subfield;
  diagonal: the similitude with a non-square multiplier scales the
      quadratic form on each even Jordan size at X -+ 1, and fixes that
      form's class exactly when the multiplicity is even (Wall 1963), so
      each unipotent factor U(t) of test_lregular_count becomes
      U_fix(t) = prod_i (1 + t^i)(1 + t^2i) / (1 - t^2i);
  field(i) then diagonal: the diagonal count at the subfield p^gcd(i, f).
"""

from math import gcd

import pytest

from spbaw import bawcheck as bc, cli, labelspace as ls
from spbaw.fieldctx import make_context
from test_lregular_count import (ell_regular_counts, m_prime,
                                 times_inverse_one_minus, times_one_plus)


def diagonal_fixed_counts(q, ell, top):
    """Coefficients of U_fix(t)^2 prod_d P(t^d)^M'(d) for n = 0..top."""
    series = [1] + [0] * top
    for i in range(1, top + 1):
        for _ in range(2):
            times_one_plus(series, i)
            times_one_plus(series, 2 * i)
            times_inverse_one_minus(series, 2 * i)
    for d in range(1, top + 1):
        for _ in range(m_prime(q, ell, d)):
            for i in range(1, top // d + 1):
                times_inverse_one_minus(series, d * i)
    return series


def fixed_labels(ctx, n, *actions):
    """(fixed Brauer labels, fixed Q weight labels) over every block, of
    the actions applied one after another in the order given."""
    def image(act, x):
        for action in actions:
            x = act(ctx, action, x)
        return x

    ibr = weights = 0
    for block in ls.enumerate_blocks(ctx, n):
        ibr += sum(image(bc.act_on_ibr, x) == x
                   for x in ls.enumerate_ibr(ctx, block))
        weights += sum(image(bc.act_on_weight, x) == x
                       for x in ls.enumerate_weights_q(ctx, block))
    return ibr, weights


def admitted(p, f, ell, n):
    return ell != p and cli._work_bound(p, f, n, cli.DEFAULT_WORK_LIMIT) is not None


FIELD_GRID = [(p, f, ell, n) for p, f in ((3, 2), (5, 2), (7, 2), (3, 3), (3, 4))
              for ell in (3, 5, 7, 13) for n in (1, 2, 3) if admitted(p, f, ell, n)]
DIAGONAL_GRID = [(p, f, ell, n) for p in (3, 5, 7) for f in (1, 2, 3)
                 for ell in (3, 5, 7, 13) for n in (1, 2, 3, 4)
                 if admitted(p, f, ell, n)]


@pytest.mark.parametrize("p,f,ell,n", FIELD_GRID)
def test_field_fixes_the_subfield_ell_regular_classes(p, f, ell, n):
    ctx = make_context(p, f, ell)
    for i in range(1, f):
        expected = ell_regular_counts(p ** gcd(i, f), ell, n)[n]
        assert fixed_labels(ctx, n, bc.FIELD(i)) == (expected, expected), i


@pytest.mark.parametrize("p,f,ell,n", FIELD_GRID)
def test_field_then_diagonal_fixes_the_subfield_even_form_classes(p, f, ell, n):
    """field(i) then diagonal fixes diagonal_fixed_counts(p^gcd(i, f), ell,
    n)[n] Brauer and Q weight labels.  A derivation sketch, which the
    counts below check but which has not been checked against the
    literature:
      - Shintani descent takes the classes that field(i) composed with a
        diagonal automorphism stabilizes to classes over the subfield
        F_(p^gcd(i, f)), as it does for field(i) alone;
      - a p-th power keeps squares square in F_q, so field(i) fixes the
        class of every quadratic form of a unipotent factor;
      - what is left is the diagonal action's restriction to the subfield
        classes, whose fixed classes diagonal_fixed_counts counts there."""
    ctx = make_context(p, f, ell)
    for i in range(1, f):
        expected = diagonal_fixed_counts(p ** gcd(i, f), ell, n)[n]
        assert fixed_labels(ctx, n, bc.FIELD(i), bc.DIAGONAL) == (expected, expected), i


@pytest.mark.parametrize("p,f,ell,n", DIAGONAL_GRID)
def test_diagonal_fixes_the_even_form_classes(p, f, ell, n):
    ctx = make_context(p, f, ell)
    expected = diagonal_fixed_counts(ctx.q, ell, n)[n]
    assert fixed_labels(ctx, n, bc.DIAGONAL) == (expected, expected)


def test_spot_counts():
    # 32 of the 72 labels of (3,2,5,2) and 127 of the 561 of (3,2,5,3)
    # are fixed by field(1); Sp_4(3) and Sp_6(3) have that many 5-regular
    # classes
    ctx = make_context(3, 2, 5)
    assert ls.universe_size(ctx, 2) == 72 and ls.universe_size(ctx, 3) == 561
    assert fixed_labels(ctx, 2, bc.FIELD(1)) == (32, 32)
    assert fixed_labels(ctx, 3, bc.FIELD(1)) == (127, 127)
    assert fixed_labels(make_context(3, 1, 5), 2, bc.DIAGONAL) == (12, 12)
    # the diagonal counts of (3,1,5) and (7,1,3) for n <= 4
    assert diagonal_fixed_counts(3, 5, 4)[1:] == [3, 12, 39, 120]
    assert diagonal_fixed_counts(7, 3, 4)[1:] == [5, 36, 207, 1362]


def test_grids_reach_every_field_power_and_small_e():
    assert any(f == 4 for _, f, _, _ in FIELD_GRID)
    assert any(make_context(p, f, ell).e <= n for p, f, ell, n in DIAGONAL_GRID)
