"""The number of Brauer labels against the ell-regular class number of
Sp_2n(q), computed here without the package.

|IBr(G)| is the number of ell-regular classes (Brauer), and the package's
universe is a basic set (Geck-Hiss 1991).  Wall's decomposition of the
classes of Sp_2n(q), q odd, restricted to elementary divisors whose roots
have order prime to ell, gives

    sum_n #ell-reg(Sp_2n(q)) t^n = U(t)^2 prod_{d >= 1} P(t^d)^M'(d)

with P(t) = prod 1/(1 - t^i), U(t) = prod (1 + t^i)^2 / (1 - t^i) the
unipotent classes of Sp at each of X - 1 and X + 1, and M'(d) the number
of ell' F1 classes of degree 2d plus the number of ell' F2 star pairs with
factor degree d, both by Moebius inversion over the ell'-parts of
q^k + 1 and q^k - 1.  Unlike Wall's class number in perfbench/oracle.py,
the count holds for e <= n as well.
"""

import pytest

from spbaw import labelspace as ls
from spbaw.fieldctx import make_context


def mu(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def ell_prime_part(m, ell):
    while ell and m % ell == 0:
        m //= ell
    return m


def f1_roots(q, ell, d):
    """Roots of ell' order of the F1 classes of degree 2d: elements of
    exact degree 2d in the norm-1 groups C_(q^k + 1), k | d with d/k odd,
    less +-1, which lie in every C_(q^(2^a) + 1)."""
    total = sum(mu(d // k) * ell_prime_part(q ** k + 1, ell)
                for k in range(1, d + 1) if d % k == 0 and (d // k) % 2)
    return total - (2 if d & (d - 1) == 0 else 0)


def f2_roots(q, ell, d):
    """Roots of ell' order of the irreducibles of degree d that are not
    self-reciprocal, other than X - 1 and X + 1."""
    total = sum(mu(d // k) * ell_prime_part(q ** k - 1, ell)
                for k in range(1, d + 1) if d % k == 0)
    if d % 2 == 0:
        total -= f1_roots(q, ell, d // 2)
    return total - (2 if d == 1 else 0)


def m_prime(q, ell, d):
    f1, f2 = f1_roots(q, ell, d), f2_roots(q, ell, d)
    assert f1 % (2 * d) == 0 and f2 % (2 * d) == 0
    return f1 // (2 * d) + f2 // (2 * d)


def times_inverse_one_minus(series, k):
    """series / (1 - t^k), truncated."""
    for j in range(k, len(series)):
        series[j] += series[j - k]


def times_one_plus(series, k):
    """series (1 + t^k), truncated."""
    for j in range(len(series) - 1, k - 1, -1):
        series[j] += series[j - k]


def ell_regular_counts(q, ell, top):
    """#ell-reg(Sp_2n(q)) for n = 0..top; ell = 0 counts every class."""
    series = [1] + [0] * top
    for i in range(1, top + 1):
        for _ in range(2):
            times_one_plus(series, i)
            times_one_plus(series, i)
            times_inverse_one_minus(series, i)
    for d in range(1, top + 1):
        for _ in range(m_prime(q, ell, d)):
            for i in range(1, top // d + 1):
                times_inverse_one_minus(series, d * i)
    return series


def wall_class_numbers(q, top):
    """prod (1 + t^i)^4 / (1 - q t^i): every class of Sp_2n(q), q odd."""
    series = [1] + [0] * top
    for i in range(1, top + 1):
        for _ in range(4):
            times_one_plus(series, i)
        for j in range(i, top + 1):      # / (1 - q t^i)
            series[j] += q * series[j - i]
    return series


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_unrestricted_count_is_wall_class_number(q):
    assert ell_regular_counts(q, 0, 6) == wall_class_numbers(q, 6)


def test_small_class_numbers():
    # Sp_2(3) has 7 classes, all 5-regular; Sp_2(5) has 9, two 3-singular;
    # Sp_4(3) has 34 classes, two of them 5-singular
    assert ell_regular_counts(3, 0, 2)[1:] == [7, 34]
    assert ell_regular_counts(3, 5, 2)[1:] == [7, 32]
    assert ell_regular_counts(5, 3, 1)[1] == 7


def test_counts_at_larger_ranks():
    # total_ibr of `sp-baw verify` at sizes too slow for this suite
    for p, f, ell, n, total_ibr in [(3, 1, 5, 5, 1508), (3, 1, 5, 6, 4809),
                                    (5, 1, 3, 4, 858), (3, 2, 5, 3, 561),
                                    (7, 1, 3, 3, 407), (31, 1, 3, 2, 656)]:
        assert ell_regular_counts(p ** f, ell, n)[n] == total_ibr


# every configuration the default work limit admits at n <= 3
GRID = [(p, f, ell, n) for p in (3, 5, 7) for f in (1, 2)
        for ell in (3, 5, 7, 11, 13) for n in (1, 2, 3)
        if ell != p and (p ** f) ** (2 * n + 1) <= 10 ** 7]


@pytest.mark.parametrize("p,f,ell,n", GRID)
def test_brauer_labels_count_ell_regular_classes(p, f, ell, n):
    ctx = make_context(p, f, ell)
    expected = ell_regular_counts(ctx.q, ell, n)[n]
    blocks = ls.enumerate_blocks(ctx, n)
    assert sum(len(ls.enumerate_ibr(ctx, b)) for b in blocks) == expected
    assert len(ls.enumerate_ibr_universe(ctx, n)) == expected
    assert ls.universe_size(ctx, n) == expected


def test_grid_reaches_e_at_most_n_and_f_two():
    small_e = [(p, f, ell, n) for p, f, ell, n in GRID
               if make_context(p, f, ell).e <= n]
    assert any(f == 1 for _, f, _, _ in small_e)
    assert any(f == 2 for _, f, _, _ in small_e)
