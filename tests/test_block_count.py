"""The number of blocks against the Fong-Srinivasan generating function,
computed here without the package.

The ell-blocks of Sp_2n(q), ell odd and prime to q, are labelled by
(s, kappa, i) (Fong-Srinivasan 1989): s an ell' semisimple class of
SO_2n+1(q), kappa one core per elementary divisor Gamma of s, and i an
index in Z/2 at X + 1.  Counting them by rank gives

    sum_n n_blocks t^n = B_-(t) B_+(t) prod_d C_(F1,d)(t)^#F1(2d) C_(F2,d)(t)^#F2(d)

  #F1(2d), #F2(d): the ell' F1 classes of degree 2d and the ell' F2 star
      pairs with factor degree d, f1_roots/(2d) and f2_roots/(2d) of
      test_lregular_count;
  C_(.,d)(t) = sum_m c_(e_Gamma)(m) t^(dm), with c_e(m) the number of
      e-cores kappa with |kappa| <= m and e | m - |kappa|, and e_Gamma the
      order of -q^d (F1) or q^d (F2) modulo ell;
  B_-(t): at X - 1, multiplicity 2a + 1, the distinct e-cores of the
      symbols of rank a and odd defect, with e the order of q^2 modulo
      ell: hooks when ell divides q^e - 1, cohooks when it divides
      q^e + 1 (Olsson 1993);
  B_+(t): at X + 1, multiplicity 2b > 0, the same over the symbols of
      rank b and defect 0 mod 4 (the sign eta_plus of s is 1) or 2 mod 4
      (eta_plus is -1), a non-degenerate core counted twice for i; at
      b = 0, s has no eta_plus and B_+ is 1.

The blocks are counted per eta_plus: the totals over both defect classes
agree for hooks and cohooks, but a cohook changes the defect by 2, so the
split between the classes tells the two apart.  Symbols, cores and hook
removal are all implemented here.
"""

from collections import Counter

import pytest

from spbaw import labelspace as ls
from spbaw.cli import DEFAULT_WORK_LIMIT
from spbaw.fieldctx import make_context
from test_lregular_count import f1_roots, f2_roots
from test_unipotent_degrees import _beta, _partitions

HOOK, COHOOK = "hook", "cohook"
MAX_RANK = 5
# e = 1..5, hooks and cohooks (e = 2 and 4 exist only as cohooks), f = 2
CONFIGS = [(7, 1, 3), (5, 1, 3), (3, 1, 5), (7, 1, 5), (3, 1, 13), (3, 1, 7),
           (5, 1, 7), (3, 2, 7), (3, 2, 5), (3, 1, 41), (3, 1, 11), (5, 1, 11),
           (3, 1, 61)]


def order(x, ell):
    """The multiplicative order of x modulo ell."""
    k, y = 1, x % ell
    while y != 1:
        y, k = y * x % ell, k + 1
    return k


def e_and_mode(q, ell):
    e = order(q * q, ell)
    return e, HOOK if pow(q, e, ell) == 1 else COHOOK


def symbols(n, d, step):
    """Symbols (S, T) of rank n and defect |S| - |T| in d, d + step, ...,
    from the bipartitions of n - floor(d^2 / 4); at defect 0 each symbol
    comes twice, once per order of its rows."""
    out = []
    while d * d // 4 <= n:
        k = n - d * d // 4
        for a in range(k + 1):
            for alpha in _partitions(a):
                for beta in _partitions(k - a):
                    t = max(len(alpha) - d, len(beta))
                    out.append((_beta(alpha, t + d), _beta(beta, t)))
        d += step
    return out


def normal(rows):
    """The unordered pair of rows with 0 taken out of both while it is in
    both, each row increasing."""
    a, b = sorted(rows[0]), sorted(rows[1])
    while a and b and a[0] == 0 == b[0]:
        a, b = [x - 1 for x in a[1:]], [x - 1 for x in b[1:]]
    return tuple(sorted((tuple(a), tuple(b))))


def symbol_core(rows, e, mode):
    """Remove e-hooks (a bead x to x - e in its own row) or e-cohooks (to
    x - e in the other row) while one is left."""
    rows = [set(rows[0]), set(rows[1])]
    moved = True
    while moved:
        moved = False
        for i in (0, 1):
            j = i if mode == HOOK else 1 - i
            x = next((x for x in rows[i] if x >= e and x - e not in rows[j]), None)
            if x is not None:
                rows[i].remove(x)
                rows[j].add(x - e)
                moved = True
    return normal(rows)


def symbol_core_counts(e, mode, d, step, top):
    """Per rank r <= top, the distinct e-cores of the symbols of rank r and
    defect d, d + step, ...; a non-degenerate core counts twice at even
    defect (odd defect has none that is degenerate)."""
    out = []
    for r in range(top + 1):
        cores = {symbol_core(s, e, mode) for s in symbols(r, d, step)}
        out.append(sum(1 if d % 2 or a == b else 2 for a, b in cores))
    return out


def is_e_core(lam, e):
    beta = set(_beta(lam, len(lam)))
    return all(x < e or x - e in beta for x in beta)


def partition_core_counts(e, top):
    """c_e(m) for m <= top."""
    cores = [sum(is_e_core(lam, e) for lam in _partitions(k)) for k in range(top + 1)]
    return [sum(cores[m % e:m + 1:e]) for m in range(top + 1)]


def times(a, b):
    top = len(a) - 1
    out = [0] * (top + 1)
    for i, x in enumerate(a):
        for j in range(top + 1 - i):
            out[i + j] += x * b[j]
    return out


def block_counts(q, ell, top):
    """{eta_plus: n_blocks of Sp_2n(q) for n = 0..top}, eta_plus None when
    X + 1 is not in s."""
    e, mode = e_and_mode(q, ell)
    series = symbol_core_counts(e, mode, 1, 2, top)
    for d in range(1, top + 1):
        for roots, x in ((f1_roots(q, ell, d), -q ** d), (f2_roots(q, ell, d), q ** d)):
            assert roots % (2 * d) == 0
            factor = [0] * (top + 1)
            for m, c in enumerate(partition_core_counts(order(x, ell), top // d)):
                factor[d * m] = c
            for _ in range(roots // (2 * d)):
                series = times(series, factor)
    plus = symbol_core_counts(e, mode, 0, 4, top)
    plus[0] = 0
    return {None: series, 1: times(series, plus),
            -1: times(series, symbol_core_counts(e, mode, 2, 4, top))}


def _admitted(p, f):
    return [n for n in range(1, MAX_RANK + 1)
            if (p ** f) ** (2 * n + 1) <= DEFAULT_WORK_LIMIT]


def test_symbol_and_core_counts():
    # 2, 6, 12, 25, 46 unipotent symbols; a 1-hook core keeps the defect d
    # and has rank floor(d^2 / 4): defect 1 at rank 0, defect 3 at rank 2
    assert [len({normal(s) for s in symbols(n, 1, 2)}) for n in range(1, 6)] == [2, 6, 12, 25, 46]
    assert symbol_core_counts(1, HOOK, 1, 2, 5) == [1, 1, 2, 2, 2, 2]
    # the 2-cores are the staircases, one of each size 0, 1, 3, 6
    assert partition_core_counts(2, 6) == [1, 1, 1, 2, 1, 2, 2]


def test_configurations_cover_e_up_to_five_in_both_modes():
    seen = {e_and_mode(p ** f, ell) for p, f, ell in CONFIGS}
    assert {e for e, _ in seen} == {1, 2, 3, 4, 5}
    assert {e for e, mode in seen if mode == HOOK} == {1, 3, 5}
    assert {e for e, mode in seen if mode == COHOOK} == {1, 2, 3, 4, 5}
    assert any(f == 2 for _, f, _ in CONFIGS)


@pytest.mark.parametrize("p,f,ell", CONFIGS)
def test_block_count_is_the_fong_srinivasan_count(p, f, ell):
    ctx = make_context(p, f, ell)
    assert (ctx.e, ctx.mode) == e_and_mode(ctx.q, ell)
    ranks = _admitted(p, f)
    want = block_counts(ctx.q, ell, max(ranks))
    for n in ranks:
        got = Counter(b.s.eta_plus for b in ls.enumerate_blocks(ctx, n))
        assert got == Counter({eta: want[eta][n] for eta in want}), n
