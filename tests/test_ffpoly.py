import random
from itertools import product

import pytest

from spbaw.fieldctx import make_context, order_mod
from spbaw import ffpoly as fp
from spbaw import gf as gfmod
from spbaw.ffpoly import poly_deg, poly_monic, poly_mul, poly_powmod, poly_rem, poly_trim


CTX35 = make_context(3, 1, 5)
CTX53 = make_context(5, 1, 3)
CTX75 = make_context(7, 1, 5)
CTX925 = make_context(3, 2, 5)


def mu(n):
    """Moebius function."""
    out, m = 1, n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


def necklace_count(q, d):
    """Number of monic irreducibles of degree d over F_q (Moebius sum)."""
    divisors = [k for k in range(1, d + 1) if d % k == 0]
    return sum(mu(d // k) * q ** k for k in divisors) // d


def test_enumerate_irreducibles_degree_one():
    polys = fp.enumerate_irreducibles(CTX35, 1)
    assert polys == [(0, 1), (1, 1), (2, 1)]  # X, X+1, X+2


def test_enumerate_irreducibles_contains_x2_plus_1():
    polys = fp.enumerate_irreducibles(CTX35, 2)
    assert (1, 0, 1) in polys  # X^2 + 1 has no root in F_3


@pytest.mark.parametrize("p,f", [(3, 1), (5, 1), (7, 1)])
def test_irreducible_counts_match_necklace_formula(p, f):
    ctx = make_context(p, f, 11 if p != 11 else 13)
    polys = fp.enumerate_irreducibles(ctx, 4)
    for d in range(1, 5):
        got = sum(1 for g in polys if fp.poly_deg(g) == d)
        assert got == necklace_count(ctx.q, d)


def schoolbook_mul(a, b, gf):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = gf.add(out[i + j], gf.mul(x, y))
    return out


@pytest.mark.parametrize("ctx,maxdeg",
                         [(CTX35, 6), (CTX53, 4), (CTX75, 4), (CTX925, 4)],
                         ids=["q3", "q5", "q7", "q9"])
def test_is_irreducible_matches_sieve(ctx, maxdeg):
    """A monic polynomial of positive degree is irreducible iff it is not
    the product of two monic polynomials of positive degree."""
    def monic(d):
        return [c + (1,) for c in product(range(ctx.q), repeat=d)]

    for d in range(1, maxdeg + 1):
        reducible = {tuple(schoolbook_mul(a, b, ctx.gf))
                     for k in range(1, d // 2 + 1)
                     for a in monic(k) for b in monic(d - k)}
        for g in monic(d):
            assert fp.is_irreducible(g, ctx) == (g not in reducible), g


def test_star_examples():
    assert fp.star((1, 1), CTX35) == (1, 1)                 # X+1
    assert fp.star((3, 1), CTX53) == (2, 1)                 # X-2 -> X-3 over F_5
    assert fp.star((1, 0, 1), CTX35) == (1, 0, 1)           # X^2+1
    with pytest.raises(ValueError):
        fp.star((0, 1), CTX35)


def test_star_is_an_involution():
    rng = random.Random(7)
    polys = [g for g in fp.enumerate_irreducibles(CTX75, 3) if g[0] != 0]
    for g in rng.sample(polys, 40):
        assert fp.star(fp.star(g, CTX75), CTX75) == g


def test_star_frobenius_commute():
    for ctx, deg in [(CTX35, 4), (CTX53, 3), (CTX925, 2)]:
        polys = [g for g in fp.enumerate_irreducibles(ctx, deg) if g[0] != 0]
        for g in polys:
            for i in (1, 2):
                lhs = fp.star(fp.frobenius(g, i, ctx), ctx)
                rhs = fp.frobenius(fp.star(g, ctx), i, ctx)
                assert lhs == rhs


def test_frobenius_examples():
    assert fp.frobenius((1, 1), 3, CTX35) == (1, 1)     # sigma(X+1) = X+1
    g = (1, 2, 0, 1)
    assert fp.frobenius(g, 0, CTX35) == g
    assert fp.frobenius((3, 1), 1, CTX53) == (3, 1)     # 2^5 = 2 mod 5


def test_frobenius_composes():
    polys = [g for g in fp.enumerate_irreducibles(CTX925, 2) if g[0] != 0]
    for g in polys[:20]:
        a = fp.frobenius(g, 2, CTX925)
        b = fp.frobenius(fp.frobenius(g, 1, CTX925), 1, CTX925)
        assert a == b
        # p^f-power returns g itself
        assert fp.frobenius(g, CTX925.f, CTX925) == g


def test_classify_f0():
    pc = fp.classify((2, 1), CTX35)  # X-1 over F_3
    assert pc.family == "F0" and pc.beta == 2 and pc.e_gamma == CTX35.e
    with pytest.raises(AssertionError):
        pc.delta
    with pytest.raises(AssertionError):
        pc.sign


def test_classify_f1_example():
    pc = fp.classify((1, 0, 1), CTX35)  # X^2+1, ell = 5
    assert pc.family == "F1"
    assert pc.delta == 1 and pc.sign == -1
    assert pc.e_gamma == order_mod(-3 % 5, 5) == 4


def test_classify_f2_example():
    gf = CTX53.gf
    prod = fp.poly_mul((3, 1), (2, 1), gf)  # (X-2)(X-3) over F_5
    pc = fp.classify(prod, CTX53)
    assert pc.family == "F2" and pc.delta == 1 and pc.sign == 1
    assert pc.factor == min((3, 1), (2, 1))


def test_classify_rejects_other_shapes():
    with pytest.raises(ValueError):
        fp.classify((0, 1), CTX35)           # X
    gf = CTX35.gf
    bad = fp.poly_mul((2, 1), (1, 1), gf)    # (X-1)(X+1)
    with pytest.raises(ValueError):
        fp.classify(bad, CTX35)


def test_polyclass_invariants():
    for ctx in (CTX35, CTX53, CTX925):
        for pc in fp.enumerate_classes(ctx, 4):
            assert pc.beta == (2 if pc.family == "F0" else 1)
            if pc.family == "F0":
                assert pc.e_gamma == ctx.e
            else:
                assert pc.deg == 2 * pc.delta
                assert pc.e_gamma == order_mod(pc.sign * ctx.q ** pc.delta % ctx.ell, ctx.ell)
                assert (ctx.ell - 1) % pc.e_gamma == 0
                st = fp.star(pc.factor, ctx)
                if pc.family == "F1":
                    assert st == pc.factor
                else:
                    assert st != pc.factor
                    assert fp.poly_mul(pc.factor, st, ctx.gf) == pc.gamma


def test_ell_prime_order():
    x_minus_1 = fp.classify(fp.poly_x_minus_one(CTX35), CTX35)
    x_plus_1 = fp.classify(fp.poly_x_plus_one(CTX35), CTX35)
    assert fp.is_ell_prime_order(x_minus_1, CTX35)
    assert fp.is_ell_prime_order(x_plus_1, CTX35)
    # roots of X^2+1 over F_3 have order 4; 5 does not divide 4
    assert fp.is_ell_prime_order(fp.classify((1, 0, 1), CTX35), CTX35)
    # over F_5 with ell = 3: roots of X^2+X+1 have order 3
    assert not fp.is_ell_prime_order(fp.classify((1, 1, 1), CTX53), CTX53)


def test_frobenius_class_identity_when_f_is_one():
    for pc in fp.enumerate_classes(CTX35, 3):
        assert fp.frobenius_class(pc, 1, CTX35) == pc


def test_frobenius_class_moves_labels_over_f9():
    classes = fp.enumerate_classes(CTX925, 2)
    moved = [pc for pc in classes if fp.frobenius_class(pc, 1, CTX925) != pc]
    assert moved, "the p-power map must act nontrivially on F over F_9"
    for pc in classes:
        img = fp.frobenius_class(pc, 1, CTX925)
        assert fp.frobenius_class(img, 1, CTX925) == fp.frobenius_class(pc, 2, CTX925)
        assert fp.frobenius_class(pc, CTX925.f, CTX925) == pc


def test_dump_classes_jsonl():
    import json
    dump = fp.dump_classes_jsonl(CTX35, 2)
    rows = [json.loads(line) for line in dump.strip().splitlines()]
    assert any(r["family"] == "F0" and r["betaGamma"] == 2 for r in rows)
    f0 = [r for r in rows if r["family"] == "F0"]
    assert all(r["delta"] is None and r["sign"] is None for r in f0)
    f1 = [r for r in rows if r["family"] == "F1"]
    assert all(isinstance(r["delta"], int) for r in f1)


def brute_force_classes(ctx, max_total_deg):
    """The class table from a Rabin test on every monic polynomial of
    degree <= max_total_deg: F1 members and F2 products are classified
    from the polynomial itself."""
    x_minus, x_plus = fp.poly_x_minus_one(ctx), fp.poly_x_plus_one(ctx)
    classes = [fp.classify(x_minus, ctx), fp.classify(x_plus, ctx)]
    seen_f2 = set()
    for g in fp.enumerate_irreducibles(ctx, max_total_deg):
        if g[0] == 0 or g in (x_minus, x_plus):
            continue
        st = fp.star(g, ctx)
        if st == g:
            classes.append(fp.classify(g, ctx))
        elif 2 * fp.poly_deg(g) <= max_total_deg and min(g, st) not in seen_f2:
            seen_f2.add(min(g, st))
            classes.append(fp.classify(fp.poly_mul(g, st, ctx.gf), ctx))
    return sorted(classes, key=fp.PolyClass.sort_key)


def _mulmod(a, b, m, gf):
    """a b mod the monic m, on coefficient lists."""
    out = schoolbook_mul(a, b, gf)
    dm = len(m) - 1
    for i in range(len(out) - 1, dm - 1, -1):
        c, out[i] = out[i], 0
        for j in range(dm):
            out[i - dm + j] = gf.sub(out[i - dm + j], gf.mul(c, m[j]))
    return out[:dm] + [0] * (dm - len(out))


def roots_have_ell_prime_order(pc, ctx):
    """X^((q^k - 1)_ell') = 1 mod the class's irreducible factor of degree
    k, by square-and-multiply: every root lies in F_(q^k)^*."""
    gf, m = ctx.gf, pc.factor
    k = fp.poly_deg(m)
    n = ctx.q ** k - 1
    while n % ctx.ell == 0:
        n //= ctx.ell
    out, base = [1], [0, 1]
    while n:
        if n & 1:
            out = _mulmod(out, base, m, gf)
        base = _mulmod(base, base, m, gf)
        n >>= 1
    return out == [1] + [0] * (k - 1)


@pytest.mark.parametrize("ctx,max_total_deg",
                         [(CTX35, 6), (CTX53, 4), (CTX75, 4), (CTX925, 4)],
                         ids=["q3", "q5", "q7", "q9"])
def test_class_table_matches_brute_force(ctx, max_total_deg):
    every = brute_force_classes(ctx, max_total_deg)
    ell_prime = [pc for pc in every if roots_have_ell_prime_order(pc, ctx)]
    for ell_prime_only, want in ((False, every), (True, ell_prime)):
        got = fp.enumerate_classes(ctx, max_total_deg, ell_prime_only)
        assert [tuple(pc) for pc in got] == [tuple(pc) for pc in want]


def self_reciprocal_count(q, deg):
    """Monic self-reciprocal irreducibles of degree deg over F_q, q odd
    (Meyn 1990): S_q(2d) = (1/2d) sum_{k | d, k odd} mu(k) (q^(d/k) - 1),
    and S_q(deg) = 0 for odd deg."""
    if deg % 2:
        return 0
    d = deg // 2
    total = sum(mu(k) * (q ** (d // k) - 1)
                for k in range(1, d + 1, 2) if d % k == 0)
    assert total % deg == 0
    return total // deg


@pytest.mark.parametrize("p,f,ell,max_total_deg",
                         [(3, 1, 5, 10), (5, 1, 3, 6), (3, 2, 5, 4)],
                         ids=["q3", "q5", "q9"])
def test_class_counts_match_classical_formulas(p, f, ell, max_total_deg):
    """F1 classes of degree 2d are the self-reciprocal irreducibles; F2
    classes of degree 2d are the star pairs of irreducibles of degree d
    other than X, X-1, X+1 and the self-reciprocal ones:
    (N_q(d) - 3 [d = 1] - S_q(d)) / 2 with N_q the necklace count."""
    ctx = make_context(p, f, ell)
    q = ctx.q
    classes = fp.enumerate_classes(ctx, max_total_deg)
    for d in range(1, max_total_deg // 2 + 1):
        f1 = sum(1 for pc in classes if pc.family == "F1" and pc.deg == 2 * d)
        f2 = sum(1 for pc in classes if pc.family == "F2" and pc.deg == 2 * d)
        assert f1 == self_reciprocal_count(q, 2 * d)
        pairs = necklace_count(q, d) - (3 if d == 1 else 0) - self_reciprocal_count(q, d)
        assert pairs % 2 == 0
        assert f2 == pairs // 2


@pytest.mark.parametrize("ctx,max_total_deg",
                         [(CTX925, 4), (make_context(5, 2, 3), 2),
                          (make_context(3, 3, 5), 2)],
                         ids=["q9", "q25", "q27"])
def test_frobenius_class_matches_polynomial_frobenius(ctx, max_total_deg):
    """The factorwise image of a class equals the classified image of its
    polynomial."""
    for pc in fp.enumerate_classes(ctx, max_total_deg):
        for i in range(1, ctx.f):
            want = fp.classify(fp.frobenius(pc.gamma, i, ctx), ctx)
            assert fp.frobenius_class(pc, i, ctx) == want


@pytest.mark.parametrize("p,f,maxdeg", [(3, 1, 4), (5, 1, 4), (7, 1, 4), (3, 2, 4),
                                        (5, 2, 2), (3, 3, 2)],
                         ids=["q3", "q5", "q7", "q9", "q25", "q27"])
def test_sieve_matches_rabin_search(monkeypatch, p, f, maxdeg):
    ctx = make_context(p, f, 11)
    monkeypatch.setattr(gfmod, "_IRREDUCIBLES", {})
    sieved = [g for d in range(1, maxdeg + 1) for g in gfmod._irreducibles_of_degree(ctx.gf, d)]
    want = sorted(fp.enumerate_irreducibles(ctx, maxdeg), key=lambda g: (len(g), g))
    assert sieved == want


def _min_poly_of_power(g, power, ctx):
    """Minimal polynomial of t^power in F_q[t]/(g), g irreducible.

    Found as the first linear dependency among 1, b, b^2, ... via exact
    Gaussian elimination over F_q.
    """
    gf = ctx.gf
    d = poly_deg(g)
    b = poly_powmod((0, 1), power, g, gf)
    # rows[k] = coefficient vector of b^k, length d
    rows = []
    cur = (1,)
    for _ in range(d + 1):
        vec = list(cur) + [0] * (d - len(cur))
        rows.append(vec)
        cur = poly_rem(poly_mul(cur, b, gf), g, gf)
    # eliminate: find smallest k with rows[0..k] dependent; solve for the
    # monic dependency.  Gaussian elimination with an augmented identity.
    aug = [rows[k] + [1 if j == k else 0 for j in range(d + 1)]
           for k in range(d + 1)]
    pivots = {}
    for row in aug:
        r = row[:]
        for col, prow in pivots.items():
            c = r[col]
            if c:
                r = [gf.sub(x, gf.mul(c, y)) for x, y in zip(r, prow)]
        lead = next((i for i in range(d) if r[i]), None)
        if lead is None:
            coeffs = r[d:]
            mp = poly_trim(tuple(coeffs))
            return poly_monic(mp, gf)
        inv = gf.inv(r[lead])
        pivots[lead] = [gf.mul(x, inv) for x in r]
    raise AssertionError("no dependency found")


@pytest.mark.parametrize("p,f,maxdeg", [(3, 2, 4), (5, 2, 2), (3, 3, 2)],
                         ids=["q9", "q25", "q27"])
def test_frobenius_matches_minimal_polynomial_of_the_power(p, f, maxdeg):
    """On an irreducible g, the coefficient powers equal the minimal
    polynomial of t^(p^i) in F_q[t]/(g); on an F2 product Delta Delta^*
    of degree <= 4, the product of the image of Delta and its star."""
    ctx = make_context(p, f, 11)
    irreducibles = fp.enumerate_irreducibles(ctx, maxdeg)
    f2 = [(g, fp.star(g, ctx)) for g in irreducibles
          if poly_deg(g) <= 2 and g[0] and g < fp.star(g, ctx)]
    assert f2
    for i in range(1, f):
        for g in irreducibles:
            assert fp.frobenius(g, i, ctx) == _min_poly_of_power(g, p ** i, ctx), (g, i)
        for delta, delta_star in f2:
            img = _min_poly_of_power(delta, p ** i, ctx)
            want = poly_mul(img, fp.star(img, ctx), ctx.gf)
            assert fp.frobenius(poly_mul(delta, delta_star, ctx.gf), i, ctx) == want
