"""Monic polynomials over F_q and the elementary-divisor families.

A polynomial is a tuple of GF-encoded coefficients, constant term first,
with leading coefficient 1.  The families:

  F0 = {X-1, X+1}
  F1 = irreducible, self-star, not X or X+-1  (even degree)
  F2 = Delta * Delta^* with Delta irreducible, not self-star, not X or X+-1

star(g) is the monic polynomial whose roots are the inverses of the roots
of g; frobenius(g, i) the one whose roots are the p^i-th powers, which is
g with its coefficients raised to the p^i.

The arithmetic in F_q[X] (product, remainder, powers, gcd) and the
product sieve of monic irreducibles per degree come from gf, shared by
every ell and rank over F_q; this module keeps the classes, the class
table and Rabin's test (is_irreducible), which serves classify and the
brute-force reference enumerate_irreducibles.
"""

import json
from collections import namedtuple
from functools import lru_cache

from .fieldctx import order_mod
from .gf import (_irreducibles_of_degree, poly_deg, poly_gcd, poly_monic,
                 poly_mul, poly_powmod, poly_rem, poly_trim, prime_divisors)


def poly_x_minus_one(ctx):
    return (ctx.gf.neg(1), 1)


def poly_x_plus_one(ctx):
    return (1, 1)


def is_irreducible(g, ctx):
    """Rabin's test: g monic of degree d is irreducible iff X^(q^d) = X
    mod g and gcd(X^(q^(d/r)) - X, g) = 1 for every prime r dividing d.

    The q-power map is F_q-linear on F_q[X]/(g) and sends sum a_i X^i to
    sum a_i X^(iq), so its matrix has the rows X^(iq) mod g.  X^q mod g is
    the one modular power taken; each X^(q^k), k = 2..d, is the image of
    X^(q^(k-1)) under that matrix.
    """
    gf = ctx.gf
    d = poly_deg(g)
    if d < 1:
        return False
    if d == 1:
        return True
    xq = poly_powmod((0, 1), ctx.q, g, gf)
    rows = [(1,) + (0,) * (d - 1)]
    for _ in range(d - 1):
        row = poly_rem(poly_mul(rows[-1], xq, gf), g, gf)
        rows.append(row + (0,) * (d - len(row)))
    powers = [None, rows[1]]   # powers[k] = X^(q^k) mod g
    for _ in range(d - 1):
        powers.append(_apply(rows, powers[-1], gf))
    x = (0, 1) + (0,) * (d - 2)
    if powers[d] != x:
        return False
    for r in prime_divisors(d):
        diff = poly_trim(tuple(gf.sub(a, b) for a, b in zip(powers[d // r], x)))
        if poly_gcd(diff, g, gf) != (1,):
            return False
    return True


def _apply(rows, vec, gf):
    """The vector sum vec_i rows[i] over F_q."""
    out = [0] * len(rows)
    for a, row in zip(vec, rows):
        if a:
            for j, r in enumerate(row):
                if r:
                    out[j] = gf.add(out[j], gf.mul(a, r))
    return tuple(out)


def enumerate_irreducibles(ctx, maxdeg):
    """All monic irreducibles of degree <= maxdeg, ordered by
    (degree, coefficient vector): a Rabin test on every monic polynomial.
    The brute-force reference for the class table; the package itself
    does not call it."""
    assert maxdeg >= 1
    out = []
    for d in range(1, maxdeg + 1):
        for enc in range(ctx.q ** d):
            coeffs = tuple((enc // ctx.q ** i) % ctx.q for i in range(d)) + (1,)
            if is_irreducible(coeffs, ctx):
                out.append(coeffs)
    return out


def star(g, ctx):
    """Monic polynomial with root multiset {1/a : a root of g}."""
    if g[0] == 0:
        raise ValueError("star is undefined when X divides g")
    rev = tuple(reversed(g))
    return poly_monic(rev, ctx.gf)


def frobenius(g, i, ctx):
    """Polynomial whose roots are the p^i-th powers of the roots of g: g
    with each coefficient raised to the p^i, as the p^i-power map is a ring
    automorphism of F_q[X] fixing X."""
    power = ctx.p ** (i % ctx.f)
    return tuple(ctx.gf.pow(c, power) for c in g)


def _split_f2(g, ctx):
    """Canonical irreducible factor of an F2 product (lex-smaller of the
    star pair)."""
    d = poly_deg(g)
    assert d % 2 == 0 and d >= 2
    for cand in _irreducibles_of_degree(ctx.gf, d // 2):
        if cand[0] and poly_rem(g, cand, ctx.gf) == (0,):
            st = star(cand, ctx)
            if st != cand and poly_mul(cand, st, ctx.gf) == g:
                return min(cand, st)
    raise ValueError(f"{g} is not an F2 product")


class PolyClass(namedtuple("PolyClass",
                           "deg gamma factor family e_gamma delta sign")):
    """A classified elementary divisor with its invariants.  gamma is the
    polynomial (for F2, the product), factor its canonical irreducible
    factor (= gamma unless F2), family "F0", "F1" or "F2".  deg leads, so
    tuple order is the class order (deg, gamma)."""
    __slots__ = ()

    @property
    def beta(self):
        return 2 if self.family == "F0" else 1

    @property
    def delta(self):
        # no formula consumes delta or sign for F0; any read is a bug
        assert self.family != "F0", "delta of an F0 class is never used"
        return self[5]

    @property
    def sign(self):
        assert self.family != "F0", "sign of an F0 class is never used"
        return self[6]

    def sort_key(self):
        return (self.deg, self.gamma)

    def __repr__(self):
        return f"PolyClass({self.family}, {list(self.gamma)})"


def _class_of_factor(g, ctx):
    """The class whose elementary divisor has the irreducible factor g:
    F0 for X-1 and X+1, F1 when g is self-star, else F2 with
    gamma = g g^* and the lex-smaller of the star pair as its factor."""
    if g == poly_x_minus_one(ctx) or g == poly_x_plus_one(ctx):
        return PolyClass(deg=1, gamma=g, factor=g, family="F0",
                         e_gamma=ctx.e, delta=1, sign=1)
    st = star(g, ctx)
    if st == g:
        assert poly_deg(g) % 2 == 0, "self-star irreducibles away from X+-1 have even degree"
        gamma, family, delta, sign = g, "F1", poly_deg(g) // 2, -1
    else:
        gamma, family, delta, sign = poly_mul(g, st, ctx.gf), "F2", poly_deg(g), 1
        g = min(g, st)
    return PolyClass(deg=poly_deg(gamma), gamma=gamma, factor=g, family=family,
                     e_gamma=order_mod(sign * ctx.q ** delta % ctx.ell, ctx.ell),
                     delta=delta, sign=sign)


def classify(g, ctx):
    """Classify g into F0/F1/F2 and compute its invariants."""
    g = poly_trim(g)
    if g[-1] != 1:
        raise ValueError("polynomial must be monic")
    if g[0] == 0:
        raise ValueError("X does not belong to any family")
    if (g == poly_x_minus_one(ctx) or g == poly_x_plus_one(ctx)
            or is_irreducible(g, ctx)):
        pc = _class_of_factor(g, ctx)
        if pc.family == "F2":
            raise ValueError("irreducible but not self-star: classify its F2 product instead")
        return pc
    return _class_of_factor(_split_f2(g, ctx), ctx)


def is_ell_prime_order(pc, ctx):
    """True iff every root of the class has order prime to ell.

    The roots of X-1 and X+1 have order 1 and 2.  A root of an F1 member
    of degree 2d has norm 1 down to F_(q^d), so its order divides q^d + 1;
    a root of a factor of degree k lies in F_(q^k)^*.  Both bounds are
    q^delta - sign.  When ell does not divide the bound, Lagrange's
    theorem decides; otherwise X is raised to the bound's ell'-part modulo
    the factor.  The two factors of an F2 star pair have inverse roots, so
    pc.factor alone decides.
    """
    if pc.family == "F0":
        return True
    m = ctx.q ** pc.delta - pc.sign
    if m % ctx.ell:
        return True
    while m % ctx.ell == 0:
        m //= ctx.ell
    return poly_powmod((0, 1), m, pc.factor, ctx.gf) == (1,)


def enumerate_classes(ctx, max_total_deg, ell_prime_only=False):
    """All elementary-divisor classes of degree <= max_total_deg, sorted.

    Only the irreducible factors are searched for, each at degree
    d <= max_total_deg / 2, among the sieved irreducibles h of degree d.
    An F1 member of degree 2d is the palindrome X^d h(X + 1/X), which is
    irreducible iff h(2) h(-2) is a non-square in F_q (Meyn 1990, q odd);
    an F2 product of degree 2d has a factor of degree d, taken once per
    star pair.
    """
    return list(_enumerate_classes_cached(ctx, max_total_deg, ell_prime_only))


@lru_cache(maxsize=None)
def _enumerate_classes_cached(ctx, max_total_deg, ell_prime_only):
    factors = [poly_x_minus_one(ctx)]
    if max_total_deg >= 1:
        factors.append(poly_x_plus_one(ctx))
    for d in range(1, max_total_deg // 2 + 1):
        factors.extend(_factors_of_degree(ctx, d))
    classes = [_class_of_factor(g, ctx) for g in factors]
    if ell_prime_only:
        classes = [pc for pc in classes if is_ell_prime_order(pc, ctx)]
    return tuple(sorted(classes))


_FACTORS = {}        # (p, f, d) -> _factors_of_degree(ctx, d)


def _factors_of_degree(ctx, d):
    """The F1 members of degree 2d and the F2 factors of degree d, from the
    monic irreducibles h of degree d.  They depend only on F_q and d, so
    every ell and rank over the same field shares them."""
    key = ctx.p, ctx.f, d
    if key not in _FACTORS:
        found = []
        for h in _irreducibles_of_degree(ctx.gf, d):
            if _reciprocal_stays_irreducible(h, ctx):
                found.append(_reciprocal_transform(h, ctx))
            # X has no star; X+-1 and the other self-star ones are not F2
            if h[0] and h < star(h, ctx):
                found.append(h)
        _FACTORS[key] = tuple(found)
    return _FACTORS[key]


def _reciprocal_stays_irreducible(h, ctx):
    """Meyn's condition on an irreducible h: h(2) h(-2) is a non-square."""
    gf = ctx.gf
    two = gf.add(1, 1)
    value = gf.mul(_evaluate(h, two, gf), _evaluate(h, gf.neg(two), gf))
    return value != 0 and gf.pow(value, (ctx.q - 1) // 2) != 1


def _evaluate(h, a, gf):
    out = 0
    for c in reversed(h):
        out = gf.add(gf.mul(out, a), c)
    return out


def _reciprocal_transform(h, ctx):
    """X^d h(X + 1/X) for h of degree d, by Horner's rule: with
    A_0 = 1, A_(k+1) = (X^2 + 1) A_k + h_(d-k-1) X^(k+1), A_d is it."""
    gf = ctx.gf
    d = poly_deg(h)
    out = (1,)
    for k in range(d):
        out = list(poly_mul(out, (1, 0, 1), gf))
        out[k + 1] = gf.add(out[k + 1], h[d - k - 1])
        out = tuple(out)
    return out


def frobenius_class(pc, i, ctx):
    """The classified image of a class under the p^i-power map.

    The full q-power map permutes the roots of every member of F, so the
    action on classes only depends on i mod f.
    """
    i %= ctx.f
    if i == 0:
        return pc
    return _frobenius_class_cached(pc, i, ctx)


@lru_cache(maxsize=None)
def _frobenius_class_cached(pc, i, ctx):
    if pc.family == "F0":
        return pc
    out = _class_of_factor(frobenius(pc.factor, i, ctx), ctx)
    if out.family != pc.family or out.e_gamma != pc.e_gamma:
        raise AssertionError(f"frobenius image {out} of {pc} changes its family or e_Gamma")
    return out


def dump_classes_jsonl(ctx, max_total_deg):
    """JSON-lines dump of the classified table (coefficients as integers)."""
    lines = []
    for pc in enumerate_classes(ctx, max_total_deg):
        f0 = pc.family == "F0"
        lines.append(json.dumps({
            "coeffs": list(pc.gamma),
            "family": pc.family,
            "delta": None if f0 else pc.delta,
            "sign": None if f0 else pc.sign,
            "eGamma": pc.e_gamma,
            "betaGamma": pc.beta,
        }, sort_keys=True))
    return "\n".join(lines) + "\n"
