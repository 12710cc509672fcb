"""Exact arithmetic in the finite field F_q, q = p^f, and in F_q[X].

Elements are encoded as integers in [0, q): the element with coordinate
vector (c_0, ..., c_{f-1}) over F_p is c_0 + c_1*p + ... + c_{f-1}*p^(f-1).
For f = 1 this is plain modular arithmetic; for f >= 2 the field is
F_p[t]/(m(t)) with m the smallest monic irreducible of degree f over F_p
by the integer encoding of its coefficients.

A polynomial over a field is a tuple of encoded coefficients, constant
term first.  The product, remainder and irreducible sieve here serve both
the construction of F_(p^f) over F_p and the class table over F_q.  This
is the bottom layer: it imports nothing from the package.
"""

from functools import lru_cache
from itertools import product


def prime_divisors(n):
    """The distinct prime divisors of n >= 1, increasing, by trial division
    (desk-scale inputs); a generator, so is_prime stops at the first."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            yield d
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        yield n


def is_prime(n):
    """Trial division, stopping at the smallest prime divisor."""
    return n >= 2 and next(prime_divisors(n)) == n


def poly_deg(g):
    return len(g) - 1


def poly_trim(coeffs):
    c = list(coeffs)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_mul(a, b, gf):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = gf.add(out[i + j], gf.mul(ai, bj))
    return poly_trim(out)


def poly_rem(a, m, gf):
    """Remainder of a modulo monic m."""
    assert m[-1] == 1
    a = list(a)
    dm = poly_deg(m)
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = gf.sub(a[i - dm + j], gf.mul(c, m[j]))
    return poly_trim(a[:dm] if dm else (0,))


def poly_powmod(base, n, m, gf):
    out = (1,)
    base = poly_rem(base, m, gf)
    while n:
        if n & 1:
            out = poly_rem(poly_mul(out, base, gf), m, gf)
        base = poly_rem(poly_mul(base, base, gf), m, gf)
        n >>= 1
    return out


def poly_monic(g, gf):
    lead = g[-1]
    if lead == 1:
        return g
    inv = gf.inv(lead)
    return tuple(gf.mul(c, inv) for c in g)


def poly_gcd(a, b, gf):
    a, b = poly_trim(a), poly_trim(b)
    while b != (0,):
        a, b = b, poly_rem(a, poly_monic(b, gf), gf)
    return poly_monic(a, gf) if a != (0,) else a


_IRREDUCIBLES = {}   # (p, f, d) -> _irreducibles_of_degree(gf, d)


def _irreducibles_of_degree(gf, d):
    """The monic irreducibles of degree d over gf in coefficient order, by a
    sieve: a monic polynomial is reducible iff it is a b with a a monic
    irreducible of degree i <= d/2 (from this table) and b monic of degree
    d - i."""
    key = gf.p, gf.f, d
    if key not in _IRREDUCIBLES:
        reducible = {poly_mul(a, c + (1,), gf) for i in range(1, d // 2 + 1)
                     for a in _irreducibles_of_degree(gf, i)
                     for c in product(range(gf.q), repeat=d - i)}
        _IRREDUCIBLES[key] = tuple(h for h in (c + (1,) for c in product(range(gf.q), repeat=d))
                                   if h not in reducible)
    return _IRREDUCIBLES[key]


class GF:
    """The field F_q with integer-encoded elements.

    Immutable; all operations are pure functions of encoded elements.
    """

    def __init__(self, p, f=1):
        assert is_prime(p), f"p = {p} is not prime"
        assert f >= 1
        self.p = p
        self.f = f
        self.q = p ** f
        if f == 1:
            self.modulus = None
        else:
            if self.q > 1024:
                raise ValueError(f"q = {self.q} exceeds the supported desk-scale bound")
            fp = get_field(p, 1)
            # the integer encoding of the coefficients reads them from the top
            self.modulus = min(_irreducibles_of_degree(fp, f), key=lambda h: h[::-1])
            vecs = [[(a // p ** i) % p for i in range(f)] for a in range(self.q)]
            self._add = [[self._enc(map(fp.add, u, v)) for v in vecs] for u in vecs]
            self._neg = [self._enc(map(fp.neg, u)) for u in vecs]
            self._mul = [[self._enc(poly_rem(poly_mul(u, v, fp), self.modulus, fp))
                          for v in vecs] for u in vecs]

    def __repr__(self):
        return f"GF({self.p}, {self.f})"

    def __eq__(self, other):
        return isinstance(other, GF) and (self.p, self.f) == (other.p, other.f)

    def __hash__(self):
        return hash((self.p, self.f))

    def _enc(self, vec):
        return sum(c * self.p ** i for i, c in enumerate(vec))

    def add(self, a, b):
        if self.f == 1:
            return (a + b) % self.p
        return self._add[a][b]

    def neg(self, a):
        if self.f == 1:
            return (-a) % self.p
        return self._neg[a]

    def sub(self, a, b):
        if self.f == 1:
            return (a - b) % self.p
        return self._add[a][self._neg[b]]

    def mul(self, a, b):
        if self.f == 1:
            return (a * b) % self.p
        return self._mul[a][b]

    def pow(self, a, n):
        assert n >= 0
        if self.f == 1:
            return pow(a, n, self.p)
        out, base = 1, a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def inv(self, a):
        assert a != 0, "zero has no inverse"
        return self.pow(a, self.q - 2)


@lru_cache(maxsize=None)
def get_field(p, f):
    return GF(p, f)
