"""Exact arithmetic in the finite field F_q, q = p^f.

Elements are encoded as integers in [0, q): the element with coordinate
vector (c_0, ..., c_{f-1}) over F_p is c_0 + c_1*p + ... + c_{f-1}*p^(f-1).
For f = 1 this is plain modular arithmetic; for f >= 2 the field is
F_p[t]/(m(t)) with m the canonical modulus below.
"""

from functools import lru_cache


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


def _fp_poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _fp_poly_rem(a, m, p):
    # a, m lists of coefficients (constant first), m monic
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return a[:dm]


def _fp_irreducible(coeffs, p):
    """Trial division by all lower-degree monic polynomials over F_p."""
    d = len(coeffs) - 1
    if d <= 0:
        return False
    if d == 1:
        return True
    for deg in range(1, d // 2 + 1):
        for enc in range(p ** deg):
            div = [(enc // p ** i) % p for i in range(deg)] + [1]
            r = _fp_poly_rem(coeffs, div, p)
            if not any(r):
                return False
    return True


def _canonical_modulus(p, f):
    """Smallest (by integer encoding of the low coefficients) monic
    irreducible polynomial of degree f over F_p."""
    for enc in range(p ** f):
        coeffs = [(enc // p ** i) % p for i in range(f)] + [1]
        if _fp_irreducible(coeffs, p):
            return coeffs
    raise AssertionError("no irreducible modulus found")


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
            self.modulus = _canonical_modulus(p, f)
            self._mul = [[self._mul_slow(a, b) for b in range(self.q)]
                         for a in range(self.q)]
            self._add = [[self._add_slow(a, b) for b in range(self.q)]
                         for a in range(self.q)]
            self._neg = [self._neg_slow(a) for a in range(self.q)]

    def __repr__(self):
        return f"GF({self.p}, {self.f})"

    def __eq__(self, other):
        return isinstance(other, GF) and (self.p, self.f) == (other.p, other.f)

    def __hash__(self):
        return hash((self.p, self.f))

    def _vec(self, a):
        p = self.p
        return [(a // p ** i) % p for i in range(self.f)]

    def _enc(self, vec):
        return sum(c * self.p ** i for i, c in enumerate(vec))

    def _add_slow(self, a, b):
        va, vb = self._vec(a), self._vec(b)
        return self._enc([(x + y) % self.p for x, y in zip(va, vb)])

    def _neg_slow(self, a):
        return self._enc([(-x) % self.p for x in self._vec(a)])

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

    def _mul_slow(self, a, b):
        prod = _fp_poly_mul(self._vec(a), self._vec(b), self.p)
        return self._enc(_fp_poly_rem(prod, self.modulus, self.p))

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
