"""A fixed pure-Python task, independent of spbaw, that run.py times in a
fresh interpreter next to every command as a gauge of the machine's
current speed.

    python3 reference.py

It does the kinds of work the package does, in its own code: arithmetic in
a prime field through a small field object, polynomial powers modulo a
polynomial held as tuples (a Rabin-style irreducibility count), and
partitions built as tuples with their beta-sets and hook lengths, memoised
in dicts and sets.  It prints one checksum, which run.py compares with
CHECKSUM.
"""

FIELDS = ((5, 4), (7, 3))  # (p, d): irreducible monic of degree d
PARTITION_MAX = 27   # partitions of every n up to this
CHECKSUM = "150 112 7412"


class Field:
    """GF(P) with table look-ups, as method calls."""

    def __init__(self, p):
        self.p = p
        self._mul = [[a * b % p for b in range(p)] for a in range(p)]
        self._add = [[(a + b) % p for b in range(p)] for a in range(p)]
        self._inv = [0] + [pow(a, p - 2, p) for a in range(1, p)]

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][(self.p - b) % self.p]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        return self._inv[a]


def trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def mul(a, b, gf):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = gf.add(out[i + j], gf.mul(x, y))
    return trim(out)


def rem(a, m, gf):
    a = list(a)
    lead = gf.inv(m[-1])
    while len(a) >= len(m):
        c = gf.mul(a[-1], lead)
        shift = len(a) - len(m)
        for i, y in enumerate(m):
            a[shift + i] = gf.sub(a[shift + i], gf.mul(c, y))
        a = list(trim(a))
    return tuple(a)


def powmod(base, n, m, gf):
    out, base = (1,), rem(base, m, gf)
    while n:
        if n & 1:
            out = rem(mul(out, base, gf), m, gf)
        base = rem(mul(base, base, gf), m, gf)
        n >>= 1
    return out


def gcd(a, b, gf):
    while b:
        a, b = b, rem(a, b, gf)
    return a


def irreducible_count(gf, d):
    """Monic g of degree d over GF(p) with X^(p^d) = X mod g and
    gcd(X^(p^(d/r)) - X, g) constant for every prime r dividing d."""
    x, count = (0, 1), 0
    primes = [r for r in range(2, d + 1)
              if d % r == 0 and all(r % s for s in range(2, r))]
    polys = [()]
    for _ in range(d):
        polys = [c + (a,) for c in polys for a in range(gf.p)]
    for low in polys:
        g = low + (1,)
        if powmod(x, gf.p ** d, g, gf) != x:
            continue
        for r in primes:
            h = powmod(x, gf.p ** (d // r), g, gf) + (0,) * 2
            diff = trim(tuple(gf.sub(a, b) for a, b in zip(h, x + (0,) * d)))
            if len(gcd(diff, g, gf)) != 1:
                break
        else:
            count += 1
    return count


def partitions(n, most, memo):
    """Partitions of n with parts at most `most`, as decreasing tuples."""
    key = (n, most)
    if key not in memo:
        if n == 0:
            memo[key] = [()]
        else:
            memo[key] = [(k,) + rest for k in range(min(n, most), 0, -1)
                         for rest in partitions(n - k, k, memo)]
    return memo[key]


def hooks(lam):
    """Multiset of hook lengths, from the beta-set of lam."""
    beta = {part + len(lam) - 1 - i for i, part in enumerate(lam)}
    return tuple(sorted(b - c for b in beta for c in range(b)
                        if c not in beta))


def main():
    counts = [irreducible_count(Field(p), d) for p, d in FIELDS]
    seen, memo = {}, {}
    for n in range(1, PARTITION_MAX + 1):
        for lam in partitions(n, n, memo):
            h = hooks(lam)
            seen[h] = seen.get(h, 0) + 1
    print(*counts, len(seen))


if __name__ == "__main__":
    main()
