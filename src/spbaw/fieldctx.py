"""The global arithmetic frame (p, f, q, ell, e, epsilon).

Every enumeration in the package is driven by one of these contexts.
e is the multiplicative order of q^2 modulo ell; epsilon records whether
ell divides q^e - 1 (linear, +1) or q^e + 1 (unitary, -1).
"""

from collections import namedtuple

from .gf import get_field, is_prime, prime_divisors


def order_mod(a, m):
    """Minimal k >= 1 with a^k = 1 mod m (m prime, a invertible mod m).
    k divides m - 1, so k starts there and each prime factor r of m - 1
    is divided out while a^(k/r) = 1 still holds."""
    assert is_prime(m), f"modulus {m} is not prime"
    a %= m
    if a == 0:
        raise ValueError("a must be invertible modulo m")
    k = m - 1
    for r in prime_divisors(k):
        while k % r == 0 and pow(a, k // r, m) == 1:
            k //= r
    return k


_FIELDS = {}    # (p, f) -> get_field(p, f), filled by make_context


class FieldContext(namedtuple("FieldContext", "p f q ell e epsilon")):
    __slots__ = ()

    @property
    def gf(self):
        """F_q, outside equality and hashing: (p, f) determines it."""
        return _FIELDS[self.p, self.f]

    @property
    def mode(self):
        """Symbol core/quotient mode: hooks for linear primes, cohooks for unitary."""
        return "hook" if self.epsilon == 1 else "cohook"


def make_context(p, f, ell):
    """Validate (p, f, ell) and derive q, e and epsilon."""
    if not is_prime(p) or p % 2 == 0:
        raise ValueError(f"p = {p} must be an odd prime")
    if f < 1:
        raise ValueError(f"f = {f} must be a positive integer")
    if not is_prime(ell) or ell % 2 == 0:
        raise ValueError(f"ell = {ell} must be an odd prime")
    if ell == p:
        raise ValueError("ell must differ from p")
    q = p ** f
    e = order_mod(q * q % ell, ell)
    if (pow(q, e, ell) - 1) % ell == 0:
        epsilon = 1
    else:
        assert (pow(q, e, ell) + 1) % ell == 0
        epsilon = -1
    _FIELDS[p, f] = get_field(p, f)
    return FieldContext(p=p, f=f, q=q, ell=ell, e=e, epsilon=epsilon)
