from math import prod

import pytest

from spbaw.fieldctx import make_context, order_mod
from spbaw.gf import is_prime, prime_divisors


def test_order_mod_identity():
    assert order_mod(1, 7) == 1


def oracle(a, m):
    # independent oracle: scan powers directly
    x, k = a % m, 1
    while x != 1:
        x = x * a % m
        k += 1
    return k


def test_order_mod_by_repeated_multiplication():
    assert order_mod(4, 5) == 2 == oracle(4, 5)
    assert order_mod(9, 13) == 3 == oracle(9, 13)
    primes = [m for m in range(200) if is_prime(m)]
    assert len(primes) == 46
    for m in primes:
        for a in range(1, m):
            assert order_mod(a, m) == oracle(a, m), (a, m)


# 10^12 + 38 = 2 * 3 * 13 * 17 * 29 * 26005097
LARGE_PRIME, FACTORS = 10 ** 12 + 39, (2, 3, 13, 17, 29, 26005097)


@pytest.mark.parametrize("a", [2, 3, 9, 10 ** 6 + 3, 10 ** 12 + 38])
def test_order_mod_is_certified_on_a_large_prime(a):
    # too large for the oracle: a^k = 1, and no a^(k/r) = 1 for a prime r | k
    m = LARGE_PRIME
    k = order_mod(a, m)
    assert (m - 1) % k == 0 and pow(a, k, m) == 1
    for r in FACTORS:
        if k % r == 0:
            assert pow(a, k // r, m) != 1, r


def test_prime_divisors_and_is_prime():
    assert list(prime_divisors(1)) == []
    assert list(prime_divisors(360)) == [2, 3, 5]
    assert list(prime_divisors(LARGE_PRIME - 1)) == list(FACTORS)
    assert prod(FACTORS) == LARGE_PRIME - 1
    assert is_prime(LARGE_PRIME) and all(is_prime(r) for r in FACTORS)
    assert [n for n in range(-3, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17,
                                                         19, 23, 29]


def test_order_mod_rejects_zero():
    with pytest.raises(ValueError):
        order_mod(10, 5)


def test_make_context_examples():
    ctx = make_context(3, 1, 5)
    assert (ctx.q, ctx.e, ctx.epsilon) == (3, 2, -1)
    ctx = make_context(3, 1, 13)
    assert (ctx.q, ctx.e, ctx.epsilon) == (3, 3, 1)
    ctx = make_context(5, 1, 3)
    assert (ctx.q, ctx.e, ctx.epsilon) == (5, 1, -1)


def test_make_context_rejects_bad_input():
    for args in [(2, 1, 5), (3, 1, 2), (5, 1, 5), (9, 1, 5), (3, 0, 5), (3, 1, 9)]:
        with pytest.raises(ValueError):
            make_context(*args)


def test_exactly_one_sign_condition_holds():
    for p, f, ell in [(3, 1, 5), (3, 1, 7), (3, 1, 11), (3, 1, 13), (5, 1, 3),
                      (5, 1, 7), (7, 1, 3), (7, 1, 5), (3, 2, 5), (3, 2, 7)]:
        ctx = make_context(p, f, ell)
        lin = (ctx.q ** ctx.e - 1) % ell == 0
        uni = (ctx.q ** ctx.e + 1) % ell == 0
        assert lin != uni
        assert ctx.epsilon == (1 if lin else -1)
        assert (ctx.q ** (2 * ctx.e) - 1) % ell == 0
        # minimality of e for q^2
        for k in range(1, ctx.e):
            assert (ctx.q ** (2 * k) - 1) % ell != 0
