"""Class numbers of Sp_2n(q) from Wall's generating function, written
without reference to the spbaw package:

    sum_n k(Sp_2n(q)) t^n = prod_{i >= 1} (1 + t^i)^4 / (1 - q t^i),  q odd

(G. E. Wall, J. Austral. Math. Soc. 3, 1963).  When e, the order of q^2
modulo ell, exceeds n, ell does not divide |Sp_2n(q)|: every block has
defect zero, so the block count and the Brauer-label count both equal
k(Sp_2n(q)).
"""


def class_numbers(q, n_max):
    """[k(Sp_0(q)), k(Sp_2(q)), ..., k(Sp_2n_max(q))] for odd q."""
    coeffs = [1] + [0] * n_max
    for i in range(1, n_max + 1):
        for _ in range(4):                      # times (1 + t^i)
            for d in range(n_max, i - 1, -1):
                coeffs[d] += coeffs[d - i]
        for d in range(i, n_max + 1):           # divided by (1 - q t^i)
            coeffs[d] += q * coeffs[d - i]
    return coeffs


def order_of_q2(q, ell):
    """e: the multiplicative order of q^2 modulo the prime ell."""
    a = q * q % ell
    e, x = 1, a
    while x != 1:
        x = x * a % ell
        e += 1
    return e


def expected_count(p, f, ell, n):
    """k(Sp_2n(p^f)) when the oracle applies (e > n), else None."""
    q = p ** f
    if order_of_q2(q, ell) <= n:
        return None
    return class_numbers(q, n)[n]
