"""Partition combinatorics: beta-sets, e-hooks, e-cores and e-quotients,
ell-core towers, and the bounded enumerations that drive label counting.

A partition is a tuple of weakly decreasing positive integers; a beta-set
a strictly decreasing tuple of naturals.  Quotient components are indexed
by the residue of the beta-set entries, with the beta-set length
normalized to a multiple of e (so the ordering is stable under length
changes by whole rows of beads).
"""

from functools import lru_cache
from itertools import product


def beta_set(p, length):
    """{p_i + (length - i)} with p_i = 0 beyond the last part."""
    if length < len(p):
        raise ValueError(f"beta-set length {length} < number of parts {len(p)}")
    parts = tuple(p) + (0,) * (length - len(p))
    return tuple(parts[i] + (length - 1 - i) for i in range(length))


def partition_of_beta(beta):
    """Inverse of beta_set for a set of distinct naturals."""
    b = tuple(sorted(beta, reverse=True))
    n = len(b)
    assert all(x > y for x, y in zip(b, b[1:])), f"beads must be distinct: {beta}"
    parts = tuple(b[i] - (n - 1 - i) for i in range(n))
    return tuple(a for a in parts if a > 0)


def _runner_heights(beta, e):
    """Heights per runner: runner r holds {x // e : x in beta, x % e == r}."""
    runners = [[] for _ in range(e)]
    for x in beta:
        runners[x % e].append(x // e)
    return [tuple(sorted(h, reverse=True)) for h in runners]


@lru_cache(maxsize=None)
def e_core_quotient(p, e):
    """The e-core and ordered e-quotient of p (single-runner abacus form)."""
    assert e >= 1
    length = -(-max(len(p), 1) // e) * e
    beta = beta_set(p, length)
    runners = _runner_heights(beta, e)
    quotient = tuple(partition_of_beta(h) for h in runners)
    core_beta = [e * j + r for r, h in enumerate(runners) for j in range(len(h))]
    core = partition_of_beta(core_beta)
    return core, quotient


def e_core(p, e):
    return e_core_quotient(p, e)[0]


def is_e_core(p, e):
    """No bead can fall e positions: x - e >= 0 and x - e free never holds."""
    beta = beta_set(p, max(len(p), 1))
    s = set(beta)
    return not any(x - e >= 0 and x - e not in s for x in beta)


@lru_cache(maxsize=None)
def from_core_quotient(core, quotient):
    """The unique partition with the given e-core and e-quotient."""
    e = len(quotient)
    assert e >= 1
    if not is_e_core(core, e):
        raise ValueError(f"{core} is not a {e}-core")
    t = len(core) + max((len(q) for q in quotient), default=0) + 1
    beta = beta_set(core, e * t)
    runners = _runner_heights(beta, e)
    new_beta = []
    for r, heights in enumerate(runners):
        k = len(heights)
        assert heights == tuple(range(k - 1, -1, -1)), "core runners must be packed"
        q = quotient[r]
        assert k >= len(q)
        new_beta.extend(e * j + r for j in beta_set(q, k))
    return partition_of_beta(new_beta)


def core_tower(p, ell):
    """Tower of ell-cores: level 0 is the core of p, level d+1 concatenates
    the towers of the ell-quotient entries.  Trailing all-empty levels are
    trimmed, so the empty partition has the empty tower."""
    assert ell >= 2
    if not p:
        return ()
    core, quotient = e_core_quotient(p, ell)
    subtowers = [core_tower(q, ell) for q in quotient]
    depth = max((len(t) for t in subtowers), default=0)
    levels = [(core,)]
    for d in range(depth):
        level = []
        for t in subtowers:
            level.extend(t[d] if d < len(t) else ((),) * ell ** d)
        levels.append(tuple(level))
    while levels and all(x == () for x in levels[-1]):
        levels.pop()
    return tuple(levels)


def tower_to_partition(tower, ell):
    """Two-sided inverse of core_tower."""
    if not tower:
        return ()
    for d, level in enumerate(tower):
        assert len(level) == ell ** d, "malformed tower level"
        assert all(is_e_core(x, ell) for x in level), "tower entries must be ell-cores"
    core = tower[0][0]
    subtowers = []
    for j in range(ell):
        sub = []
        for d in range(1, len(tower)):
            width = ell ** (d - 1)
            sub.append(tower[d][j * width:(j + 1) * width])
        while sub and all(x == () for x in sub[-1]):
            sub.pop()
        subtowers.append(tuple(sub))
    quotient = tuple(tower_to_partition(t, ell) for t in subtowers)
    return from_core_quotient(core, quotient)


def tower_weighted_size(tower, ell):
    return sum(ell ** d * sum(sum(x) for x in level)
               for d, level in enumerate(tower))


def enumerate_partitions(m):
    """All partitions of m, largest-part-first lexicographic order."""
    assert m >= 0
    out = []

    def rec(rest, maxpart, prefix):
        if rest == 0:
            out.append(tuple(prefix))
            return
        for a in range(min(rest, maxpart), 0, -1):
            prefix.append(a)
            rec(rest - a, a, prefix)
            prefix.pop()

    rec(m, m if m else 1, [])
    return out


def enumerate_e_cores(e, max_size):
    """All e-cores of size <= max_size, ordered by (size, enumeration order)."""
    assert e >= 1 and max_size >= 0
    return [p for s in range(max_size + 1) for p in enumerate_partitions(s)
            if is_e_core(p, e)]


def weighted_tuples(k, w, items_of):
    """Every ordered k-tuple (x_1, ..., x_k), x_i drawn from items_of(w_i),
    with w_1 + ... + w_k = w.  Slot weights run from w down to 0, the last
    slot taking the rest."""
    assert k >= 0 and w >= 0
    if k == 0:
        return [()] if w == 0 else []
    out = []

    def rec(slot, rest, prefix):
        if slot == k - 1:
            out.extend(prefix + (x,) for x in items_of(rest))
            return
        for s in range(rest, -1, -1):
            for x in items_of(s):
                rec(slot + 1, rest - s, prefix + (x,))

    rec(0, w, ())
    return out


def enumerate_tuples(k, w):
    """Every ordered k-tuple of partitions of total size w."""
    return weighted_tuples(k, w, enumerate_partitions)


def enumerate_core_towers(ell, v):
    """All ell-core towers of weighted size v, enumerated from the level
    structure directly (independent of the partition correspondence)."""
    assert v >= 0
    if v == 0:
        return [()]
    vectors = []

    def level_sizes(rest, d, prefix):
        scale = ell ** d
        if scale > rest:
            if rest == 0 and prefix and prefix[-1] > 0:
                vectors.append(tuple(prefix))
            return
        for s in range(rest // scale, -1, -1):
            prefix.append(s)
            level_sizes(rest - scale * s, d + 1, prefix)
            prefix.pop()

    level_sizes(v, 0, [])

    def cores_of_size(s):
        return [p for p in enumerate_partitions(s) if is_e_core(p, ell)]

    out = []
    for vec in sorted(vectors):
        out.extend(product(*(weighted_tuples(ell ** d, s, cores_of_size)
                             for d, s in enumerate(vec))))
    return out
