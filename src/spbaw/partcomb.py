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
    if any(x == y for x, y in zip(b, b[1:])):
        raise ValueError(f"beads must be distinct: {beta}")
    parts = tuple(b[i] - (n - 1 - i) for i in range(n))
    return tuple(a for a in parts if a > 0)


def abacus(rows, e, zigzag=False):
    """Bead heights of an e-runner abacus per track (runner, side), for the
    tracks that hold beads, highest first: bead x of row i sits at height
    x // e on runner x % e, side i, or side (x // e + i) % 2 when zigzag."""
    tracks = {}
    for i, row in enumerate(rows):
        for x in row:
            r, h = x % e, x // e
            tracks.setdefault((r, (h + i) % 2 if zigzag else i), []).append(h)
    return {k: tuple(sorted(v, reverse=True)) for k, v in tracks.items()}


@lru_cache(maxsize=None)
def e_core_quotient(p, e):
    """The e-core and ordered e-quotient of p, read on the runners holding
    beads of its beta-set of length len(p): runner r is quotient slot
    (r - len(p)) % e, its runner on a beta-set of length a multiple of e."""
    if e < 1:
        raise ValueError(f"e = {e} must be at least 1")
    k = len(p)
    runners = abacus((beta_set(p, k),), e)
    quotient = [()] * e
    for (r, _), heights in runners.items():
        quotient[(r - k) % e] = partition_of_beta(heights)
    core = partition_of_beta([e * j + r for (r, _), h in runners.items() for j in range(len(h))])
    return core, tuple(quotient)


def e_core(p, e):
    return e_core_quotient(p, e)[0]


def is_e_core(p, e):
    """No bead can fall e positions: x - e >= 0 and x - e free never holds."""
    beta = beta_set(p, max(len(p), 1))
    s = set(beta)
    return not any(x - e >= 0 and x - e not in s for x in beta)


@lru_cache(maxsize=None)
def from_core_quotient(core, quotient):
    """The unique partition with the given e-core and e-quotient: each runner
    holding beads of the core's beta-set, lengthened by e per part of the
    longest entry, takes the beta-set of its slot's entry."""
    e = len(quotient)
    if e < 1:
        raise ValueError("the quotient must have at least one entry")
    if not is_e_core(core, e):
        raise ValueError(f"{core} is not a {e}-core")
    length = len(core) + e * max(map(len, quotient))
    new_beta = []
    for (r, _), heights in abacus((beta_set(core, length),), e).items():
        new_beta.extend(e * j + r for j in beta_set(quotient[(r - length) % e], len(heights)))
    return partition_of_beta(new_beta)


@lru_cache(maxsize=None)
def tower_to_partition(tower, ell):
    """The partition with ell-core tower `tower`: level 0 holds its
    ell-core, level d+1 the towers of its ell-quotient entries side by side
    (ell^d entries each), trailing all-empty levels trimmed; the empty
    tower is the empty partition's.  A malformed tower raises ValueError."""
    if not tower:
        return ()
    for d, level in enumerate(tower):
        if len(level) != ell ** d:
            raise ValueError(f"malformed tower level {d}: {len(level)} entries, "
                             f"not {ell}^{d}")
        if not all(is_e_core(x, ell) for x in level):
            raise ValueError(f"tower entries must be {ell}-cores: level {d} is {level}")
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


def enumerate_partitions(m):
    """All partitions of m, largest-part-first lexicographic order."""
    if m < 0:
        raise ValueError(f"cannot partition {m}")
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


def weighted_tuples(k, w, items_of):
    """Every ordered k-tuple (x_1, ..., x_k), x_i drawn from items_of(w_i),
    with w_1 + ... + w_k = w.  Slot weights run from w down to 0, the last
    slot taking the rest.  A depth-first walk on an explicit stack, so no
    frame per slot; once the weight is spent the remaining slots are one
    product over items_of(0)."""
    if k < 0 or w < 0:
        raise ValueError(f"k = {k} and w = {w} must be nonnegative")
    items = [tuple(items_of(s)) for s in range(w + 1)]
    out = []
    stack = [((), w)]
    while stack:
        prefix, rest = stack.pop()
        slot = len(prefix)
        if rest == 0:
            out.extend(prefix + tail for tail in product(items[0], repeat=k - slot))
        elif slot == k - 1:
            out.extend(prefix + (x,) for x in items[rest])
        elif slot < k - 1:
            stack.extend(reversed([(prefix + (x,), rest - s)
                                   for s in range(rest, -1, -1) for x in items[s]]))
    return out


def enumerate_tuples(k, w):
    """Every ordered k-tuple of partitions of total size w."""
    return weighted_tuples(k, w, enumerate_partitions)


def enumerate_core_towers(ell, v):
    """All ell-core towers of weighted size v, enumerated from the level
    structure directly (independent of the partition correspondence)."""
    if v < 0:
        raise ValueError(f"weighted size {v} must be nonnegative")
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
