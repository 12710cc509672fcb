"""Label functions that only the tests call: references that the package's
own paths are checked against, and helpers of the tests' assertions.  No
`sp-baw` command runs them, so they live here, not in src/spbaw."""

from spbaw import bawcheck as bc, labelspace as ls, symbcomb
from spbaw.partcomb import (e_core, e_core_quotient, enumerate_partitions,
                            enumerate_tuples, is_e_core)
from spbaw.symbcomb import LSymbol


# ---------------------------------------------------------------------------
# partitions and ell-core towers

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


def tower_weighted_size(tower, ell):
    return sum(ell ** d * sum(sum(x) for x in level)
               for d, level in enumerate(tower))


def enumerate_e_cores(e, max_size):
    """All e-cores of size <= max_size, ordered by (size, enumeration order)."""
    assert e >= 1 and max_size >= 0
    return [p for s in range(max_size + 1) for p in enumerate_partitions(s)
            if is_e_core(p, e)]


# ---------------------------------------------------------------------------
# symbols

def defect(sym):
    a, b = sym
    return abs(len(a) - len(b))


def quotient_size(pair):
    return sum(sum(p) for tup in pair for p in tup)


def orientation_of(sym, e, mode):
    """0 if the chain-0 tuple is the canonically smaller one, else 1."""
    _, A, B = symbcomb._extract(sym, e, mode)
    return 0 if (A, B) == tuple(sorted((A, B))) else 1


def enumerate_quotient_pairs(e, w):
    """All unordered pairs [A; B] of e-tuples of partitions, |A|+|B| = w."""
    out = set()
    for wa in range(w + 1):
        for A in enumerate_tuples(e, wa):
            for B in enumerate_tuples(e, w - wa):
                out.add(tuple(sorted((A, B))))
    return sorted(out)


def symbols_with_core(core, w, e, mode):
    """All symbols with the given e-core and quotient of total size w."""
    out = []
    for pair in enumerate_quotient_pairs(e, w):
        out.extend(symbcomb.from_core_quotient_sym(core, pair, e, mode))
    return sorted(out)


# ---------------------------------------------------------------------------
# labels and actions

def block_of_ibr(ctx, label):
    """The unique block containing a Brauer label: take component cores."""
    xp = ls.x_plus_class(ctx)
    kappa = []
    for pc, v in label.lam:
        if pc.family != "F0":
            kappa.append((pc, e_core(v, pc.e_gamma)))
        else:
            kappa.append((pc, symbcomb.sym_core_quotient(v, ctx.e, ctx.mode)[0]))
    if xp not in [pc for pc, _ in label.lam]:
        kappa.append((xp, LSymbol()))
    kappa = tuple(sorted(kappa))
    core_plus = dict(kappa)[xp]
    if symbcomb.is_degenerate(core_plus):
        return ls.BlockLabel(s=label.s, kappa=kappa, i=0, i_collapsed=True)
    return ls.BlockLabel(s=label.s, kappa=kappa, i=label.j, i_collapsed=False)


def universe_size(ctx, n):
    """len(ls.enumerate_ibr_universe(ctx, n)), counted."""
    return sum(ls.semisimple_ibr_count(ctx, s) for s in ls.enumerate_semisimple(ctx, n))


def act_on_semisimple(ctx, action, s):
    """The action on a semisimple label: field(i) relabels its divisors,
    diagonal fixes it."""
    if action.kind == "diagonal" or bc._is_identity(ctx, action):
        return s
    return bc._field_on_semisimple(ctx, action.power, s)


def q_to_k(ctx, wq):
    k = tuple((pc, tuple(core_tower(p, ctx.ell) for p in fam))
              for pc, fam in wq.q)
    return ls.WeightLabelK(block=wq.block, k=k)


def radical_shape(ctx, wk):
    """Multiplicities of the radical-subgroup factors carried by K: one
    entry (divisor, level, branch, t) per slot family with t > 0."""
    shape = []
    for pc, fam in wk.k:
        for b, tower in enumerate(fam):
            for d, level in enumerate(tower):
                t = sum(sum(x) for x in level)
                if t:
                    shape.append((pc, d, b, t))
    return tuple(sorted(shape))


def orbit_sizes(items, step):
    """Multiset of orbit sizes of the cyclic action generated by step."""
    seen, sizes = set(), []
    for x in items:
        if x in seen:
            continue
        orbit = [x]
        y = step(x)
        while y != x:
            orbit.append(y)
            y = step(y)
        seen.update(orbit)
        sizes.append(len(orbit))
    return sorted(sizes)
