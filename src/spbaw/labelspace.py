"""Label sets: semisimple class labels of SO_{2n+1}(q), block labels,
Brauer-character labels and weight labels in ordered-quotient (Q) and
core-tower (K) form.

A semisimple class is recorded by its multiplicity function on the
elementary-divisor classes plus the type signs at X-1 and X+1.  A block
label is (s, kappa, i) where kappa assigns an e_Gamma-core (partition for
F1/F2, symbol for X+-1) to each divisor and i in Z/2 collapses exactly
when kappa at X+1 is degenerate.  The X+-1 symbol components use hooks
for linear primes and cohooks for unitary ones.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import product

from . import ffpoly, partcomb, symbcomb
from .symbcomb import LSymbol


class CheckFailed(Exception):
    """A verification check found a violation.  Checks raise it explicitly,
    not through assert, so that their verdicts survive python -O."""


def check(cond, msg):
    if not cond:
        raise CheckFailed(msg)


@lru_cache(maxsize=None)
def x_minus_class(ctx):
    return ffpoly.classify(ffpoly.poly_x_minus_one(ctx), ctx)


@lru_cache(maxsize=None)
def x_plus_class(ctx):
    return ffpoly.classify(ffpoly.poly_x_plus_one(ctx), ctx)


def is_x_minus(pc, ctx):
    return pc.family == "F0" and pc.gamma == ffpoly.poly_x_minus_one(ctx)


def is_x_plus(pc, ctx):
    return pc.family == "F0" and pc.gamma == ffpoly.poly_x_plus_one(ctx)


def _value_at(entries, pc, default=None):
    """The value at pc of a ((PolyClass, value), ...) assignment."""
    for c, v in entries:
        if c == pc:
            return v
    return default


# ---------------------------------------------------------------------------
# semisimple labels

class _Label(tuple):
    """Base of the block, Brauer and weight labels: a tuple that compares its
    type first, as a defect-zero block's Q and K labels have equal fields,
    and so may a block and a Brauer label.  Tuple order is label order."""
    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = tuple.__hash__


class SemisimpleLabel(namedtuple("SemisimpleLabel", "entries eta_plus eta_minus")):
    """Multiplicity function plus type signs; determines the class.  entries:
    sorted ((PolyClass, mult), ...), mult >= 1; eta_plus: the sign at X+1,
    present iff its multiplicity > 0."""
    __slots__ = ()

    def mult(self, pc):
        return _value_at(self.entries, pc, 0)

    def support(self):
        return tuple(c for c, _ in self.entries)

    def __repr__(self):
        parts = ", ".join(f"{list(c.gamma)}^{m}" for c, m in self.entries)
        return f"SemisimpleLabel({parts}; eta+={self.eta_plus}, eta-={self.eta_minus})"


def eta_of_class(pc, mult):
    """Type sign of the orthogonal summand for an F1/F2 divisor; forced by
    the multiplicity."""
    assert pc.family != "F0"
    return pc.sign ** mult if pc.sign == -1 else 1


def _make_semisimple(ctx, items, eta_plus):
    items = tuple(sorted(items))
    prod = eta_plus if eta_plus is not None else 1
    for pc, m in items:
        if pc.family != "F0":
            prod *= eta_of_class(pc, m)
    return SemisimpleLabel(entries=items, eta_plus=eta_plus, eta_minus=prod)


def enumerate_semisimple(ctx, n, ell_prime_only=True):
    """All semisimple class labels for SO_{2n+1}(q); the eigenvalue 1 is
    always present with odd multiplicity and the multiplicity at X+1 is
    even."""
    assert n >= 1
    dim = 2 * n + 1
    xm, xp = x_minus_class(ctx), x_plus_class(ctx)
    others = [pc for pc in ffpoly.enumerate_classes(ctx, dim - 1, ell_prime_only)
              if pc.family != "F0"]
    out = []

    def rec(idx, budget, chosen):
        if idx == len(others):
            for m_plus in range(0, budget + 1, 2):
                m_minus = budget - m_plus
                if m_minus % 2 == 1:
                    items = chosen + [(xm, m_minus)]
                    if m_plus:
                        items = items + [(xp, m_plus)]
                        for eta in (1, -1):
                            out.append(_make_semisimple(ctx, items, eta))
                    else:
                        out.append(_make_semisimple(ctx, items, None))
            return
        pc = others[idx]
        rec(idx + 1, budget, chosen)
        m = 1
        while m * pc.deg <= budget - 1:
            rec(idx + 1, budget - m * pc.deg, chosen + [(pc, m)])
            m += 1

    rec(0, dim, [])
    return sorted(out)


# ---------------------------------------------------------------------------
# block labels and condition (C)

class BlockLabel(_Label, namedtuple("BlockLabel", "s kappa i i_collapsed")):
    """kappa: sorted ((PolyClass, core), ...), core partition or LSymbol."""
    __slots__ = ()

    def core_of(self, pc):
        return _value_at(self.kappa, pc)

    def __repr__(self):
        return f"BlockLabel(s={self.s!r}, kappa={self.kappa}, i={self.i})"


_DEFECTS = {"odd": lambda d: d % 2 == 1,
            "mod4_0": lambda d: d % 4 == 0,
            "mod4_2": lambda d: d % 4 == 2}


def _defect_tag(ctx, pc, eta_plus):
    """The defect class of the symbols at X-1 (odd) or X+1 (0 mod 4, or
    2 mod 4 when eta_plus is -1).  X+1 outside the support has rank 0,
    where the empty symbol is the only one of defect 0 mod 4."""
    if is_x_minus(pc, ctx):
        return "odd"
    return "mod4_2" if eta_plus == -1 else "mod4_0"


@lru_cache(maxsize=None)
def _symbol_table(rank_n, tag, e, mode):
    """The rank-n symbols in the defect class `tag`, grouped by e-core:
    {core: sorted symbols}, cores in order.  Each symbol is enumerated and
    extracted once.  The symbols with core kappa and weight w are the
    symbols of rank rank(kappa) + e*w with core kappa, all in one defect
    class (a cohook changes the defect by 2), so a group is
    symbcomb.symbols_with_core(kappa, w, e, mode)."""
    groups = {}
    for sym in symbcomb.enumerate_symbols(rank_n, _DEFECTS[tag]):
        core, _ = symbcomb.sym_core_quotient(sym, e, mode)
        groups.setdefault(core, []).append(sym)
    for core in groups:
        assert (rank_n - symbcomb.rank(core)) % e == 0
    return {core: tuple(groups[core]) for core in sorted(groups)}


def _core_choices(ctx, pc, m, eta_plus):
    """Admissible kappa values at one divisor."""
    if pc.family != "F0":
        return [k for k in partcomb.enumerate_e_cores(pc.e_gamma, m)
                if (m - sum(k)) % pc.e_gamma == 0]
    return _symbol_table(m // 2, _defect_tag(ctx, pc, eta_plus), ctx.e, ctx.mode).keys()


def weight_of(ctx, block, pc):
    """The weight w_Gamma determined by the multiplicity and the core."""
    m = block.s.mult(pc)
    core = block.core_of(pc)
    if pc.family != "F0":
        if core is None:
            return 0
        lhs, step = m - sum(core), pc.e_gamma
    elif is_x_plus(pc, ctx):
        core = core if core is not None else LSymbol()
        lhs, step = m - 2 * symbcomb.rank(core), 2 * ctx.e
    else:
        lhs, step = m - 1 - 2 * symbcomb.rank(core), 2 * ctx.e
    if lhs < 0 or lhs % step:
        raise ValueError(f"no nonnegative integer weight at {pc}: m={m}, core={core}")
    return lhs // step


def block_weights(ctx, block):
    """((pc, w_Gamma), ...) over block_classes: a block's weights, computed
    once and passed to the enumerators of its labels."""
    return tuple((pc, weight_of(ctx, block, pc)) for pc in block_classes(ctx, block.s))


@lru_cache(maxsize=None)
def block_classes(ctx, s):
    """The divisors carrying data over the semisimple label s: its support
    plus X+1."""
    classes = s.support()
    xp = x_plus_class(ctx)
    return classes if xp in classes else tuple(sorted(classes + (xp,)))


def _z2_indices(degenerate):
    """The (index, collapsed) values of the Z/2 index over a part at X+1:
    one collapsed value when the part is degenerate, else two."""
    return ((0, True),) if degenerate else ((0, False), (1, False))


def enumerate_blocks(ctx, n, ell_prime_only=True):
    """All block labels (s, kappa, i) with kappa admissible for s."""
    xp = x_plus_class(ctx)
    out = []
    for s in enumerate_semisimple(ctx, n, ell_prime_only):
        choices = [[(pc, core) for core in
                    _core_choices(ctx, pc, s.mult(pc), s.eta_plus)]
                   for pc in block_classes(ctx, s)]
        for kappa in product(*choices):
            degenerate = symbcomb.is_degenerate(dict(kappa)[xp])
            out.extend(BlockLabel(s=s, kappa=kappa, i=i, i_collapsed=c)
                       for i, c in _z2_indices(degenerate))
    return sorted(out)


# ---------------------------------------------------------------------------
# Brauer character labels

class IBrLabel(_Label, namedtuple("IBrLabel", "s lam j j_collapsed")):
    """lam: sorted ((PolyClass, partition-or-symbol), ...)."""
    __slots__ = ()

    def part_of(self, pc):
        return _value_at(self.lam, pc)

    def __repr__(self):
        return f"IBrLabel(s={self.s!r}, lam={self.lam}, j={self.j})"


@lru_cache(maxsize=None)
def _partitions_with_core(core, w, e):
    quots = partcomb.enumerate_tuples(e, w)
    return tuple(partcomb.from_core_quotient(core, t) for t in quots)


def enumerate_ibr(ctx, block, weights=None):
    """The Brauer-character labels of a block: component cores equal to
    kappa, with the Z/2 index collapsing on degenerate X+1 parts.  weights
    is block_weights(ctx, block), computed here when not given."""
    xp = x_plus_class(ctx)
    per_class = []
    for pc, w in weights or block_weights(ctx, block):
        core = block.core_of(pc)
        if pc.family != "F0":
            vals = _partitions_with_core(core, w, pc.e_gamma)
        else:
            tag = _defect_tag(ctx, pc, block.s.eta_plus)
            vals = _symbol_table(block.s.mult(pc) // 2, tag, ctx.e, ctx.mode)[core]
        per_class.append([(pc, v) for v in vals])
    out = []
    core_plus = block.core_of(xp) or LSymbol()
    for lam in product(*per_class):
        degenerate = symbcomb.is_degenerate(dict(lam)[xp])
        if not symbcomb.is_degenerate(core_plus):
            assert not degenerate
            indices = ((block.i, False),)
        else:
            indices = _z2_indices(degenerate)
        out.extend(IBrLabel(s=block.s, lam=lam, j=j, j_collapsed=c)
                   for j, c in indices)
    return sorted(out)


def block_of_ibr(ctx, label):
    """The unique block containing a Brauer label: take component cores."""
    xp = x_plus_class(ctx)
    kappa = []
    for pc, v in label.lam:
        if pc.family != "F0":
            kappa.append((pc, partcomb.e_core(v, pc.e_gamma)))
        else:
            kappa.append((pc, symbcomb.sym_core_quotient(v, ctx.e, ctx.mode)[0]))
    if xp not in [pc for pc, _ in label.lam]:
        kappa.append((xp, LSymbol()))
    kappa = tuple(sorted(kappa))
    core_plus = dict(kappa)[xp]
    if symbcomb.is_degenerate(core_plus):
        return BlockLabel(s=label.s, kappa=kappa, i=0, i_collapsed=True)
    return BlockLabel(s=label.s, kappa=kappa, i=label.j, i_collapsed=False)


def enumerate_ibr_universe(ctx, n):
    """Every Brauer label over every ell-regular semisimple class, built
    without reference to blocks (the global basic-set universe).  The
    reference for universe_size."""
    out = []
    xp = x_plus_class(ctx)
    for s in enumerate_semisimple(ctx, n, ell_prime_only=True):
        per_class = []
        for pc in block_classes(ctx, s):
            m = s.mult(pc)
            if pc.family != "F0":
                vals = partcomb.enumerate_partitions(m)
            else:
                tag = _defect_tag(ctx, pc, s.eta_plus)
                vals = symbcomb.enumerate_symbols(m // 2, _DEFECTS[tag])
            per_class.append([(pc, v) for v in vals])
        for lam in product(*per_class):
            degenerate = symbcomb.is_degenerate(dict(lam)[xp])
            out.extend(IBrLabel(s=s, lam=lam, j=j, j_collapsed=c)
                       for j, c in _z2_indices(degenerate))
    return sorted(out)


@lru_cache(maxsize=None)
def _symbol_count(rank_n, tag, e, mode, indexed):
    """The number of rank-n symbols in the defect class `tag`; with indexed,
    a non-degenerate one counts twice, once per value of the Z/2 index."""
    return sum(2 if indexed and not symbcomb.is_degenerate(sym) else 1
               for group in _symbol_table(rank_n, tag, e, mode).values()
               for sym in group)


@lru_cache(maxsize=None)
def _partition_count(m):
    return len(partcomb.enumerate_partitions(m))


def universe_size(ctx, n):
    """len(enumerate_ibr_universe(ctx, n)), counted: over each ell-regular
    semisimple label, the product of the choices at its divisors, where a
    non-degenerate symbol at X+1 counts twice.  Nothing is built."""
    total = 0
    for s in enumerate_semisimple(ctx, n, ell_prime_only=True):
        count = 1
        for pc in block_classes(ctx, s):
            m = s.mult(pc)
            if pc.family != "F0":
                count *= _partition_count(m)
            else:
                count *= _symbol_count(m // 2, _defect_tag(ctx, pc, s.eta_plus),
                                       ctx.e, ctx.mode, is_x_plus(pc, ctx))
        total += count
    return total


# ---------------------------------------------------------------------------
# weight labels

class WeightLabelQ(_Label, namedtuple("WeightLabelQ", "block q")):
    """q: sorted ((PolyClass, tuple of partitions), ...)."""
    __slots__ = ()

    def q_of(self, pc):
        return _value_at(self.q, pc)


class WeightLabelK(_Label, namedtuple("WeightLabelK", "block k")):
    """k: sorted ((PolyClass, tuple of core towers), ...)."""
    __slots__ = ()


def branch_count(ctx, pc):
    return pc.beta * (ctx.e if pc.family == "F0" else pc.e_gamma)


def _weight_labels(ctx, block, weights, label_cls, tuples_of):
    """One label_cls(block, entries) per choice of a branch_count-tuple
    tuples_of(k, w_Gamma) at every divisor."""
    per_class = [[(pc, t) for t in tuples_of(branch_count(ctx, pc), w)]
                 for pc, w in weights or block_weights(ctx, block)]
    return sorted(label_cls(block, x) for x in product(*per_class))


@lru_cache(maxsize=None)
def _partition_tuples(k, w):
    """The k-tuples of partitions of total size w, enumerated once per
    shape."""
    return tuple(partcomb.enumerate_tuples(k, w))


@lru_cache(maxsize=None)
def _core_towers(ell, v):
    return tuple(partcomb.enumerate_core_towers(ell, v))


@lru_cache(maxsize=None)
def _tower_tuples(k, w, ell):
    """The k-tuples of ell-core towers of total weighted size w,
    enumerated once per shape."""
    return tuple(partcomb.weighted_tuples(k, w, lambda v: _core_towers(ell, v)))


def enumerate_weights_q(ctx, block, weights=None):
    """All ordered-quotient weight labels of a block: one sequence of
    beta*e_Gamma partitions of total w_Gamma per divisor.  weights as for
    enumerate_ibr."""
    return _weight_labels(ctx, block, weights, WeightLabelQ, _partition_tuples)


def enumerate_weights_k(ctx, block, weights=None):
    """All core-tower weight labels, enumerated independently of the
    Q-form via the level structure: one sequence of beta*e_Gamma ell-core
    towers of total weighted size w_Gamma per divisor."""
    return _weight_labels(ctx, block, weights, WeightLabelK,
                          lambda k, w: _tower_tuples(k, w, ctx.ell))


def k_to_q(ctx, wk):
    q = tuple((pc, tuple(partcomb.tower_to_partition(tw, ctx.ell) for tw in fam))
              for pc, fam in wk.k)
    return WeightLabelQ(block=wk.block, q=q)


def q_to_k(ctx, wq):
    k = tuple((pc, tuple(partcomb.core_tower(p, ctx.ell) for p in fam))
              for pc, fam in wq.q)
    return WeightLabelK(block=wq.block, k=k)


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


def audit_block(ctx, block, weights, n):
    """Dimension bookkeeping for a block with weights block_weights(ctx,
    block), once for all its weight labels: the multiplicity at every
    divisor splits into the core part plus beta * e_Gamma per unit of
    weight, and the displaced and fixed spaces fill dimension 2n+1."""
    dim_fixed, dim_moved = 0, 0
    for pc, w in weights:
        m = block.s.mult(pc)
        core = block.core_of(pc)
        if pc.family != "F0":
            split = sum(core) + pc.e_gamma * w
        elif is_x_plus(pc, ctx):
            split = 2 * symbcomb.rank(core) + 2 * ctx.e * w
        else:
            split = 2 * symbcomb.rank(core) + 1 + 2 * ctx.e * w
        check(m == split, "multiplicity is not core plus e_Gamma * weight")
        displaced = w * branch_count(ctx, pc)
        check(m - displaced >= 0, "weight exceeds available multiplicity")
        dim_fixed += (m - displaced) * pc.deg
        dim_moved += displaced * pc.deg
    check(dim_fixed + dim_moved == 2 * n + 1, "dimensions do not fill 2n+1")
    return True


def audit_weight_label(ctx, wq, weights):
    """The branches of a Q-form weight label sum to its block's weights
    ((pc, w_Gamma), ...) at every divisor."""
    check(tuple((pc, sum(sum(p) for p in fam)) for pc, fam in wq.q) == weights,
          "branch sizes must sum to w")
    return True


# ---------------------------------------------------------------------------
# serialization

def poly_jsonable(pc):
    return {"coeffs": list(pc.gamma), "family": pc.family}


def value_jsonable(v):
    if isinstance(v, LSymbol):
        return {"rows": [list(v.rows[0]), list(v.rows[1])]}
    if isinstance(v, tuple) and (not v or isinstance(v[0], int)):
        return list(v)
    return [value_jsonable(x) for x in v]


def semisimple_jsonable(s):
    return {"mult": [[poly_jsonable(pc), m] for pc, m in s.entries],
            "eta_plus": s.eta_plus, "eta_minus": s.eta_minus}


def block_jsonable(ctx, b, weights=None):
    return {"s": semisimple_jsonable(b.s),
            "kappa": [[poly_jsonable(pc), value_jsonable(v)] for pc, v in b.kappa],
            "i": b.i, "i_collapsed": b.i_collapsed,
            "w": [[poly_jsonable(pc), w] for pc, w in weights or block_weights(ctx, b)]}


def ibr_jsonable(label):
    return {"s": semisimple_jsonable(label.s),
            "lambda": [[poly_jsonable(pc), value_jsonable(v)] for pc, v in label.lam],
            "j": label.j, "j_collapsed": label.j_collapsed}


def weight_q_jsonable(ctx, wl):
    return {"block": block_jsonable(ctx, wl.block),
            "Q": [[poly_jsonable(pc), value_jsonable(v)] for pc, v in wl.q]}


def weight_k_jsonable(ctx, wl):
    return {"block": block_jsonable(ctx, wl.block),
            "K": [[poly_jsonable(pc), value_jsonable(v)] for pc, v in wl.k]}
