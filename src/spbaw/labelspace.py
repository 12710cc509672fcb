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


def x_minus_class(ctx):
    return ffpoly._class_of_factor(ffpoly.poly_x_minus_one(ctx), ctx)


@lru_cache(maxsize=None)
def x_plus_class(ctx):
    return ffpoly._class_of_factor(ffpoly.poly_x_plus_one(), ctx)


# In gf's integer encoding X+1 is (1, 1) over every F_q, and X-1, the other
# F0 class, is (p - 1, 1): the two are told apart by their coefficients.

def is_x_minus(pc):
    return pc.family == "F0" and pc.gamma != (1, 1)


def is_x_plus(pc):
    return pc.family == "F0" and pc.gamma == (1, 1)


def check_classes(entries, classes):
    """Raise ValueError unless the assignment entries lists exactly classes, in
    order, naming the first class outside them, missing, out of order or twice."""
    got = tuple(pc for pc, _ in entries)
    wrong = ([(pc, "is outside them") for pc in got if pc not in classes]
             + [(pc, "is missing") for pc in classes if pc not in got]
             + [(a, "is out of order") for a, b in zip(got, classes) if a != b]
             + [(pc, "is listed twice") for pc in got[len(classes):]])
    if got != classes:
        raise ValueError(f"the label lists the classes {got}, not {classes}: " + "%s %s" % wrong[0])


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
        return type(other) is not type(self) or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__


class SemisimpleLabel(namedtuple("SemisimpleLabel", "entries eta_plus eta_minus")):
    """Multiplicity function plus type signs; determines the class.  entries:
    sorted ((PolyClass, mult), ...), mult >= 1; eta_plus: the sign at X+1,
    present iff its multiplicity > 0."""
    __slots__ = ()

    def support(self):
        return tuple(c for c, _ in self.entries)

    def __repr__(self):
        parts = ", ".join(f"{list(c.gamma)}^{m}" for c, m in self.entries)
        return f"SemisimpleLabel({parts}; eta+={self.eta_plus}, eta-={self.eta_minus})"


def _make_semisimple(items, eta_plus):
    """The label of items with the sign eta_plus at X+1; the sign at X-1 is
    the product of eta_plus and the type signs of the orthogonal summands
    at F1/F2 divisors, each forced by its multiplicity."""
    items = tuple(sorted(items))
    prod = eta_plus if eta_plus is not None else 1
    for pc, m in items:
        if pc.family != "F0" and pc.sign == -1:
            prod *= (-1) ** m
    return SemisimpleLabel(entries=items, eta_plus=eta_plus, eta_minus=prod)


@lru_cache(maxsize=None)
def enumerate_semisimple(ctx, n):
    """All ell-regular semisimple class labels for SO_{2n+1}(q), sorted, in
    a tuple that every caller shares; the eigenvalue 1 is always present
    with odd multiplicity and the multiplicity at X+1 is even."""
    if n < 1:
        raise ValueError(f"rank n = {n} must be at least 1")
    dim = 2 * n + 1
    xm, xp = x_minus_class(ctx), x_plus_class(ctx)
    others = [pc for pc in ffpoly.enumerate_classes(ctx, dim - 1, ell_prime_only=True)
              if pc.family != "F0"]
    out = []

    # One frame per chosen class, each using at least 1 of the budget: the
    # depth stays at most dim however many classes there are.  The classes
    # are in degree order, so the first too large for the budget ends the
    # loop.
    def rec(start, budget, chosen):
        for m_plus in range(0, budget + 1, 2):
            m_minus = budget - m_plus
            if m_minus % 2 == 1:
                items = chosen + [(xm, m_minus)]
                if m_plus:
                    items = items + [(xp, m_plus)]
                    for eta in (1, -1):
                        out.append(_make_semisimple(items, eta))
                else:
                    out.append(_make_semisimple(items, None))
        for idx in range(start, len(others)):
            pc = others[idx]
            if pc.deg > budget - 1:
                break
            m = 1
            while m * pc.deg <= budget - 1:
                rec(idx + 1, budget - m * pc.deg, chosen + [(pc, m)])
                m += 1

    rec(0, dim, [])
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# block labels and condition (C)

class BlockLabel(_Label, namedtuple("BlockLabel", "s kappa i i_collapsed")):
    """kappa: sorted ((PolyClass, core), ...), core partition or LSymbol."""
    __slots__ = ()

    def __repr__(self):
        return f"BlockLabel(s={self.s!r}, kappa={self.kappa}, i={self.i})"


_DEFECTS = {"odd": lambda d: d % 2 == 1,
            "mod4_0": lambda d: d % 4 == 0,
            "mod4_2": lambda d: d % 4 == 2}


def _defect_tag(pc, eta_plus):
    """The defect class of the symbols at X-1 (odd) or X+1 (0 mod 4, or
    2 mod 4 when eta_plus is -1).  X+1 outside the support has rank 0,
    where the empty symbol is the only one of defect 0 mod 4."""
    if is_x_minus(pc):
        return "odd"
    return "mod4_2" if eta_plus == -1 else "mod4_0"


@lru_cache(maxsize=None)
def _component_table(tag, size, e, mode):
    """The components of one size grouped by core: {core: sorted members},
    cores in order.  Tag "partition": the partitions of size by e-core;
    else the rank-size symbols in the defect class tag by e-core in mode.
    Each member is enumerated and extracted once.  The members with core
    kappa and weight w are those of size |kappa| + e*w with core kappa, all
    in one defect class (a cohook changes the defect by 2); weight_of
    refuses a core that leaves no whole weight."""
    groups = {}
    if tag == "partition":
        for lam in partcomb.enumerate_partitions(size):
            groups.setdefault(partcomb.e_core(lam, e), []).append(lam)
    else:
        for sym in symbcomb.enumerate_symbols(size, _DEFECTS[tag]):
            groups.setdefault(symbcomb.sym_core_quotient(sym, e, mode)[0], []).append(sym)
    return {core: tuple(sorted(groups[core])) for core in sorted(groups)}


def _component_key(ctx, s, pc, m):
    """The _component_table key of the components at pc, of multiplicity m
    over s: the partitions of m by e_Gamma-core at F1/F2, the symbols of
    half of it in their defect class at X+-1."""
    if pc.family != "F0":
        return ("partition", m, pc.e_gamma, None)
    return (_defect_tag(pc, s.eta_plus), m // 2, ctx.e, ctx.mode)


def _core_share(pc, core):
    """The part of the multiplicity at pc that the core takes: its size at
    F1/F2, twice its rank at X+1, and one more at X-1."""
    if pc.family != "F0":
        return sum(core)
    return 2 * symbcomb.rank(core) + (1 if is_x_minus(pc) else 0)


def weight_of(pc, m, core):
    """The weight w_Gamma at pc: the multiplicity m less the share of the
    core, in steps of branch_count."""
    lhs, step = m - _core_share(pc, core), branch_count(pc)
    if lhs < 0 or lhs % step:
        raise ValueError(f"no nonnegative integer weight at {pc}: m={m}, core={core}")
    return lhs // step


@lru_cache(maxsize=None)
def block_weights(ctx, block):
    """((pc, w_Gamma), ...) over block_classes: a block's weights, computed
    once per block for its label enumerators, its report and its checks."""
    return tuple((pc, weight_of(pc, m, core)) for pc, m, core in _class_walk(ctx, block))


def class_mults(ctx, s):
    """((pc, m), ...): the divisors carrying data over the semisimple label s
    and their multiplicities, in the order every kappa, lambda, Q and K lists
    them.  X+1, of degree 1 and gamma (1, 1), is the least class: s.entries
    holds it first if at all, and else (X+1, 0) is put first."""
    xp = x_plus_class(ctx)
    return s.entries if s.entries[0][0] == xp else ((xp, 0),) + s.entries


@lru_cache(maxsize=None)
def block_classes(ctx, s):
    """The classes of class_mults(ctx, s)."""
    return tuple(pc for pc, _ in class_mults(ctx, s))


def _class_walk(ctx, block):
    """(pc, m, core) per class of class_mults(ctx, block.s), walked in step
    with kappa, which check_classes refuses unless it lists the same classes
    in order: no core meets another class's multiplicity."""
    mults = class_mults(ctx, block.s)
    walk = [(pc, m, core) for (pc, m), (kpc, core) in zip(mults, block.kappa) if pc == kpc]
    if not len(walk) == len(mults) == len(block.kappa):
        check_classes(block.kappa, block_classes(ctx, block.s))
    return walk


def _z2_indices(degenerate):
    """The (index, collapsed) values of the Z/2 index over a part at X+1:
    one collapsed value when the part is degenerate, else two."""
    return ((0, True),) if degenerate else ((0, False), (1, False))


def enumerate_blocks(ctx, n):
    """All block labels (s, kappa, i) with kappa admissible for s, in order."""
    out = []
    for s in enumerate_semisimple(ctx, n):
        choices = [[(pc, core) for core in
                    _component_table(*_component_key(ctx, s, pc, m))]
                   for pc, m in class_mults(ctx, s)]
        for kappa in product(*choices):
            out.extend(BlockLabel(s, kappa, i, c)
                       for i, c in _z2_indices(symbcomb.is_degenerate(kappa[0][1])))
    return out


# ---------------------------------------------------------------------------
# Brauer character labels

class IBrLabel(_Label, namedtuple("IBrLabel", "s lam j j_collapsed")):
    """lam: sorted ((PolyClass, partition-or-symbol), ...)."""
    __slots__ = ()

    def __repr__(self):
        return f"IBrLabel(s={self.s!r}, lam={self.lam}, j={self.j})"


def enumerate_ibr(ctx, block):
    """The Brauer-character labels of a block, in order: component cores equal
    to kappa, the Z/2 index collapsing on degenerate X+1 parts (kappa's first)."""
    s, core_plus = block.s, block.kappa[0][1]
    per_class = [[(pc, v) for v in _component_table(*_component_key(ctx, s, pc, m))[core]]
                 for pc, m, core in _class_walk(ctx, block)]
    if symbcomb.is_degenerate(core_plus):
        return [IBrLabel(s, lam, j, c) for lam in product(*per_class)
                for j, c in _z2_indices(symbcomb.is_degenerate(lam[0][1]))]
    for _, v in per_class[0]:
        if symbcomb.is_degenerate(v):
            raise AssertionError(f"degenerate {v} over the non-degenerate core {core_plus}")
    return [IBrLabel(s, lam, block.i, False) for lam in product(*per_class)]


def enumerate_ibr_universe(ctx, n):
    """Every Brauer label over every ell-regular semisimple class, built
    without reference to blocks (the global basic-set universe).  The
    tests' reference for semisimple_ibr_count."""
    out = []
    for s in enumerate_semisimple(ctx, n):
        per_class = []
        for pc, m in class_mults(ctx, s):
            if pc.family != "F0":
                vals = partcomb.enumerate_partitions(m)
            else:
                vals = symbcomb.enumerate_symbols(m // 2, _DEFECTS[_defect_tag(pc, s.eta_plus)])
            per_class.append([(pc, v) for v in vals])
        for lam in product(*per_class):
            out.extend(IBrLabel(s, lam, j, c)
                       for j, c in _z2_indices(symbcomb.is_degenerate(lam[0][1])))
    return sorted(out)


@lru_cache(maxsize=None)
def _component_count(key):
    """The number of Brauer components in _component_table(*key), where a
    non-degenerate symbol at X+1 (defect 0 or 2 mod 4) counts twice, once
    per value of the Z/2 index."""
    members = [v for group in _component_table(*key).values() for v in group]
    if key[0] not in ("mod4_0", "mod4_2"):
        return len(members)
    return sum(len(_z2_indices(symbcomb.is_degenerate(v))) for v in members)


def semisimple_ibr_count(ctx, s):
    """The Brauer labels over the semisimple label s, counted: the product
    of the component counts at its divisors.  Nothing is built."""
    count = 1
    for pc, m in class_mults(ctx, s):
        count *= _component_count(_component_key(ctx, s, pc, m))
    return count


# ---------------------------------------------------------------------------
# weight labels

class WeightLabelQ(_Label, namedtuple("WeightLabelQ", "block q")):
    """q: sorted ((PolyClass, tuple of partitions), ...)."""
    __slots__ = ()


class WeightLabelK(_Label, namedtuple("WeightLabelK", "block k")):
    """k: sorted ((PolyClass, tuple of core towers), ...)."""
    __slots__ = ()


def branch_count(pc):
    """beta * e_Gamma: an F0 class carries e_Gamma = e."""
    return pc.beta * pc.e_gamma


def _weight_labels(ctx, block, label_cls, tuples_of):
    """One label_cls(block, entries) per choice of a branch_count-tuple
    tuples_of(k, w_Gamma) at every divisor, in order: tuples_of lists them
    sorted, so their product is sorted."""
    per_class = [[(pc, t) for t in tuples_of(branch_count(pc), w)]
                 for pc, w in block_weights(ctx, block)]
    return [label_cls(block, x) for x in product(*per_class)]


@lru_cache(maxsize=None)
def _partition_tuples(k, w):
    """The k-tuples of partitions of total size w, sorted, enumerated once
    per shape."""
    return tuple(sorted(partcomb.enumerate_tuples(k, w)))


@lru_cache(maxsize=None)
def _core_towers(ell, v):
    return tuple(partcomb.enumerate_core_towers(ell, v))


@lru_cache(maxsize=None)
def _tower_tuples(k, w, ell):
    """The k-tuples of ell-core towers of total weighted size w, sorted,
    enumerated once per shape."""
    return tuple(sorted(partcomb.weighted_tuples(k, w, lambda v: _core_towers(ell, v))))


def enumerate_weights_q(ctx, block):
    """All ordered-quotient weight labels of a block: one sequence of
    beta*e_Gamma partitions of total w_Gamma per divisor."""
    return _weight_labels(ctx, block, WeightLabelQ, _partition_tuples)


def enumerate_weights_k(ctx, block):
    """All core-tower weight labels, enumerated independently of the
    Q-form via the level structure: one sequence of beta*e_Gamma ell-core
    towers of total weighted size w_Gamma per divisor."""
    return _weight_labels(ctx, block, WeightLabelK,
                          lambda k, w: _tower_tuples(k, w, ctx.ell))


def k_to_q(ctx, wk):
    return WeightLabelQ(wk.block, tuple((pc, _family_to_q(fam, ctx.ell)) for pc, fam in wk.k))


@lru_cache(maxsize=None)
def _family_to_q(family, ell):
    """A family of ell-core towers as partitions, converted once per family."""
    return tuple(partcomb.tower_to_partition(tw, ell) for tw in family)


def audit_weight_label(wq, weights):
    """The branches of a Q-form weight label sum to its block's weights
    ((pc, w_Gamma), ...) at every divisor."""
    if tuple((pc, sum(map(sum, fam))) for pc, fam in wq.q) != weights:
        raise CheckFailed("branch sizes must sum to w")
    return True


# ---------------------------------------------------------------------------
# serialization

# The fragments below are memoized: every block record, witness and CSV
# row over one divisor class, component or semisimple label shares one
# fragment, so no caller may mutate what they return.  Their keys are
# values that the memoized label enumerators already keep alive.

@lru_cache(maxsize=None)
def poly_jsonable(pc):
    return {"coeffs": list(pc.gamma), "family": pc.family}


@lru_cache(maxsize=None, typed=True)
def value_jsonable(v):
    """A partition, symbol or tuple of them as JSON.  Typed: an LSymbol
    and the plain tuple of its rows compare equal but differ here."""
    if isinstance(v, LSymbol):
        return {"rows": [list(v[0]), list(v[1])]}
    if isinstance(v, tuple) and (not v or isinstance(v[0], int)):
        return list(v)
    return [value_jsonable(x) for x in v]


@lru_cache(maxsize=None)
def _assignment_jsonable(entries):
    """A kappa, lambda or Q: ((PolyClass, value), ...) with value_jsonable
    values.  A Q is encoded through __wrapped__, past the memo: at e = 1
    its pair of partitions at X+-1 can equal a symbol's rows, so a Brauer
    label and its weight label may carry equal assignments."""
    return [[poly_jsonable(pc), value_jsonable(v)] for pc, v in entries]


@lru_cache(maxsize=None)
def _counts_jsonable(entries):
    """A ((PolyClass, int), ...) assignment: multiplicities or weights."""
    return [[poly_jsonable(pc), x] for pc, x in entries]


@lru_cache(maxsize=None)
def semisimple_jsonable(s):
    return {"mult": _counts_jsonable(s.entries),
            "eta_plus": s.eta_plus, "eta_minus": s.eta_minus}


def block_jsonable(ctx, b):
    """A fresh record dict, so that verify may add its results; its values
    are shared fragments."""
    return {"s": semisimple_jsonable(b.s), "kappa": _assignment_jsonable(b.kappa),
            "i": b.i, "i_collapsed": b.i_collapsed,
            "w": _counts_jsonable(block_weights(ctx, b))}


def ibr_jsonable(label):
    return {"s": semisimple_jsonable(label.s),
            "lambda": _assignment_jsonable(label.lam),
            "j": label.j, "j_collapsed": label.j_collapsed}


def weight_q_jsonable(ctx, wl):
    return {"block": block_jsonable(ctx, wl.block),
            "Q": _assignment_jsonable.__wrapped__(wl.q)}

