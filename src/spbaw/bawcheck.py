"""The explicit Brauer-character <-> weight bijection, the field and
diagonal automorphism actions on every label kind, and the verification
drivers for the blockwise weight-count equality and equivariance.

The bijection sends a Brauer label (s, lambda, i) to the weight label
whose ordered-quotient component at each divisor is the core quotient of
the corresponding lambda component; at X-1 and X+1 it is the 2e-sequence
of the two quotient chains, chain 0 first, with the chains swapped at
X+1 by the Z/2 index.  The diagonal automorphism shifts the Z/2 index and
swaps the two halves of the X+1 sequence; field automorphisms relabel
the divisors by the p-power map.
"""

from collections import namedtuple
from functools import lru_cache

from . import labelspace as ls, partcomb, symbcomb
from .ffpoly import frobenius_class
from .labelspace import (BlockLabel, CheckFailed, IBrLabel, WeightLabelQ,
                         block_classes, is_x_plus)


class AutAction(namedtuple("AutAction", "kind power", defaults=(0,))):
    """field(i) or the diagonal outer automorphism ("field", "diagonal")."""
    __slots__ = ()

    def __new__(cls, kind, power=0):
        if kind not in ("field", "diagonal"):
            raise ValueError(f"unknown automorphism kind {kind!r}")
        return super().__new__(cls, kind, power)


FIELD = lambda i: AutAction("field", i)
DIAGONAL = AutAction("diagonal")


# ---------------------------------------------------------------------------
# the bijection

def brauer_to_weight(ctx, ib):
    """The weight label of a Brauer label inside its own block.  One core
    and quotient extraction per component gives both the block's core and
    the weight's entry.  At X-1 and X+1 the entry is the chain-0 tuple A,
    then the chain-1 tuple B, swapped at X+1 when j = 1; a degenerate X+1
    core gives its chains no absolute order, so the pair is sorted first.
    verify_block's round trip checks the reconstruction."""
    e, mode = ctx.e, ctx.mode
    kappa, entries = [], []
    i, i_collapsed = 0, True
    for pc in block_classes(ctx, ib.s):
        lam = ib.part_of(pc)
        if pc.family != "F0":
            core, quot = partcomb.e_core_quotient(lam, pc.e_gamma)
            kappa.append((pc, core))
            entries.append((pc, quot))
            continue
        core, A, B = symbcomb._extract(lam, e, mode)
        kappa.append((pc, core))
        if is_x_plus(pc):
            if not symbcomb.is_degenerate(core):
                i, i_collapsed = ib.j, False
            elif symbcomb.is_degenerate(lam) and A != B:
                raise CheckFailed(f"{lam}: quotient {A}; {B}")
            else:
                A, B = sorted((A, B))
            if ib.j:
                A, B = B, A
        entries.append((pc, A + B))
    block = BlockLabel(s=ib.s, kappa=tuple(kappa), i=i, i_collapsed=i_collapsed)
    return WeightLabelQ(block=block, q=tuple(entries))


def weight_to_brauer(ctx, wq):
    """Two-sided inverse of brauer_to_weight."""
    block = wq.block
    e, mode = ctx.e, ctx.mode
    entries = []
    j, j_collapsed = block.i, False
    for pc, w in ls.block_weights(ctx, block):
        q = wq.q_of(pc)
        kappa = block.core_of(pc)
        if q is None or len(q) != ls.branch_count(pc):
            raise ValueError(f"weight label carries {q} at {pc}: "
                             f"expected {ls.branch_count(pc)} branches")
        if sum(sum(p) for p in q) != w:
            raise ValueError(f"branch sizes at {pc} do not sum to the "
                             f"block weight")
        if pc.family != "F0":
            entries.append((pc, partcomb.from_core_quotient(kappa, q)))
            continue
        A, B = q[:e], q[e:]
        degenerate = is_x_plus(pc) and symbcomb.is_degenerate(kappa)
        if degenerate:
            j = int(A > B)
            A, B = sorted((A, B))
        elif is_x_plus(pc) and block.i:
            A, B = B, A
        lam = symbcomb._attach(kappa, A, B, e, mode)
        entries.append((pc, lam))
        if degenerate and symbcomb.is_degenerate(lam):
            if j:
                raise CheckFailed(f"degenerate {lam} carries j = {j}")
            j_collapsed = True
    return IBrLabel(s=block.s, lam=tuple(entries), j=j, j_collapsed=j_collapsed)


# ---------------------------------------------------------------------------
# automorphism actions

def _is_identity(ctx, action):
    """field(i) with f | i: the q-power map fixes every class, so every
    label."""
    return action.kind == "field" and action.power % ctx.f == 0


def act_on_semisimple(ctx, action, s):
    if action.kind == "diagonal" or _is_identity(ctx, action):
        return s
    return _field_on_semisimple(ctx, action.power, s)


@lru_cache(maxsize=None)
def _field_on_semisimple(ctx, power, s):
    items = [(frobenius_class(pc, power, ctx), m) for pc, m in s.entries]
    return ls._make_semisimple(items, s.eta_plus)


def _relabel_assignment(ctx, power, entries):
    items = [(frobenius_class(pc, power, ctx), v) for pc, v in entries]
    return tuple(sorted(items))


def act_on_block(ctx, action, x):
    """The action on a block or Brauer label (s, assignment, index,
    collapsed): field(i) relabels s and the assignment, diagonal shifts an
    index that has not collapsed."""
    if _is_identity(ctx, action):
        return x
    s, assignment, index, collapsed = x
    if action.kind == "field":
        return type(x)(act_on_semisimple(ctx, action, s),
                       _relabel_assignment(ctx, action.power, assignment),
                       index, collapsed)
    if collapsed:
        return x
    return type(x)(s, assignment, (index + 1) % 2, False)


act_on_ibr = act_on_block


def _flip_half(seq):
    e = len(seq) // 2
    return seq[e:] + seq[:e]


def act_on_weight(ctx, action, w):
    """The action on a weight label in Q-form or K-form: field(i) relabels
    the divisors, diagonal swaps the two halves of the X+1 sequence."""
    if _is_identity(ctx, action):
        return w
    entries = w.q if isinstance(w, WeightLabelQ) else w.k
    if action.kind == "field":
        entries = _relabel_assignment(ctx, action.power, entries)
    else:
        entries = tuple((pc, _flip_half(v) if is_x_plus(pc) else v)
                        for pc, v in entries)
    return type(w)(act_on_block(ctx, action, w.block), entries)


# ---------------------------------------------------------------------------
# verification

class BlockTable(namedtuple("BlockTable", "pairs weights_q weights_k k_images")):
    """One block's labels, each computed once: its Brauer labels with their
    weight labels in pairs (block_pairs), the Q and K weight labels, and
    k_images, the Q form of each K weight label.  verify builds one
    block's table at a time, checks it and drops it before the next."""
    __slots__ = ()


def block_pairs(ctx, block):
    """Each Brauer label of block with its weight label, in a list, so that
    a label listed twice counts twice; a weight outside block is a failed
    check."""
    pairs = [(ib, brauer_to_weight(ctx, ib)) for ib in ls.enumerate_ibr(ctx, block)]
    for ib, w in pairs:
        if w.block != block:
            raise CheckFailed(f"{ib} maps into {w.block}, not its block {block}")
    return pairs


def block_table(ctx, block, pairs):
    """The table of block around its block_pairs: the weight side."""
    weights_k = ls.enumerate_weights_k(ctx, block)
    return BlockTable(pairs, ls.enumerate_weights_q(ctx, block), weights_k,
                      [ls.k_to_q(ctx, wk) for wk in weights_k])


def bijection_of(pairs_per_block):
    """The bijection on every Brauer label of the given blocks' pairs."""
    return {ib: w for pairs in pairs_per_block for ib, w in pairs}


def verify_block(ctx, table):
    """Counts and bijectivity report for one block table: the round trip
    through weight_to_brauer, injectivity, image = Q weights, and
    k_to_q(K weights) = Q weights.  A block that is not bijective carries
    the first violation found as its bijection_witness."""
    report = {"n_ibr": len(table.pairs), "n_weights_q": len(table.weights_q),
              "n_weights_k": len(table.weights_k), "bijective": True}
    witness = _bijection_witness(ctx, table)
    if witness is not None:
        report.update(bijective=False, bijection_witness=witness)
    return report


def _bijection_witness(ctx, table):
    """The first violation, or None: a Brauer label whose round trip fails;
    a weight hit twice; a Q weight missing from the image, or an image
    weight that is none; a k_to_q image that is no Q weight, or a Q weight
    that no K weight reaches."""
    for ib, w in table.pairs:
        back = weight_to_brauer(ctx, w)
        if back != ib:
            return {"failure": "round_trip", "ibr": ls.ibr_jsonable(ib),
                    "weight": ls.weight_q_jsonable(ctx, w),
                    "back": ls.ibr_jsonable(back)}
    image = {}
    for ib, w in table.pairs:
        if w in image:
            return {"failure": "duplicated_weight", "ibr": ls.ibr_jsonable(ib),
                    "weight": ls.weight_q_jsonable(ctx, w)}
        image[w] = ib
    weights_q, k_images = set(table.weights_q), set(table.k_images)
    for failure, found, wanted in (("missing_weight", table.weights_q, image),
                                   ("stray_weight", image, weights_q),
                                   ("k_to_q", table.k_images, weights_q),
                                   ("missed_by_k_to_q", table.weights_q, k_images)):
        for w in found:
            if w not in wanted:
                return {"failure": failure, "weight": ls.weight_q_jsonable(ctx, w)}
    return None


def verify_equivariance_of_block(ctx, pairs, bijection, generators):
    """Violations of bijection[g(x)] = g(bijection[x]) on a block's pairs;
    bijection maps every Brauer label of the rank, and a moved label
    outside it is a violation."""
    violations = []
    for ib, w in pairs:
        for gen in generators:
            lhs = bijection.get(act_on_ibr(ctx, gen, ib))
            rhs = act_on_weight(ctx, gen, w)
            if lhs != rhs:
                violations.append({"generator": gen.kind + (str(gen.power) if gen.kind == "field" else ""),
                                   "ibr": ls.ibr_jsonable(ib),
                                   "lhs": None if lhs is None
                                   else ls.weight_q_jsonable(ctx, lhs),
                                   "rhs": ls.weight_q_jsonable(ctx, rhs)})
    return violations


def verify_action_laws(ctx, ibrs, weights_q):
    """The first violation of diagonal^2 = id, field(1)^2 = field(2) or
    the commutation of diagonal and field(1), as identities of maps on the
    given Brauer and Q-form weight labels: {"law", and "ibr" or "weight"};
    None when every law holds.  field(i) with f | i returns its argument
    (_is_identity), so field(0) = id and field(f) = id are not checked."""
    gens = FIELD(1), DIAGONAL, FIELD(2)
    for key, act, labels in (("ibr", act_on_ibr, ibrs),
                             ("weight", act_on_weight, weights_q)):
        for x in labels:
            law = _broken_law(ctx, act, gens, x)
            if law is not None:
                label = (ls.ibr_jsonable(x) if key == "ibr"
                         else ls.weight_q_jsonable(ctx, x))
                return {"law": law, key: label}
    return None


def _broken_law(ctx, act, gens, x):
    """The first action law that fails on x, or None.  x's images under
    diagonal and field(1) are computed once."""
    f1, d, f2 = gens
    dx, fx = act(ctx, d, x), act(ctx, f1, x)
    if act(ctx, d, dx) != x:
        return "diagonal^2 = id"
    if act(ctx, f1, fx) != act(ctx, f2, x):
        return "field(1)^2 = field(2)"
    if (dx if fx is x else act(ctx, d, fx)) != act(ctx, f1, dx):
        return "diagonal field(1) = field(1) diagonal"
    return None
