"""The explicit Brauer-character <-> weight bijection, the field and
diagonal automorphism actions on every label kind, and the verification
drivers for the blockwise weight-count equality and equivariance.

The bijection sends a Brauer label (s, lambda, i) to the weight label
whose ordered-quotient component at each divisor is the core quotient of
the corresponding lambda component; at X-1 and X+1 the unordered pair is
flattened to a 2e-sequence using the orientation that reconstructs
lambda from kappa.  The diagonal automorphism shifts the Z/2 index and
swaps the two halves of the X+1 sequence; field automorphisms relabel
the divisors by the p-power map.
"""

from collections import namedtuple
from functools import lru_cache

from . import labelspace as ls, partcomb, symbcomb
from .ffpoly import frobenius_class
from .labelspace import (BlockLabel, CheckFailed, IBrLabel, WeightLabelQ,
                         block_classes, check, is_x_minus, is_x_plus)


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

def _flatten(pair, orient):
    a, b = pair
    return a + b if orient % 2 == 0 else b + a


def _unflatten(seq):
    e = len(seq) // 2
    a, b = seq[:e], seq[e:]
    pair = tuple(sorted((a, b)))
    return pair, 0 if (a, b) == pair else 1


def brauer_to_weight(ctx, ib):
    """The weight label of a Brauer label inside its own block.  One core
    and quotient extraction per component gives both the block's core and
    the weight's entry, with the orientation read off the extracted
    chains; the block follows labelspace.block_of_ibr, and verify_block's
    round trip checks the reconstruction."""
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
        pair, orient = _unflatten(A + B)
        kappa.append((pc, core))
        if is_x_minus(pc, ctx):
            entries.append((pc, _flatten(pair, orient)))
        elif not symbcomb.is_degenerate(core):
            i, i_collapsed = ib.j, False
            entries.append((pc, _flatten(pair, (orient - i) % 2)))
        else:
            if symbcomb.is_degenerate(lam) and not symbcomb.is_pair_degenerate(pair):
                raise CheckFailed(f"{lam}: quotient {pair}")
            entries.append((pc, _flatten(pair, ib.j)))
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
        if q is None or len(q) != ls.branch_count(ctx, pc):
            raise ValueError(f"weight label carries {q} at {pc}: "
                             f"expected {ls.branch_count(ctx, pc)} branches")
        if sum(sum(p) for p in q) != w:
            raise ValueError(f"branch sizes at {pc} do not sum to the "
                             f"block weight")
        if pc.family != "F0":
            entries.append((pc, partcomb.from_core_quotient(kappa, q)))
            continue
        pair, orient = _unflatten(q)
        if is_x_minus(pc, ctx):
            entries.append((pc, symbcomb.star_plain(kappa, pair, orient, e, mode)))
        elif not symbcomb.is_degenerate(kappa):
            lam = symbcomb.star_oriented(kappa, block.i, pair, orient, e, mode)
            entries.append((pc, lam))
        else:
            lam = symbcomb.star_plain(kappa, pair, 0, e, mode)
            entries.append((pc, lam))
            if symbcomb.is_degenerate(lam):
                if orient != 0:
                    raise CheckFailed(f"degenerate {lam} carries orientation {orient}")
                j, j_collapsed = 0, True
            else:
                j, j_collapsed = orient, False
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
    out = ls._make_semisimple(ctx, items, s.eta_plus)
    check(out.eta_minus == s.eta_minus, "type signs are carried by the relabeling")
    return out


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
        entries = tuple((pc, _flip_half(v) if is_x_plus(pc, ctx) else v)
                        for pc, v in entries)
    return type(w)(act_on_block(ctx, action, w.block), entries)


# ---------------------------------------------------------------------------
# verification

class BlockTable(namedtuple("BlockTable", "pairs weights_q weights_k k_images")):
    """A block's values, each computed once: each Brauer label with its
    weight label in pairs (a list, so a label listed twice counts twice),
    the Q and K weight labels, and k_images, the Q form of each K weight
    label."""
    __slots__ = ()


def block_table(ctx, block):
    pairs = [(ib, brauer_to_weight(ctx, ib)) for ib in ls.enumerate_ibr(ctx, block)]
    for ib, w in pairs:
        if w.block != block:
            raise CheckFailed(f"{ib} maps into {w.block}, not its block {block}")
    weights_k = ls.enumerate_weights_k(ctx, block)
    return BlockTable(pairs, ls.enumerate_weights_q(ctx, block), weights_k,
                      [ls.k_to_q(ctx, wk) for wk in weights_k])


def bijection_of(tables):
    """The bijection on every Brauer label of the given block tables."""
    return {ib: w for t in tables for ib, w in t.pairs}


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


def verify_equivariance(ctx, n, generators=(FIELD(1), DIAGONAL)):
    """Equivariance of the bijection under the generator actions, checked
    on every Brauer label of every block at rank n."""
    tables = [block_table(ctx, b) for b in ls.enumerate_blocks(ctx, n)]
    bijection = bijection_of(tables)
    violations = [v for t in tables for v in verify_equivariance_of_block(
        ctx, t.pairs, bijection, generators)]
    return {"n_checked": sum(len(t.pairs) for t in tables) * len(generators),
            "violations": violations, "ok": not violations}


def verify_action_laws(ctx, ibrs, weights_q):
    """diagonal^2 = id, field(i)field(j) = field(i+j), and commutation,
    as identities of maps on the given Brauer and Q-form weight labels.
    Each label's images under diagonal and field(1) are computed once."""
    f1, d = FIELD(1), DIAGONAL
    for act, labels in ((act_on_ibr, ibrs), (act_on_weight, weights_q)):
        for x in labels:
            dx, fx = act(ctx, d, x), act(ctx, f1, x)
            check(act(ctx, d, dx) == x, "diagonal^2 != id")
            check(act(ctx, f1, fx) == act(ctx, FIELD(2), x),
                  "field(1)^2 != field(2)")
            check(act(ctx, FIELD(0), x) == x, "field(0) != id")
            check(act(ctx, FIELD(ctx.f), x) == x, "field(f) != id")
            dfx = dx if fx is x else act(ctx, d, fx)
            check(dfx == act(ctx, f1, dx), "diagonal and field(1) do not commute")
    return True


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
