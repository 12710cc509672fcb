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
    """field(i) or the diagonal outer automorphism ("field", "diagonal").
    str() names it in a witness: "field1" or "diagonal"."""
    __slots__ = ()

    def __str__(self):
        return self.kind + (str(self.power) if self.kind == "field" else "")

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
    lambda lists block_classes(ctx, s); verify_block checks the round trip."""
    e, mode, classes = ctx.e, ctx.mode, block_classes(ctx, ib.s)
    kappa, entries, i, i_collapsed = [], [], 0, True
    for (pc, lam), want in zip(ib.lam, classes):
        if pc != want:
            break
        if pc.family != "F0":
            core, quot = partcomb.e_core_quotient(lam, pc.e_gamma)
        else:
            core, A, B = symbcomb._extract(lam, e, mode)
            if is_x_plus(pc):
                if not symbcomb.is_degenerate(core):
                    i, i_collapsed = ib.j, False
                elif symbcomb.is_degenerate(lam) and A != B:
                    raise CheckFailed(f"{lam}: quotient {A}; {B}")
                else:
                    A, B = sorted((A, B))
                if ib.j:
                    A, B = B, A
            quot = A + B
        kappa.append((pc, core))
        entries.append((pc, quot))
    if not len(entries) == len(ib.lam) == len(classes):
        ls.check_classes(ib.lam, classes)
    return WeightLabelQ(BlockLabel(ib.s, tuple(kappa), i, i_collapsed), tuple(entries))


def weight_to_brauer(ctx, wq, weights):
    """Two-sided inverse of brauer_to_weight.  weights are
    block_weights(ctx, wq.block), whose classes Q and kappa must list."""
    block, e, mode, entries = wq.block, ctx.e, ctx.mode, []
    j, j_collapsed = block.i, False
    for (pc, w), (qpc, q), (kpc, kappa) in zip(weights, wq.q, block.kappa):
        if qpc != pc or kpc != pc:
            break
        if len(q) != ls.branch_count(pc) or sum(map(sum, q)) != w:
            raise ValueError(f"weight label carries {q} at {pc}: expected "
                             f"{ls.branch_count(pc)} branches of total size {w}")
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
    if not len(entries) == len(wq.q) == len(block.kappa) == len(weights):
        for assignment in (wq.q, block.kappa):
            ls.check_classes(assignment, tuple(pc for pc, _ in weights))
    return IBrLabel(block.s, tuple(entries), j, j_collapsed)


# ---------------------------------------------------------------------------
# automorphism actions

def _is_identity(ctx, action):
    """field(i) with f | i: the q-power map fixes every class and label."""
    return action.kind == "field" and action.power % ctx.f == 0


@lru_cache(maxsize=None)
def _field_on_semisimple(ctx, power, s):
    return ls._make_semisimple(_relabel_assignment(ctx, power, s.entries), s.eta_plus)


def _relabel_assignment(ctx, power, entries):
    return tuple(sorted((frobenius_class(pc, power, ctx), v) for pc, v in entries))


def act_on_block(ctx, action, x):
    """The action on a block or Brauer label (s, assignment, index,
    collapsed): field(i) relabels s and the assignment, diagonal shifts an
    index that has not collapsed."""
    if _is_identity(ctx, action):
        return x
    s, assignment, index, collapsed = x
    if action.kind == "field":
        return type(x)(_field_on_semisimple(ctx, action.power, s),
                       _relabel_assignment(ctx, action.power, assignment),
                       index, collapsed)
    return x if collapsed else type(x)(s, assignment, (index + 1) % 2, False)


act_on_ibr = act_on_block


def _flip_half(seq):
    e = len(seq) // 2
    return seq[e:] + seq[:e]


def act_on_weight(ctx, action, w, block):
    """The action on a weight label in Q-form or K-form whose block it takes
    to block (act_on_block, once per block): field(i) relabels the divisors,
    diagonal swaps the two halves of the sequence at X+1, the first one."""
    if _is_identity(ctx, action):
        return w
    entries = w[1]      # Q or K
    if action.kind == "field":
        entries = _relabel_assignment(ctx, action.power, entries)
    else:
        entries = ((entries[0][0], _flip_half(entries[0][1])),) + entries[1:]
    return type(w)(block, entries)


# ---------------------------------------------------------------------------
# verification

class BlockTable(namedtuple("BlockTable", "block weights pairs weights_q weights_k k_images")):
    """One block and its labels, each computed once: its weights, its Brauer
    labels with their weight labels in pairs (block_pairs), the Q and K
    weight labels, and k_images, the Q form of each K weight label.  verify
    builds, checks and drops one block's table at a time."""
    __slots__ = ()


# Each check's verdict and witness keys in a block record.  The counts
# check reads the three counts instead.
VERDICTS = {"bijection": ("bijective", "bijection_witness"),
            "equivariance": ("equivariant", "equivariance_witness"),
            "invariants": ("invariants_ok", "invariants_witness")}


def block_passes(record, checks):
    """True when a block record passes every check in checks."""
    if "counts" in checks and not (
            record["n_ibr"] == record["n_weights_q"] == record["n_weights_k"]):
        return False
    return all(record[VERDICTS[c][0]] for c in checks if c in VERDICTS)


@lru_cache(maxsize=None)
def generators_of(ctx):
    """The automorphisms equivariance acts by: field(1), unless it is the
    identity (f = 1), and diagonal."""
    return tuple(g for g in (FIELD(1), DIAGONAL) if not _is_identity(ctx, g))


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
    return BlockTable(block, ls.block_weights(ctx, block), pairs,
                      ls.enumerate_weights_q(ctx, block), weights_k,
                      [ls.k_to_q(ctx, wk) for wk in weights_k])


def verify_block(ctx, table, bijection, checks):
    """The verdict fields of one block's record: the three counts and
    bijective always, equivariant and invariants_ok when their checks are
    in checks.  A check that fails adds its first witness under its
    VERDICTS key.  bijection maps every Brauer label of the rank to its
    weight label; equivariance looks moved labels up in it."""
    witnesses = {"bijection": _bijection_witness(ctx, table)}
    if "equivariance" in checks:
        gens = {g: act_on_block(ctx, g, table.block) for g in generators_of(ctx)}
        violations = (verify_equivariance_of_block(ctx, table.pairs, bijection, gens)
                      or verify_equivariance_of_k(ctx, table, gens))
        witnesses["equivariance"] = violations[0] if violations else None
    if "invariants" in checks:
        witnesses["invariants"] = _invariants_witness(ctx, table)
    record = {"n_ibr": len(table.pairs), "n_weights_q": len(table.weights_q),
              "n_weights_k": len(table.weights_k)}
    for check, witness in witnesses.items():
        verdict, witness_key = VERDICTS[check]
        record[verdict] = witness is None
        if witness is not None:
            record[witness_key] = witness
    return record


def _bijection_witness(ctx, table):
    """The first violation, or None: a Brauer label whose round trip fails;
    a weight hit twice; a Q weight missing from the image, or an image
    weight that is none; a k_to_q image that is no Q weight, or a Q weight
    that no K weight reaches.  The ordered passes run only when the three
    weight sets differ, to find the first witness."""
    for ib, w in table.pairs:
        back = weight_to_brauer(ctx, w, table.weights)
        if back != ib:
            return {"failure": "round_trip", "ibr": ls.ibr_jsonable(ib),
                    "weight": ls.weight_q_jsonable(ctx, w),
                    "back": ls.ibr_jsonable(back)}
    weights_q, image = set(table.weights_q), {w for _, w in table.pairs}
    if len(image) == len(table.pairs) and image == weights_q == set(table.k_images):
        return None
    image = {}
    for ib, w in table.pairs:
        if w in image:
            return {"failure": "duplicated_weight", "ibr": ls.ibr_jsonable(ib),
                    "weight": ls.weight_q_jsonable(ctx, w)}
        image[w] = ib
    for failure, found, wanted in (("missing_weight", table.weights_q, image),
                                   ("stray_weight", image, weights_q),
                                   ("k_to_q", table.k_images, weights_q),
                                   ("missed_by_k_to_q", table.weights_q, set(table.k_images))):
        for w in found:
            if w not in wanted:
                return {"failure": failure, "weight": ls.weight_q_jsonable(ctx, w)}
    return None


def _invariants_witness(ctx, table):
    """None when the Q form of every K weight label of the table's block
    passes audit_weight_label; else the failed check's message with the
    first weight label it failed on, in Q form."""
    for wq in table.k_images:
        try:
            ls.audit_weight_label(wq, table.weights)
        except CheckFailed as exc:
            return {"message": str(exc), "weight": ls.weight_q_jsonable(ctx, wq)}
    return None


def verify_equivariance_of_block(ctx, pairs, bijection, generators):
    """Violations of bijection[g(x)] = g(bijection[x]) on a block's pairs for
    each g of generators, {g: g(block)}; a moved label outside bijection, the
    rank's, is a violation."""
    violations = []
    for ib, w in pairs:
        for gen, block in generators.items():
            lhs = bijection.get(act_on_ibr(ctx, gen, ib))
            rhs = act_on_weight(ctx, gen, w, block)
            if lhs != rhs:
                violations.append({"generator": str(gen), "ibr": ls.ibr_jsonable(ib),
                                   "lhs": None if lhs is None
                                   else ls.weight_q_jsonable(ctx, lhs),
                                   "rhs": ls.weight_q_jsonable(ctx, rhs)})
    return violations


def verify_equivariance_of_k(ctx, table, generators):
    """Violations of k_to_q(g(k)) = g(k_to_q(k)) on a table's K labels k,
    named by their Q forms, for each g of generators, {g: g(block)}."""
    violations = []
    for gen, block in generators.items():
        for wk, wq in zip(table.weights_k, table.k_images):
            lhs = ls.k_to_q(ctx, act_on_weight(ctx, gen, wk, block))
            rhs = act_on_weight(ctx, gen, wq, block)
            if lhs != rhs:
                violations.append({"generator": str(gen), "weight": ls.weight_q_jsonable(ctx, wq),
                                   "lhs": ls.weight_q_jsonable(ctx, lhs),
                                   "rhs": ls.weight_q_jsonable(ctx, rhs)})
    return violations


def verify_action_laws(ctx, n):
    """The first class that breaks a law of field(1), {"law", "class"}, or
    None: on the non-F0 classes of the rank's labels, in order, field(1)
    maps each into the set, its i-th iterate is field(i) for 1 < i < f,
    and its f-th, taken without _is_identity, is the identity."""
    classes = {pc for s in ls.enumerate_semisimple(ctx, n)
               for pc in s.support() if pc.family != "F0"}
    for pc in sorted(classes):
        image, law = pc, None
        for i in range(1, ctx.f + 1):
            image = frobenius_class(image, 1, ctx)
            if i == 1 and image not in classes:
                law = "field(1) permutes the classes"
            elif 1 < i < ctx.f and image != frobenius_class(pc, i, ctx):
                law = f"field(1)^{i} = field({i})"
            elif i == ctx.f and image != pc:
                law = f"field(1)^{i} = id"
            if law is not None:
                return {"law": law, "class": ls.poly_jsonable(pc)}
    return None
