import sys

import pytest

from spbaw import bawcheck as bc, ffpoly, labelspace as ls, partcomb, symbcomb
from spbaw.bawcheck import DIAGONAL, FIELD
from spbaw.fieldctx import make_context
from spbaw.symbcomb import LSymbol
from test_acceptance import CONFIGS
import testonly


CTX35 = make_context(3, 1, 5)
CTX53 = make_context(5, 1, 3)


def brute_semisimple_count(ctx, n):
    """Independent count of the ell-regular labels: assign multiplicities
    along the sorted class list (trial-division irreducibility, plain DP)."""
    dim = 2 * n + 1
    classes = ffpoly.enumerate_classes(ctx, dim, ell_prime_only=True)
    others = [pc.deg for pc in classes if pc.family != "F0"]

    def count(idx, budget):
        if idx == len(others):
            # m_minus odd >= 1, m_plus even >= 0, eta doubles when m_plus > 0
            total = 0
            for m_plus in range(0, budget + 1, 2):
                m_minus = budget - m_plus
                if m_minus >= 1 and m_minus % 2 == 1:
                    total += 2 if m_plus else 1
            return total
        d = others[idx]
        total = count(idx + 1, budget)
        m = 1
        while m * d <= budget - 1:
            total += count(idx + 1, budget - m * d)
            m += 1
        return total

    return count(0, dim)


def test_semisimple_n1_q3():
    labels = ls.enumerate_semisimple(CTX35, 1)
    xm, xp = ls.x_minus_class(CTX35), ls.x_plus_class(CTX35)
    identity = [s for s in labels if s.entries == ((xm, 3),)]
    assert len(identity) == 1
    minus_one = [s for s in labels if testonly.mult(s, xp) == 2]
    assert len(minus_one) == 2
    assert {s.eta_plus for s in minus_one} == {1, -1}
    assert len(labels) == 4


@pytest.mark.parametrize("p,f", [(p, f) for p in (3, 5, 7) for f in (1, 2)])
def test_x_plus_and_x_minus_by_their_coefficients(p, f):
    # X+1 encodes as (1, 1) and X-1 as (p - 1, 1), over F_(p^2) as well
    ctx = make_context(p, f, 5 if p == 3 else 3)
    xm, xp = ls.x_minus_class(ctx), ls.x_plus_class(ctx)
    classes = ffpoly.enumerate_classes(ctx, 4)
    assert xm in classes and xp in classes
    for pc in classes:
        assert ls.is_x_plus(pc) == (pc == xp), pc
        assert ls.is_x_minus(pc) == (pc == xm), pc


@pytest.mark.parametrize("ctx,n", [(CTX35, 1), (CTX35, 2), (CTX53, 1), (CTX53, 2)])
def test_semisimple_counts_vs_oracle(ctx, n):
    labels = ls.enumerate_semisimple(ctx, n)
    assert len(labels) == brute_semisimple_count(ctx, n)
    assert len(set(labels)) == len(labels)
    for s in labels:
        dim = sum(m * pc.deg for pc, m in s.entries)
        assert dim == 2 * n + 1
        xm = ls.x_minus_class(ctx)
        assert testonly.mult(s, xm) % 2 == 1
        assert testonly.mult(s, ls.x_plus_class(ctx)) % 2 == 0
        assert all(ffpoly.is_ell_prime_order(pc, ctx) for pc, _ in s.entries)


def test_semisimple_stack_depth_is_bounded_by_the_rank():
    # (5,2,7,2) has hundreds of classes; a frame per skipped class would
    # exceed a recursion limit of 120, a frame per chosen class does not
    ctx = make_context(5, 2, 7)
    ffpoly.enumerate_classes(ctx, 4, True)   # warm the class table
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        labels = ls.enumerate_semisimple(ctx, 2)
    finally:
        sys.setrecursionlimit(limit)
    assert len(labels) == 650


def test_weight_of_examples():
    blocks = ls.enumerate_blocks(CTX35, 2)
    xm, xp = ls.x_minus_class(CTX35), ls.x_plus_class(CTX35)
    for b in blocks:
        for pc in ls.block_classes(CTX35, b.s):
            w = testonly.weight_of(b, pc)
            core = testonly.core_of(b, pc)
            if pc.family != "F0":
                assert testonly.mult(b.s, pc) == sum(core) + pc.e_gamma * w
            elif pc == xp:
                assert testonly.mult(b.s, pc) == 2 * symbcomb.rank(core) + 2 * CTX35.e * w
            else:
                assert testonly.mult(b.s, pc) == 2 * symbcomb.rank(core) + 1 + 2 * CTX35.e * w
    # identity class of SO_5(3): m at X-1 is 5; the three cocores of the
    # rank-2 odd-defect symbols carry weights 0, 0 and 1
    identity = [b for b in blocks if len(b.s.entries) == 1]
    ws = sorted(testonly.weight_of(b, xm) for b in identity)
    assert ws == [0, 0, 1]
    heavy = [b for b in identity if testonly.weight_of(b, xm) == 1]
    assert testonly.core_of(heavy[0], xm) == LSymbol((0,), ())
    assert len(ls.enumerate_ibr(CTX35, heavy[0])) == 4


def test_enumerate_blocks_smallest_case():
    blocks = ls.enumerate_blocks(CTX35, 1)
    assert len(blocks) == 7
    degenerate = [b for b in blocks if b.i_collapsed]
    assert all(b.i == 0 for b in degenerate)
    # the X+1-free classes have degenerate empty kappa at X+1
    xp = ls.x_plus_class(CTX35)
    for b in blocks:
        if testonly.mult(b.s, xp) == 0:
            assert testonly.core_of(b, xp) == LSymbol()
            assert b.i_collapsed


def test_blocks_deterministic():
    a = ls.enumerate_blocks(CTX35, 2)
    b = ls.enumerate_blocks(CTX35, 2)
    assert a == b


def test_enumerate_ibr_counts_vs_filter_oracle():
    blocks = ls.enumerate_blocks(CTX35, 2)
    xm, xp = ls.x_minus_class(CTX35), ls.x_plus_class(CTX35)
    for b in blocks:
        got = ls.enumerate_ibr(CTX35, b)
        assert len(set(got)) == len(got)
        # oracle: enumerate all candidate lambda values per class and filter
        # by the computed core
        count = 1
        for pc in ls.block_classes(CTX35, b.s):
            m = testonly.mult(b.s, pc)
            core = testonly.core_of(b, pc)
            if pc.family != "F0":
                vals = [p for p in partcomb.enumerate_partitions(m)
                        if partcomb.e_core(p, pc.e_gamma) == core]
            else:
                if pc == xm:
                    pred = lambda d: d % 2 == 1
                elif m == 0:
                    pred = lambda d: d == 0
                else:
                    want = 0 if b.s.eta_plus == 1 else 2
                    pred = lambda d, w=want: d % 4 == w
                vals = [s for s in symbcomb.enumerate_symbols(m // 2, pred)
                        if symbcomb.sym_core_quotient(s, CTX35.e, CTX35.mode)[0] == core]
            count *= len(vals)
        # j-doubling over degenerate kappa at X+1: degenerate lambda counted
        # once, the rest twice
        if b.i_collapsed:
            n_deg = sum(1 for lab in got if lab.j_collapsed)
            assert len(got) + n_deg == 2 * count
        else:
            assert len(got) == count


def test_block_partition_of_universe():
    for ctx, n in [(CTX35, 1), (CTX35, 2), (CTX53, 1)]:
        universe = ls.enumerate_ibr_universe(ctx, n)
        blocks = ls.enumerate_blocks(ctx, n)
        by_block = {b: set(ls.enumerate_ibr(ctx, b)) for b in blocks}
        assert sum(len(v) for v in by_block.values()) == len(universe)
        for lab in universe:
            b = testonly.block_of_ibr(ctx, lab)
            assert b in by_block, f"computed block missing: {b}"
            assert lab in by_block[b]
            assert sum(1 for v in by_block.values() if lab in v) == 1


def test_weights_q_counts_product_formula():
    blocks = ls.enumerate_blocks(CTX35, 2)
    for b in blocks:
        got = ls.enumerate_weights_q(CTX35, b)
        expect = 1
        for pc in ls.block_classes(CTX35, b.s):
            w = testonly.weight_of(b, pc)
            expect *= len(partcomb.enumerate_tuples(ls.branch_count(pc), w))
        assert len(got) == expect
        assert len(set(got)) == len(got)


def test_weights_k_matches_q_and_round_trip():
    for ctx, n in [(CTX35, 2), (CTX53, 1), (make_context(3, 1, 7), 2)]:
        for b in ls.enumerate_blocks(ctx, n):
            qs = ls.enumerate_weights_q(ctx, b)
            ks = ls.enumerate_weights_k(ctx, b)
            assert len(ks) == len(qs)
            mapped = sorted(ls.k_to_q(ctx, wk) for wk in ks)
            assert mapped == qs
            for wk in ks:
                assert testonly.q_to_k(ctx, ls.k_to_q(ctx, wk)) == wk


def test_all_w_zero_block_has_singletons():
    blocks = ls.enumerate_blocks(CTX35, 1)
    for b in blocks:
        ws = [testonly.weight_of(b, pc) for pc in ls.block_classes(CTX35, b.s)]
        if all(w == 0 for w in ws):
            assert len(ls.enumerate_ibr(CTX35, b)) == 1
            assert len(ls.enumerate_weights_q(CTX35, b)) == 1
            assert len(ls.enumerate_weights_k(CTX35, b)) == 1


def test_symbol_table_groups_match_symbols_with_core():
    # each core's group is the reference enumeration of the symbols with
    # that core, in the same order, over every defect class
    groups = 0
    for rank_n in range(6):
        for e in range(1, 5):
            for mode in (symbcomb.HOOK, symbcomb.COHOOK):
                for tag in ("odd", "mod4_0", "mod4_2"):
                    table = ls._component_table(tag, rank_n, e, mode)
                    for core, syms in table.items():
                        w, rest = divmod(rank_n - symbcomb.rank(core), e)
                        assert rest == 0
                        assert list(syms) == testonly.symbols_with_core(core, w, e, mode)
                    assert list(table) == sorted(table)
                    groups += len(table)
    assert groups == 606


def test_partition_table_groups_match_core_quotient_construction():
    # the keys are the e-cores that leave whole e-hooks, and each group is
    # the partitions built from that core and every e-quotient of its weight
    for e in range(1, 6):
        for m in range(9):
            table = ls._component_table("partition", m, e, None)
            cores = [k for k in testonly.enumerate_e_cores(e, m)
                     if (m - sum(k)) % e == 0]
            assert list(table) == sorted(cores)
            for core, parts in table.items():
                w = (m - sum(core)) // e
                reference = [partcomb.from_core_quotient(core, t)
                             for t in partcomb.enumerate_tuples(e, w)]
                assert list(parts) == sorted(reference)


def test_radical_shape_and_audit():
    import json
    for b in ls.enumerate_blocks(CTX35, 2):
        weights = ls.block_weights(CTX35, b)
        # each multiplicity is the core's share plus beta * e_Gamma per unit
        # of weight, and the divisors fill dimension 2n + 1
        for pc, w in weights:
            assert testonly.mult(b.s, pc) == (ls._core_share(pc, testonly.core_of(b, pc))
                                    + w * ls.branch_count(pc))
        assert sum(m * pc.deg for pc, m in b.s.entries) == 2 * 2 + 1
        for wk in ls.enumerate_weights_k(CTX35, b):
            shape = testonly.radical_shape(CTX35, wk)
            total = {}
            for pc, d, br, t in shape:
                total[pc] = total.get(pc, 0) + CTX35.ell ** d * t
            for pc in ls.block_classes(CTX35, b.s):
                assert total.get(pc, 0) == testonly.weight_of(b, pc)
            assert ls.audit_weight_label(ls.k_to_q(CTX35, wk), weights)
        json.dumps(ls.block_jsonable(CTX35, b))


def test_eta_split_gives_disjoint_blocks():
    # for a fixed multiplicity function with m at X+1 > 0, the two type
    # signs admit disjoint kappa sets at X+1: with the weight forced by the
    # multiplicity, defect(core) + 2w mod 4 separates the classes
    ctx73 = make_context(7, 1, 3)
    for ctx, n in [(CTX35, 2), (CTX53, 2), (ctx73, 2)]:
        xp = ls.x_plus_class(ctx)
        by_sign = {}
        for b in ls.enumerate_blocks(ctx, n):
            if testonly.mult(b.s, xp) == 0:
                continue
            key = (b.s.entries, b.s.eta_plus)
            by_sign.setdefault(key, set()).add(testonly.core_of(b, xp))
        seen_pairs = 0
        for (entries, eta), cores in by_sign.items():
            other = by_sign.get((entries, -eta))
            if other is None:
                continue
            seen_pairs += 1
            assert cores.isdisjoint(other)
            m = dict(entries)[xp]
            want = 0 if eta == 1 else 2
            for core in cores:
                w = (m - 2 * symbcomb.rank(core)) // (2 * ctx.e)
                if ctx.mode == "cohook":
                    # cohooks shift the defect class by 2 per removal
                    assert (testonly.defect(core) + 2 * w) % 4 == want
                else:
                    # hooks preserve the defect outright
                    assert testonly.defect(core) % 4 == want
        assert seen_pairs > 0


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_weight_tuple_tables_match_the_enumerators(ell):
    # each table lists its enumerator's tuples sorted, so that the weight
    # label enumerators build their labels in order with no sort
    for k in range(7):
        for w in range(6):
            towers = ls._tower_tuples(k, w, ell)
            assert list(towers) == sorted(partcomb.weighted_tuples(
                k, w, lambda v: partcomb.enumerate_core_towers(ell, v)))
            assert ls._tower_tuples(k, w, ell) is towers
            parts = ls._partition_tuples(k, w)
            assert list(parts) == sorted(partcomb.enumerate_tuples(k, w))
            assert ls._partition_tuples(k, w) is parts



def test_semisimple_labels_are_enumerated_once_per_rank():
    # enumerate_blocks and the universe count share one enumeration, in a
    # tuple, which no caller can empty for the next
    ctx = make_context(3, 1, 7)
    ls.enumerate_semisimple.cache_clear()
    blocks = ls.enumerate_blocks(ctx, 2)
    assert testonly.universe_size(ctx, 2) == sum(len(ls.enumerate_ibr(ctx, b)) for b in blocks)
    assert ls.enumerate_semisimple.cache_info().misses == 1
    assert type(ls.enumerate_semisimple(ctx, 2)) is tuple
    assert ls.enumerate_semisimple(ctx, 2)


def test_a_q_fragment_is_never_a_lambda_fragment():
    # at e = 1 a Brauer label and its weight label can carry equal
    # assignments: LSymbol([], [1]) at X-1 compares equal to the
    # partitions ((), (1,)); in JSON the one has rows, the other not
    ctx = make_context(5, 1, 3)
    ib, w = next((ib, w) for b in ls.enumerate_blocks(ctx, 1)
                 for ib in ls.enumerate_ibr(ctx, b)
                 for w in [bc.brauer_to_weight(ctx, ib)] if ib.lam == w.q)
    lam = [[ls.poly_jsonable(pc), {"rows": [list(v[0]), list(v[1])]}]
           for pc, v in ib.lam]
    q = [[ls.poly_jsonable(pc), [list(p) for p in fam]] for pc, fam in w.q]
    for first in ("lambda", "Q"):
        ls._assignment_jsonable.cache_clear()
        if first == "lambda":
            assert ls.ibr_jsonable(ib)["lambda"] == lam
        assert ls.weight_q_jsonable(ctx, w)["Q"] == q
        assert ls.ibr_jsonable(ib)["lambda"] == lam


@pytest.mark.parametrize("p,f,ell,n", [(p, 1, ell, n) for n, p, ell in CONFIGS]
                         + [(3, 2, 5, 2), (3, 2, 7, 1)])
def test_labels_list_their_classes_in_block_class_order(p, f, ell, n):
    # the maps and actions walk kappa, lambda, Q and K in step with
    # block_classes, and read X+1 first; the actions' images keep the order
    ctx = make_context(p, f, ell)
    xp = ls.x_plus_class(ctx)
    for b in ls.enumerate_blocks(ctx, n):
        for x in [b, *ls.enumerate_ibr(ctx, b), *ls.enumerate_weights_q(ctx, b),
                  *ls.enumerate_weights_k(ctx, b)]:
            weight = isinstance(x, (ls.WeightLabelQ, ls.WeightLabelK))
            act = testonly.act_on_weight if weight else bc.act_on_block
            for y in (x, act(ctx, FIELD(1), x), act(ctx, DIAGONAL, x)):
                classes = tuple(pc for pc, _ in y[1])
                assert classes == testonly.classes_of(ctx, y.block.s if weight else y.s), y
                assert classes[0] == xp


@pytest.mark.parametrize("p,f,ell,n", [(p, 1, ell, n) for n, p, ell in CONFIGS]
                         + [(3, 2, 5, 2), (5, 1, 3, 3)])
def test_class_walk_matches_the_lookups(monkeypatch, p, f, ell, n):
    # the package walks each label's classes and multiplicities in step with
    # its kappa; the references look every multiplicity and core up.  Both
    # kinds of label occur: with X+1 in the support and without it
    ctx = make_context(p, f, ell)
    labels = ls.enumerate_semisimple(ctx, n)
    assert {ls.x_plus_class(ctx) in s.support() for s in labels} == {True, False}
    keys, table = [], ls._component_table
    monkeypatch.setattr(ls, "_component_table", lambda *key: keys.append(key) or table(*key))
    blocks = ls.enumerate_blocks(ctx, n)
    assert keys == [key for s in labels for key in testonly.component_keys(ctx, s)]
    for s in labels:
        assert ls.semisimple_ibr_count(ctx, s) == testonly.semisimple_ibr_count(ctx, s)
    for b in blocks:
        assert ls.block_weights.__wrapped__(ctx, b) == testonly.block_weights(ctx, b)
        keys.clear()
        ls.enumerate_ibr(ctx, b)
        assert keys == testonly.component_keys(ctx, b.s)


def test_core_that_leaves_no_whole_weight_is_refused():
    # a core at X-1 of rank 2 takes 5 of a multiplicity of 1
    b = ls.enumerate_blocks(CTX35, 1)[0]
    xm = ls.x_minus_class(CTX35)
    assert testonly.mult(b.s, xm) == 1
    bad = b._replace(kappa=tuple((pc, LSymbol((2,), ()) if pc == xm else core)
                                 for pc, core in b.kappa))
    with pytest.raises(ValueError) as exc:
        ls.block_weights(CTX35, bad)
    assert str(exc.value).startswith(f"no nonnegative integer weight at {xm!r}: m=1"), exc.value


@pytest.mark.parametrize("p,f,ell,n", [(3, 1, 5, 3), (3, 2, 5, 2), (3, 1, 11, 3)])
def test_k_to_q_converts_each_family_as_its_towers(p, f, ell, n):
    # k_to_q converts a class's family of towers at once, through a memo
    # keyed by the family; the result is the tower-by-tower conversion
    ctx = make_context(p, f, ell)
    longest = 0
    for b in ls.enumerate_blocks(ctx, n):
        for wk in ls.enumerate_weights_k(ctx, b):
            q = tuple((pc, tuple(partcomb.tower_to_partition(tw, ell) for tw in fam))
                      for pc, fam in wk.k)
            assert ls.k_to_q(ctx, wk) == ls.WeightLabelQ(b, q)
            longest = max(longest, *(len(fam) for _, fam in wk.k))
    assert longest == 2 * ctx.e   # at ell = 11, e = 5: ten towers at X+-1


def test_a_malformed_family_is_refused_on_every_call():
    # the memo keeps no result for a family it refused
    b = ls.enumerate_blocks(CTX35, 1)[0]
    wk = ls.enumerate_weights_k(CTX35, b)[0]
    bad = ((), (((1,), (2,)),))     # level 0 of the second tower holds two entries
    bad_k = ls.WeightLabelK(b, ((wk.k[0][0], bad),) + wk.k[1:])
    for _ in range(3):
        with pytest.raises(ValueError, match="malformed tower level 0"):
            ls.k_to_q(CTX35, bad_k)
        with pytest.raises(ValueError, match="malformed tower level 0"):
            ls._family_to_q(bad, CTX35.ell)
