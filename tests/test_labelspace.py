import pytest

from spbaw import ffpoly, labelspace as ls, partcomb, symbcomb
from spbaw.fieldctx import make_context
from spbaw.symbcomb import LSymbol


CTX35 = make_context(3, 1, 5)
CTX53 = make_context(5, 1, 3)


def brute_semisimple_count(ctx, n, ell_prime_only):
    """Independent count: assign multiplicities along the sorted class list
    (trial-division irreducibility, plain DP)."""
    dim = 2 * n + 1
    classes = ffpoly.enumerate_classes(ctx, dim, ell_prime_only)
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
    labels = ls.enumerate_semisimple(CTX35, 1, ell_prime_only=True)
    xm, xp = ls.x_minus_class(CTX35), ls.x_plus_class(CTX35)
    identity = [s for s in labels if s.entries == ((xm, 3),)]
    assert len(identity) == 1
    minus_one = [s for s in labels if s.mult(xp) == 2]
    assert len(minus_one) == 2
    assert {s.eta_plus for s in minus_one} == {1, -1}
    assert len(labels) == 4


@pytest.mark.parametrize("ctx,n,flag", [
    (CTX35, 1, True), (CTX35, 2, True), (CTX35, 2, False),
    (CTX53, 1, True), (CTX53, 2, True),
])
def test_semisimple_counts_vs_oracle(ctx, n, flag):
    labels = ls.enumerate_semisimple(ctx, n, ell_prime_only=flag)
    assert len(labels) == brute_semisimple_count(ctx, n, flag)
    assert len(set(labels)) == len(labels)
    for s in labels:
        dim = sum(m * pc.deg for pc, m in s.entries)
        assert dim == 2 * n + 1
        xm = ls.x_minus_class(ctx)
        assert s.mult(xm) % 2 == 1
        assert s.mult(ls.x_plus_class(ctx)) % 2 == 0
        if flag:
            assert all(ffpoly.is_ell_prime_order(pc, ctx) for pc, _ in s.entries)


def test_weight_of_examples():
    blocks = ls.enumerate_blocks(CTX35, 2)
    xm, xp = ls.x_minus_class(CTX35), ls.x_plus_class(CTX35)
    for b in blocks:
        for pc in ls.block_classes(CTX35, b.s):
            w = ls.weight_of(CTX35, b, pc)
            core = b.core_of(pc)
            if pc.family != "F0":
                assert b.s.mult(pc) == sum(core) + pc.e_gamma * w
            elif pc == xp:
                assert b.s.mult(pc) == 2 * symbcomb.rank(core) + 2 * CTX35.e * w
            else:
                assert b.s.mult(pc) == 2 * symbcomb.rank(core) + 1 + 2 * CTX35.e * w
    # identity class of SO_5(3): m at X-1 is 5; the three cocores of the
    # rank-2 odd-defect symbols carry weights 0, 0 and 1
    identity = [b for b in blocks if len(b.s.entries) == 1]
    ws = sorted(ls.weight_of(CTX35, b, xm) for b in identity)
    assert ws == [0, 0, 1]
    heavy = [b for b in identity if ls.weight_of(CTX35, b, xm) == 1]
    assert heavy[0].core_of(xm) == LSymbol((0,), ())
    assert len(ls.enumerate_ibr(CTX35, heavy[0])) == 4


def test_enumerate_blocks_smallest_case():
    blocks = ls.enumerate_blocks(CTX35, 1)
    assert len(blocks) == 7
    degenerate = [b for b in blocks if b.i_collapsed]
    assert all(b.i == 0 for b in degenerate)
    # the X+1-free classes have degenerate empty kappa at X+1
    xp = ls.x_plus_class(CTX35)
    for b in blocks:
        if b.s.mult(xp) == 0:
            assert b.core_of(xp) == LSymbol()
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
            m = b.s.mult(pc)
            core = b.core_of(pc)
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
            b = ls.block_of_ibr(ctx, lab)
            assert b in by_block, f"computed block missing: {b}"
            assert lab in by_block[b]
            assert sum(1 for v in by_block.values() if lab in v) == 1


def test_weights_q_counts_product_formula():
    blocks = ls.enumerate_blocks(CTX35, 2)
    for b in blocks:
        got = ls.enumerate_weights_q(CTX35, b)
        expect = 1
        for pc in ls.block_classes(CTX35, b.s):
            w = ls.weight_of(CTX35, b, pc)
            expect *= len(partcomb.enumerate_tuples(ls.branch_count(CTX35, pc), w))
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
                assert ls.q_to_k(ctx, ls.k_to_q(ctx, wk)) == wk


def test_all_w_zero_block_has_singletons():
    blocks = ls.enumerate_blocks(CTX35, 1)
    for b in blocks:
        ws = [ls.weight_of(CTX35, b, pc) for pc in ls.block_classes(CTX35, b.s)]
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
                    table = ls._symbol_table(rank_n, tag, e, mode)
                    for core, syms in table.items():
                        w, rest = divmod(rank_n - symbcomb.rank(core), e)
                        assert rest == 0
                        assert list(syms) == symbcomb.symbols_with_core(core, w, e, mode)
                    assert list(table) == sorted(table)
                    groups += len(table)
    assert groups == 606


def test_radical_shape_and_audit():
    import json
    for b in ls.enumerate_blocks(CTX35, 2):
        weights = ls.block_weights(CTX35, b)
        assert ls.audit_block(CTX35, b, weights, 2)
        for wk in ls.enumerate_weights_k(CTX35, b):
            shape = ls.radical_shape(CTX35, wk)
            total = {}
            for pc, d, br, t in shape:
                total[pc] = total.get(pc, 0) + CTX35.ell ** d * t
            for pc in ls.block_classes(CTX35, b.s):
                assert total.get(pc, 0) == ls.weight_of(CTX35, b, pc)
            assert ls.audit_weight_label(CTX35, ls.k_to_q(CTX35, wk), weights)
            json.dumps(ls.weight_k_jsonable(CTX35, wk))  # serializable
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
            if b.s.mult(xp) == 0:
                continue
            key = (b.s.entries, b.s.eta_plus)
            by_sign.setdefault(key, set()).add(b.core_of(xp))
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
                    assert (symbcomb.defect(core) + 2 * w) % 4 == want
                else:
                    # hooks preserve the defect outright
                    assert symbcomb.defect(core) % 4 == want
        assert seen_pairs > 0


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_weight_tuple_tables_match_the_enumerators(ell):
    for k in range(7):
        for w in range(6):
            towers = ls._tower_tuples(k, w, ell)
            assert list(towers) == partcomb.weighted_tuples(
                k, w, lambda v: partcomb.enumerate_core_towers(ell, v))
            assert ls._tower_tuples(k, w, ell) is towers
            parts = ls._partition_tuples(k, w)
            assert list(parts) == partcomb.enumerate_tuples(k, w)
            assert ls._partition_tuples(k, w) is parts

