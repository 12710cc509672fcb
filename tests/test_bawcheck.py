import pytest

from spbaw import bawcheck as bc, labelspace as ls, symbcomb
from spbaw.bawcheck import DIAGONAL, FIELD
from spbaw.fieldctx import make_context


CTX35 = make_context(3, 1, 5)
CTX53 = make_context(5, 1, 3)
CTX925 = make_context(3, 2, 5)  # q = 9: the field action moves labels
CTX73 = make_context(7, 1, 3)   # linear prime: hook mode, e = 1
CTX313 = make_context(3, 1, 13)  # linear prime, e = 3


def all_ibrs(ctx, n):
    return [ib for b in ls.enumerate_blocks(ctx, n)
            for ib in ls.enumerate_ibr(ctx, b)]


def all_weights_q(ctx, n):
    return [w for b in ls.enumerate_blocks(ctx, n)
            for w in ls.enumerate_weights_q(ctx, b)]


def test_bijection_on_all_w_zero_blocks():
    for b in ls.enumerate_blocks(CTX35, 1):
        report = bc.verify_block(CTX35, bc.block_table(CTX35, b))
        assert report["bijective"]
        assert report["n_ibr"] == report["n_weights_q"] == report["n_weights_k"]


@pytest.mark.parametrize("ctx,n", [(CTX35, 1), (CTX35, 2), (CTX53, 1), (CTX53, 2),
                                   (CTX73, 1), (CTX73, 2), (CTX313, 1), (CTX925, 1)])
def test_bijection_blockwise(ctx, n):
    for b in ls.enumerate_blocks(ctx, n):
        report = bc.verify_block(ctx, bc.block_table(ctx, b))
        assert report["bijective"], f"block {b} not bijective"
        assert report["n_ibr"] == report["n_weights_q"] == report["n_weights_k"]


def test_linear_prime_exercises_all_families():
    # at (n, q, ell) = (2, 7, 3) every family carries blocks of weight > 0
    seen = set()
    for b in ls.enumerate_blocks(CTX73, 2):
        for pc in ls.block_classes(CTX73, b.s):
            w = ls.weight_of(CTX73, b, pc)
            if w:
                seen.add((pc.family, w))
    assert {("F0", 1), ("F0", 2), ("F1", 1), ("F2", 1)} <= seen


def test_inverse_round_trip():
    for b in ls.enumerate_blocks(CTX35, 2):
        for ib in ls.enumerate_ibr(CTX35, b):
            w = bc.brauer_to_weight(CTX35, ib)
            assert w.block == b
            assert bc.weight_to_brauer(CTX35, w) == ib
        for w in ls.enumerate_weights_q(CTX35, b):
            ib = bc.weight_to_brauer(CTX35, w)
            assert bc.brauer_to_weight(CTX35, ib) == w


def test_degenerate_block_j_doubling():
    # the n=2 identity-class block with weight 1 at X-1: four Brauer labels
    xm = ls.x_minus_class(CTX35)
    blocks = [b for b in ls.enumerate_blocks(CTX35, 2)
              if len(b.s.entries) == 1 and ls.weight_of(CTX35, b, xm) == 1]
    assert len(blocks) == 1
    b = blocks[0]
    ibrs = ls.enumerate_ibr(CTX35, b)
    weights = ls.enumerate_weights_q(CTX35, b)
    assert len(ibrs) == len(weights) == 4
    image = {bc.brauer_to_weight(CTX35, ib) for ib in ibrs}
    assert image == set(weights)


def test_field_zero_is_identity():
    for ib in all_ibrs(CTX35, 1):
        assert bc.act_on_ibr(CTX35, FIELD(0), ib) == ib


def _labels_of_every_kind(ctx, n):
    """Semisimple, block, Brauer, Q and K labels at rank n, each with the
    assignment tuple that the field action rebuilds."""
    out = [(s, s.entries) for s in ls.enumerate_semisimple(ctx, n)]
    for b in ls.enumerate_blocks(ctx, n):
        out.append((b, b.kappa))
        out.extend((ib, ib.lam) for ib in ls.enumerate_ibr(ctx, b))
        out.extend((w, w.q) for w in ls.enumerate_weights_q(ctx, b))
        out.extend((w, w.k) for w in ls.enumerate_weights_k(ctx, b))
    return out


def _act(ctx, action, x):
    if isinstance(x, ls.SemisimpleLabel):
        return bc.act_on_semisimple(ctx, action, x)
    if isinstance(x, ls.BlockLabel):
        return bc.act_on_block(ctx, action, x)
    if isinstance(x, ls.IBrLabel):
        return bc.act_on_ibr(ctx, action, x)
    return bc.act_on_weight(ctx, action, x)


@pytest.mark.parametrize("ctx,n", [(CTX35, 2), (CTX925, 1), (CTX53, 2)])
def test_label_assignments_are_in_canonical_order(ctx, n):
    # the identity actions return a label as enumerated, not re-sorted, so the
    # enumerators themselves must emit every assignment in class order
    labels = _labels_of_every_kind(ctx, n)
    assert {type(x) for x, _ in labels} == {
        ls.SemisimpleLabel, ls.BlockLabel, ls.IBrLabel,
        ls.WeightLabelQ, ls.WeightLabelK}
    for x, entries in labels:
        assert entries == tuple(sorted(entries)), x


@pytest.mark.parametrize("ctx,n", [(CTX35, 2), (CTX925, 1)])
def test_identity_field_powers_return_the_label(ctx, n):
    for x, _ in _labels_of_every_kind(ctx, n):
        for i in (0, ctx.f, 2 * ctx.f):
            assert _act(ctx, FIELD(i), x) is x


def test_field_moves_every_label_kind_over_f9():
    moved = {type(x) for x, _ in _labels_of_every_kind(CTX925, 2)
             if _act(CTX925, FIELD(1), x) != x}
    assert moved == {ls.SemisimpleLabel, ls.BlockLabel, ls.IBrLabel,
                     ls.WeightLabelQ, ls.WeightLabelK}


def test_verify_makes_no_idle_field_or_tower_work(monkeypatch, tmp_path):
    # f = 1: every field action is the identity, so no class is relabelled;
    # the core-tower lists are enumerated once per (ell, v); each block's
    # weights and each K weight's Q form are computed once, the symbols of
    # a rank and defect class are enumerated once, and the universe is
    # counted, not built
    import json

    from spbaw import cli, ffpoly, partcomb

    calls = {}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls.setdefault(name, []).append(args)
            return fn(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(ffpoly, "frobenius_class")
    monkeypatch.setattr(bc, "frobenius_class", ffpoly.frobenius_class)
    counted(partcomb, "enumerate_core_towers")
    for name in ("weight_of", "k_to_q", "enumerate_ibr_universe"):
        counted(ls, name)
    for name in ("enumerate_symbols", "symbols_with_core", "from_core_quotient_sym"):
        counted(symbcomb, name)
    ls._core_towers.cache_clear()
    ls._tower_tuples.cache_clear()
    ls._component_table.cache_clear()
    ls.block_weights.cache_clear()
    bc._field_on_semisimple.cache_clear()
    out = tmp_path / "r.json"
    assert cli.main(["verify", "--p", "3", "--f", "1", "--ell", "5", "--n", "2",
                     "--out", str(out)]) == 0
    blocks = json.loads(out.read_text())["blocks"]
    assert "frobenius_class" not in calls
    towers = calls["enumerate_core_towers"]
    assert towers and len(towers) == len(set(towers))
    assert len(calls["k_to_q"]) == sum(rec["n_weights_k"] for rec in blocks)
    symbol_classes = calls["enumerate_symbols"]
    assert symbol_classes and len(symbol_classes) == len(set(symbol_classes))
    for name in ("symbols_with_core", "from_core_quotient_sym",
                 "enumerate_ibr_universe"):
        assert name not in calls, name
    # once per (block, divisor): weight_to_brauer's check reads the
    # block table's weights
    assert len(calls["weight_of"]) == sum(len(rec["w"]) for rec in blocks)


def test_identity_class_fixed_by_actions():
    labels = ls.enumerate_semisimple(CTX35, 1)
    identity = [s for s in labels if len(s.entries) == 1][0]
    for a in (FIELD(1), DIAGONAL):
        assert bc.act_on_semisimple(CTX35, a, identity) == identity


def test_diagonal_squared_and_laws():
    for ctx, n in [(CTX35, 1), (CTX35, 2), (CTX925, 1)]:
        assert bc.verify_action_laws(ctx, all_ibrs(ctx, n), all_weights_q(ctx, n))


def test_diagonal_fixes_ibr_iff_degenerate():
    for ib in all_ibrs(CTX35, 2):
        lam_plus = ib.part_of(ls.x_plus_class(CTX35))
        fixed = bc.act_on_ibr(CTX35, DIAGONAL, ib) == ib
        assert fixed == symbcomb.is_degenerate(lam_plus)


def test_field_action_preserves_block_membership():
    for ctx, n in [(CTX35, 1), (CTX925, 1)]:
        for ib in all_ibrs(ctx, n):
            moved = bc.act_on_ibr(ctx, FIELD(1), ib)
            assert ls.block_of_ibr(ctx, moved) == \
                bc.act_on_block(ctx, FIELD(1), ls.block_of_ibr(ctx, ib))


def test_field_orbits_divide_f():
    for ctx, n in [(CTX35, 1), (CTX925, 1)]:
        labels = ls.enumerate_semisimple(ctx, n)
        sizes = bc.orbit_sizes(labels, lambda s: bc.act_on_semisimple(ctx, FIELD(1), s))
        assert all(ctx.f % k == 0 for k in sizes)
    # over F_9 at least one orbit is nontrivial
    labels = ls.enumerate_semisimple(CTX925, 1)
    sizes = bc.orbit_sizes(labels, lambda s: bc.act_on_semisimple(CTX925, FIELD(1), s))
    assert 2 in sizes


@pytest.mark.parametrize("ctx,n", [(CTX35, 1), (CTX35, 2), (CTX53, 1), (CTX925, 1),
                                   (CTX73, 2), (CTX313, 1)])
def test_equivariance(ctx, n):
    report = bc.verify_equivariance(ctx, n)
    assert report["ok"], report["violations"][:1]
    assert report["n_checked"] > 0


def test_equivariance_trivial_generator():
    report = bc.verify_equivariance(CTX35, 1, [FIELD(0)])
    assert report["ok"]


def test_k_and_q_actions_commute_with_k_to_q():
    for b in ls.enumerate_blocks(CTX35, 2):
        for wk in ls.enumerate_weights_k(CTX35, b):
            for a in (FIELD(1), DIAGONAL):
                lhs = ls.k_to_q(CTX35, bc.act_on_weight(CTX35, a, wk))
                rhs = bc.act_on_weight(CTX35, a, ls.k_to_q(CTX35, wk))
                assert lhs == rhs


def test_diagonal_fixes_weight_iff_symmetric():
    xp = ls.x_plus_class(CTX35)
    for b in ls.enumerate_blocks(CTX35, 2):
        for w in ls.enumerate_weights_q(CTX35, b):
            fixed = bc.act_on_weight(CTX35, DIAGONAL, w) == w
            q = w.q_of(xp)
            e = CTX35.e
            symmetric = q[:e] == q[e:]
            assert fixed == (symmetric and b.i_collapsed)


def test_orbit_size_multisets_match():
    for ctx, n in [(CTX35, 2), (CTX925, 1)]:
        ibrs = all_ibrs(ctx, n)
        weights = [w for b in ls.enumerate_blocks(ctx, n)
                   for w in ls.enumerate_weights_q(ctx, b)]
        for a in (FIELD(1), DIAGONAL):
            si = bc.orbit_sizes(ibrs, lambda x: bc.act_on_ibr(ctx, a, x))
            sw = bc.orbit_sizes(weights, lambda x: bc.act_on_weight(ctx, a, x))
            assert si == sw


def test_radical_shape_field_invariance():
    for b in ls.enumerate_blocks(CTX925, 1):
        for wk in ls.enumerate_weights_k(CTX925, b):
            shape = ls.radical_shape(CTX925, wk)
            moved = bc.act_on_weight(CTX925, FIELD(1), wk)
            moved_shape = ls.radical_shape(CTX925, moved)
            # the shape is carried along the divisor relabeling
            from spbaw.ffpoly import frobenius_class
            expect = tuple(sorted(((frobenius_class(pc, 1, CTX925), d, br, t)
                                   for pc, d, br, t in shape),
                                  key=lambda s: (s[0].sort_key(), s[1], s[2])))
            assert moved_shape == expect


def test_weight_to_brauer_rejects_malformed_labels():
    b = ls.enumerate_blocks(CTX35, 2)[0]
    w = ls.enumerate_weights_q(CTX35, b)[0]
    xm = ls.x_minus_class(CTX35)
    bad_q = tuple((pc, ((2, 1),) * len(v) if pc == xm else v) for pc, v in w.q)
    bad = ls.WeightLabelQ(block=b, q=bad_q)
    with pytest.raises((AssertionError, ValueError)):
        bc.weight_to_brauer(CTX35, bad)


def test_degeneracy_transport():
    # collapsed blocks are exactly the ones whose label sets the diagonal
    # action maps to themselves; non-collapsed blocks swap with the partner
    for ctx, n in [(CTX35, 2), (CTX73, 2)]:
        for b in ls.enumerate_blocks(ctx, n):
            ibr_set = set(ls.enumerate_ibr(ctx, b))
            w_set = set(ls.enumerate_weights_q(ctx, b))
            moved_ibr = {bc.act_on_ibr(ctx, DIAGONAL, x) for x in ibr_set}
            moved_w = {bc.act_on_weight(ctx, DIAGONAL, x) for x in w_set}
            partner = bc.act_on_block(ctx, DIAGONAL, b)
            if b.i_collapsed:
                assert partner == b
                assert moved_ibr == ibr_set and moved_w == w_set
            else:
                assert partner != b
                assert moved_ibr == set(ls.enumerate_ibr(ctx, partner))
                assert moved_w == set(ls.enumerate_weights_q(ctx, partner))


def test_deep_core_towers_end_to_end():
    # (n, q, ell) = (3, 5, 3): weight 3 at X-1 forces towers with a
    # nontrivial level-1 layer in the K-form
    ctx = CTX53
    xm = ls.x_minus_class(ctx)
    blocks = [b for b in ls.enumerate_blocks(ctx, 3)
              if ls.weight_of(ctx, b, xm) == 3]
    assert blocks
    tables = {b: bc.block_table(ctx, b) for b in ls.enumerate_blocks(ctx, 3)}
    bijection = bc.bijection_of(tables.values())
    deep_seen = 0
    for b in blocks:
        ks = ls.enumerate_weights_k(ctx, b)
        report = bc.verify_block(ctx, tables[b])
        assert report["bijective"]
        assert report["n_ibr"] == report["n_weights_q"] == report["n_weights_k"]
        assert not bc.verify_equivariance_of_block(ctx, tables[b].pairs, bijection,
                                                   [FIELD(1), DIAGONAL])
        for wk in ks:
            for pc, fam in wk.k:
                deep_seen += sum(1 for tw in fam if len(tw) > 1)
            for a in (FIELD(1), DIAGONAL):
                assert ls.k_to_q(ctx, bc.act_on_weight(ctx, a, wk)) == \
                    bc.act_on_weight(ctx, a, ls.k_to_q(ctx, wk))
    assert deep_seen > 0


@pytest.mark.parametrize("p,ell", [(3, 7), (3, 13)])
def test_e_three_modes_with_positive_weight(p, ell):
    # at rank 3 both e = 3 regimes carry blocks of positive weight
    ctx = make_context(p, 1, ell)
    assert ctx.e == 3
    blocks = ls.enumerate_blocks(ctx, 3)
    heavy = [b for b in blocks
             if any(ls.weight_of(ctx, b, pc) > 0 for pc in ls.block_classes(ctx, b.s))]
    assert heavy
    tables = [bc.block_table(ctx, b) for b in blocks]
    bijection = bc.bijection_of(tables)
    for t in tables:
        r = bc.verify_block(ctx, t)
        assert r["bijective"] and r["n_ibr"] == r["n_weights_q"] == r["n_weights_k"]
        assert not bc.verify_equivariance_of_block(ctx, t.pairs, bijection,
                                                   [FIELD(1), DIAGONAL])


def test_field_equivariance_where_the_action_moves_blocks():
    # q = 9, rank 2: the p-power map moves most blocks and weights are
    # nontrivial, so the field half of the commuting square is exercised
    # on genuinely moving labels
    ctx = make_context(3, 2, 5)
    blocks = ls.enumerate_blocks(ctx, 2)
    moved = [b for b in blocks if bc.act_on_block(ctx, FIELD(1), b) != b]
    heavy = [b for b in blocks
             if any(ls.weight_of(ctx, b, pc) > 0 for pc in ls.block_classes(ctx, b.s))]
    assert len(moved) > len(blocks) // 2 and heavy
    for b in blocks:
        r = bc.verify_block(ctx, bc.block_table(ctx, b))
        assert r["bijective"] and r["n_ibr"] == r["n_weights_q"] == r["n_weights_k"]
    report = bc.verify_equivariance(ctx, 2)
    assert report["ok"]
    universe = ls.enumerate_ibr_universe(ctx, 2)
    assert len(universe) == sum(len(ls.enumerate_ibr(ctx, b)) for b in blocks)


def test_duplicated_brauer_label_breaks_bijectivity(monkeypatch):
    # the table keeps each block's pairs as a list: a label enumerated
    # twice counts twice and makes its block non-bijective
    block = ls.enumerate_blocks(CTX35, 2)[0]
    enumerate_ibr = ls.enumerate_ibr
    monkeypatch.setattr(ls, "enumerate_ibr",
                        lambda ctx, b, *weights: enumerate_ibr(ctx, b) + enumerate_ibr(ctx, b)[:1])
    report = bc.verify_block(CTX35, bc.block_table(CTX35, block))
    assert report["n_ibr"] == len(enumerate_ibr(CTX35, block)) + 1
    assert not report["bijective"]
    # every round trip holds; the re-listed label hits its weight again
    first = enumerate_ibr(CTX35, block)[0]
    assert report["bijection_witness"] == {
        "failure": "duplicated_weight", "ibr": ls.ibr_jsonable(first),
        "weight": ls.weight_q_jsonable(CTX35, bc.brauer_to_weight(CTX35, first))}


def test_label_moved_outside_the_rank_breaks_equivariance(monkeypatch):
    # the bijection is looked up, not recomputed, at the moved label: a
    # label the actions send outside the rank's labels is a violation
    tables = {b: bc.block_table(CTX35, b) for b in ls.enumerate_blocks(CTX35, 2)}
    bijection = bc.bijection_of(tables.values())
    block = next(b for b, t in tables.items() if t.pairs)
    target = tables[block].pairs[0][0]
    act_on_ibr = bc.act_on_ibr

    def stray(ctx, action, ib):
        moved = act_on_ibr(ctx, action, ib)
        return moved._replace(j=2) if ib == target else moved   # j is in Z/2

    monkeypatch.setattr(bc, "act_on_ibr", stray)
    for b, t in tables.items():
        violations = bc.verify_equivariance_of_block(CTX35, t.pairs, bijection,
                                                     [FIELD(1), DIAGONAL])
        assert bool(violations) == (b == block)
        assert all(v["lhs"] is None for v in violations)
