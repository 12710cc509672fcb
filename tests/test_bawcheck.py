from collections import Counter
from pathlib import Path

import pytest

from spbaw import bawcheck as bc, ffpoly, labelspace as ls, symbcomb
from spbaw.bawcheck import DIAGONAL, FIELD
from spbaw.fieldctx import make_context
import testonly


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


def table_of(ctx, block):
    """A block's table as verify builds it: its pairs, then its weight side."""
    return bc.block_table(ctx, block, bc.block_pairs(ctx, block))


def bijection_of(pairs_per_block):
    """The rank's bijection, as verify builds it from every block's pairs."""
    return {ib: w for pairs in pairs_per_block for ib, w in pairs}


def bijection_report(ctx, table):
    """verify_block's record of a table with no check beyond the counts
    and bijectivity, which it always runs."""
    return bc.verify_block(ctx, table, None, set())


def equivariance_violations(ctx, n, generators=(FIELD(1), DIAGONAL)):
    """The equivariance violations at rank n and the number of (label,
    generator) pairs checked, on the path verify takes: block_pairs,
    the rank's bijection and verify_equivariance_of_block."""
    blocks = ls.enumerate_blocks(ctx, n)
    pairs = [bc.block_pairs(ctx, b) for b in blocks]
    bijection = bijection_of(pairs)
    violations = [v for b, block_pairs in zip(blocks, pairs)
                  for v in bc.verify_equivariance_of_block(
                      ctx, block_pairs, bijection, testonly.generators(ctx, b, generators))]
    return violations, sum(map(len, pairs)) * len(generators)


def test_bijection_on_all_w_zero_blocks():
    for b in ls.enumerate_blocks(CTX35, 1):
        report = bijection_report(CTX35, table_of(CTX35, b))
        assert report["bijective"]
        assert report["n_ibr"] == report["n_weights_q"] == report["n_weights_k"]


@pytest.mark.parametrize("ctx,n", [(CTX35, 1), (CTX35, 2), (CTX53, 1), (CTX53, 2),
                                   (CTX73, 1), (CTX73, 2), (CTX313, 1), (CTX925, 1)])
def test_bijection_blockwise(ctx, n):
    for b in ls.enumerate_blocks(ctx, n):
        report = bijection_report(ctx, table_of(ctx, b))
        assert report["bijective"], f"block {b} not bijective"
        assert report["n_ibr"] == report["n_weights_q"] == report["n_weights_k"]


def test_linear_prime_exercises_all_families():
    # at (n, q, ell) = (2, 7, 3) every family carries blocks of weight > 0
    seen = set()
    for b in ls.enumerate_blocks(CTX73, 2):
        for pc in ls.block_classes(CTX73, b.s):
            w = testonly.weight_of(b, pc)
            if w:
                seen.add((pc.family, w))
    assert {("F0", 1), ("F0", 2), ("F1", 1), ("F2", 1)} <= seen


def test_inverse_round_trip():
    for b in ls.enumerate_blocks(CTX35, 2):
        for ib in ls.enumerate_ibr(CTX35, b):
            w = bc.brauer_to_weight(CTX35, ib)
            assert w.block == b
            assert testonly.weight_to_brauer(CTX35, w) == ib
        for w in ls.enumerate_weights_q(CTX35, b):
            ib = testonly.weight_to_brauer(CTX35, w)
            assert bc.brauer_to_weight(CTX35, ib) == w


def test_degenerate_block_j_doubling():
    # the n=2 identity-class block with weight 1 at X-1: four Brauer labels
    xm = ls.x_minus_class(CTX35)
    blocks = [b for b in ls.enumerate_blocks(CTX35, 2)
              if len(b.s.entries) == 1 and testonly.weight_of(b, xm) == 1]
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
        return testonly.act_on_semisimple(ctx, action, x)
    if isinstance(x, ls.BlockLabel):
        return bc.act_on_block(ctx, action, x)
    if isinstance(x, ls.IBrLabel):
        return bc.act_on_ibr(ctx, action, x)
    return testonly.act_on_weight(ctx, action, x)


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
    # f = 1: every field action is the identity, so no label is relabelled,
    # and only the action laws take each class through field(1), once; the
    # core-tower lists are enumerated once per (ell, v); each block's
    # weights and each K weight's Q form are computed once, and the Q form
    # of each K weight's diagonal image once; the symbols of a rank and
    # defect class are enumerated once, and the universe is counted, not
    # built
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
    for name in ("enumerate_symbols", "from_core_quotient_sym"):
        counted(symbcomb, name)
    counted(testonly, "symbols_with_core")
    ls._core_towers.cache_clear()
    ls._tower_tuples.cache_clear()
    ls._component_table.cache_clear()
    ls.block_weights.cache_clear()
    bc._field_on_semisimple.cache_clear()
    out = tmp_path / "r.json"
    assert cli.main(["verify", "--p", "3", "--f", "1", "--ell", "5", "--n", "2",
                     "--out", str(out)]) == 0
    blocks = json.loads(out.read_text())["blocks"]
    assert bc._field_on_semisimple.cache_info().currsize == 0
    classes = {pc for s in ls.enumerate_semisimple(CTX35, 2)
               for pc in s.support() if pc.family != "F0"}
    assert Counter(calls["frobenius_class"]) == Counter((pc, 1, CTX35) for pc in classes)
    towers = calls["enumerate_core_towers"]
    assert towers and len(towers) == len(set(towers))
    assert len(calls["k_to_q"]) == 2 * sum(rec["n_weights_k"] for rec in blocks)
    weights_k = [wk for b in ls.enumerate_blocks(CTX35, 2)
                 for wk in ls.enumerate_weights_k(CTX35, b)]
    assert Counter(wk for _, wk in calls["k_to_q"]) == Counter(weights_k) + Counter(
        testonly.act_on_weight(CTX35, DIAGONAL, wk) for wk in weights_k)
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
        assert testonly.act_on_semisimple(CTX35, a, identity) == identity


def test_diagonal_squared_and_laws():
    # verify checks the laws of field(1) on classes; the label laws, which
    # the construction of the actions implies, are asserted here directly
    for ctx, n in [(CTX35, 1), (CTX35, 2), (CTX925, 1), (CTX925, 2)]:
        assert bc.verify_action_laws(ctx, n) is None
        weights_k = [w for b in ls.enumerate_blocks(ctx, n)
                     for w in ls.enumerate_weights_k(ctx, b)]
        for act, labels in ((bc.act_on_ibr, all_ibrs(ctx, n)),
                            (testonly.act_on_weight, all_weights_q(ctx, n)),
                            (testonly.act_on_weight, weights_k)):
            for x in labels:
                dx, fx = act(ctx, DIAGONAL, x), act(ctx, FIELD(1), x)
                assert act(ctx, DIAGONAL, dx) == x
                assert act(ctx, FIELD(1), fx) == act(ctx, FIELD(2), x)
                assert act(ctx, DIAGONAL, fx) == act(ctx, FIELD(1), dx)


def test_diagonal_fixes_ibr_iff_degenerate():
    for ib in all_ibrs(CTX35, 2):
        lam_plus = dict(ib.lam)[ls.x_plus_class(CTX35)]
        fixed = bc.act_on_ibr(CTX35, DIAGONAL, ib) == ib
        assert fixed == symbcomb.is_degenerate(lam_plus)


def test_field_action_preserves_block_membership():
    for ctx, n in [(CTX35, 1), (CTX925, 1)]:
        for ib in all_ibrs(ctx, n):
            moved = bc.act_on_ibr(ctx, FIELD(1), ib)
            assert testonly.block_of_ibr(ctx, moved) == \
                bc.act_on_block(ctx, FIELD(1), testonly.block_of_ibr(ctx, ib))


def test_field_orbits_divide_f():
    for ctx, n in [(CTX35, 1), (CTX925, 1)]:
        labels = ls.enumerate_semisimple(ctx, n)
        sizes = testonly.orbit_sizes(labels, lambda s: testonly.act_on_semisimple(ctx, FIELD(1), s))
        assert all(ctx.f % k == 0 for k in sizes)
    # over F_9 at least one orbit is nontrivial
    labels = ls.enumerate_semisimple(CTX925, 1)
    sizes = testonly.orbit_sizes(labels, lambda s: testonly.act_on_semisimple(CTX925, FIELD(1), s))
    assert 2 in sizes


@pytest.mark.parametrize("ctx,n", [(CTX35, 1), (CTX35, 2), (CTX53, 1), (CTX925, 1),
                                   (CTX73, 2), (CTX313, 1)])
def test_equivariance(ctx, n):
    violations, checked = equivariance_violations(ctx, n)
    assert not violations, violations[:1]
    assert checked > 0


def test_equivariance_trivial_generator():
    violations, _ = equivariance_violations(CTX35, 1, [FIELD(0)])
    assert not violations


def test_k_and_q_actions_commute_with_k_to_q():
    for b in ls.enumerate_blocks(CTX35, 2):
        for wk in ls.enumerate_weights_k(CTX35, b):
            for a in (FIELD(1), DIAGONAL):
                lhs = ls.k_to_q(CTX35, testonly.act_on_weight(CTX35, a, wk))
                rhs = testonly.act_on_weight(CTX35, a, ls.k_to_q(CTX35, wk))
                assert lhs == rhs
    # and on the path verify takes, over F_9 too, where field(1) moves labels
    for ctx, n in [(CTX35, 2), (CTX925, 2), (CTX73, 2)]:
        for b in ls.enumerate_blocks(ctx, n):
            table = table_of(ctx, b)
            assert table.weights_k
            assert not bc.verify_equivariance_of_k(
                ctx, table, testonly.generators(ctx, b, [FIELD(1), DIAGONAL]))


def test_diagonal_fixes_weight_iff_symmetric():
    xp = ls.x_plus_class(CTX35)
    for b in ls.enumerate_blocks(CTX35, 2):
        for w in ls.enumerate_weights_q(CTX35, b):
            fixed = testonly.act_on_weight(CTX35, DIAGONAL, w) == w
            q = dict(w.q)[xp]
            e = CTX35.e
            symmetric = q[:e] == q[e:]
            assert fixed == (symmetric and b.i_collapsed)


def test_orbit_size_multisets_match():
    for ctx, n in [(CTX35, 2), (CTX925, 1)]:
        ibrs = all_ibrs(ctx, n)
        weights = [w for b in ls.enumerate_blocks(ctx, n)
                   for w in ls.enumerate_weights_q(ctx, b)]
        for a in (FIELD(1), DIAGONAL):
            si = testonly.orbit_sizes(ibrs, lambda x: bc.act_on_ibr(ctx, a, x))
            sw = testonly.orbit_sizes(weights, lambda x: testonly.act_on_weight(ctx, a, x))
            assert si == sw


def test_radical_shape_field_invariance():
    for b in ls.enumerate_blocks(CTX925, 1):
        for wk in ls.enumerate_weights_k(CTX925, b):
            shape = testonly.radical_shape(CTX925, wk)
            moved = testonly.act_on_weight(CTX925, FIELD(1), wk)
            moved_shape = testonly.radical_shape(CTX925, moved)
            # the shape is carried along the divisor relabeling
            from spbaw.ffpoly import frobenius_class
            expect = tuple(sorted((frobenius_class(pc, 1, CTX925), d, br, t)
                                  for pc, d, br, t in shape))
            assert moved_shape == expect


def test_weight_to_brauer_rejects_malformed_labels():
    b = ls.enumerate_blocks(CTX35, 2)[0]
    w = ls.enumerate_weights_q(CTX35, b)[0]
    xm = ls.x_minus_class(CTX35)
    bad_q = tuple((pc, ((2, 1),) * len(v) if pc == xm else v) for pc, v in w.q)
    bad = ls.WeightLabelQ(block=b, q=bad_q)
    with pytest.raises((AssertionError, ValueError)):
        testonly.weight_to_brauer(CTX35, bad)


def malformed_assignments(entries, other):
    """entries, an assignment, with its last class missing, with the class
    other added in class order, with its classes reversed and with its last
    class listed twice: each with the class its refusal names, and how."""
    last = entries[-1][0]
    return {"missing": (entries[:-1], last, "is missing"),
            "extra": (tuple(sorted(entries + ((other, entries[-1][1]),))), other,
                      "is outside them"),
            "reversed": (entries[::-1], last, "is out of order"),
            "repeated": (entries + entries[-1:], last, "is listed twice")}


@pytest.mark.parametrize("fault", ["missing", "extra", "reversed", "repeated"])
@pytest.mark.parametrize("direction", ["brauer_to_weight", "weight_to_brauer"])
def test_both_maps_refuse_labels_off_their_block_classes(direction, fault):
    # both maps walk a label's classes in step with block_classes(ctx, s):
    # one missing, one outside the block, one out of order or one listed
    # twice is refused, naming the class
    b = ls.enumerate_blocks(CTX35, 2)[0]
    classes = ls.block_classes(CTX35, b.s)
    assert len(classes) >= 2
    other = next(pc for s in ls.enumerate_semisimple(CTX35, 2)
                 for pc in s.support() if pc not in classes)
    ib = ls.enumerate_ibr(CTX35, b)[0]
    wq, weights = bc.brauer_to_weight(CTX35, ib), ls.block_weights(CTX35, b)
    assert bc.weight_to_brauer(CTX35, wq, weights) == ib
    entries, apply = {
        "brauer_to_weight": (ib.lam, lambda lam: bc.brauer_to_weight(CTX35, ib._replace(lam=lam))),
        "weight_to_brauer": (wq.q, lambda q: bc.weight_to_brauer(CTX35, wq._replace(q=q), weights)),
    }[direction]
    bad, named, how = malformed_assignments(entries, other)[fault]
    with pytest.raises(ValueError) as exc:
        apply(bad)
    assert str(exc.value).endswith(f"{named!r} {how}"), exc.value


@pytest.mark.parametrize("fault", ["missing", "extra", "reversed", "repeated"])
@pytest.mark.parametrize("reader", ["block_weights", "enumerate_ibr"])
def test_block_readers_refuse_a_kappa_off_its_block_classes(reader, fault):
    # block_weights and enumerate_ibr walk kappa in step with the classes
    # and multiplicities of s: a kappa off those classes is refused, naming
    # the class, before a core meets another class's multiplicity
    b = ls.enumerate_blocks(CTX35, 2)[0]
    classes = ls.block_classes(CTX35, b.s)
    other = next(pc for s in ls.enumerate_semisimple(CTX35, 2)
                 for pc in s.support() if pc not in classes)
    bad, named, how = malformed_assignments(b.kappa, other)[fault]
    with pytest.raises(ValueError) as exc:
        getattr(ls, reader)(CTX35, b._replace(kappa=bad))
    assert str(exc.value).endswith(f"{named!r} {how}"), exc.value


@pytest.mark.parametrize("p,f", [(3, 1), (3, 2)])
def test_weight_side_acts_on_each_block_once_per_generator(tmp_path, monkeypatch, p, f):
    # verify_block acts on its block once per generator and hands the
    # image to act_on_weight, which no longer rebuilds it for every label
    from spbaw import cli
    ctx = make_context(p, f, 5)
    acted = Counter()
    act_on_block = bc.act_on_block

    def counted(ctx, action, x):
        acted[action, x] += 1
        return act_on_block(ctx, action, x)

    monkeypatch.setattr(bc, "act_on_block", counted)
    assert cli.main(["verify", "--p", str(p), "--f", str(f), "--ell", "5", "--n", "2",
                     "--out", str(tmp_path / "r.json")]) == 0
    blocks = ls.enumerate_blocks(ctx, 2)
    assert acted == Counter({(g, b): 1 for b in blocks for g in bc.generators_of(ctx)})
    assert len(bc.generators_of(ctx)) == f


def test_degenerate_part_with_unequal_chains_is_rejected(monkeypatch):
    # a degenerate X+1 part extracts as two equal chains; made unequal,
    # they name no weight
    xp = ls.x_plus_class(CTX35)
    ib = next(ib for ib in all_ibrs(CTX35, 2)
              if dict(ib.lam)[xp] == symbcomb.LSymbol((1,), (1,)))
    extract = symbcomb._extract

    def unequal(sym, e, mode):
        core, A, B = extract(sym, e, mode)
        return core, A, tuple(p + (1,) for p in B)

    monkeypatch.setattr(symbcomb, "_extract", unequal)
    with pytest.raises(ls.CheckFailed, match="quotient"):
        bc.brauer_to_weight(CTX35, ib)


def test_degenerate_reconstruction_with_index_one_is_rejected(monkeypatch):
    # over a degenerate X+1 core, halves in decreasing order carry j = 1;
    # a degenerate symbol built from them would carry it too
    xp = ls.x_plus_class(CTX35)
    e = CTX35.e
    wq = next(w for b in ls.enumerate_blocks(CTX35, 2)
              if symbcomb.is_degenerate(testonly.core_of(b, xp))
              for w in ls.enumerate_weights_q(CTX35, b)
              if dict(w.q)[xp][:e] > dict(w.q)[xp][e:])
    monkeypatch.setattr(symbcomb, "_attach", lambda core, A, B, e, mode: core)
    with pytest.raises(ls.CheckFailed, match="carries"):
        testonly.weight_to_brauer(CTX35, wq)


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


def test_degeneracy_transport():
    # collapsed blocks are exactly the ones whose label sets the diagonal
    # action maps to themselves; non-collapsed blocks swap with the partner
    for ctx, n in [(CTX35, 2), (CTX73, 2)]:
        for b in ls.enumerate_blocks(ctx, n):
            ibr_set = set(ls.enumerate_ibr(ctx, b))
            w_set = set(ls.enumerate_weights_q(ctx, b))
            moved_ibr = {bc.act_on_ibr(ctx, DIAGONAL, x) for x in ibr_set}
            moved_w = {testonly.act_on_weight(ctx, DIAGONAL, x) for x in w_set}
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
              if testonly.weight_of(b, xm) == 3]
    assert blocks
    tables = {b: table_of(ctx, b) for b in ls.enumerate_blocks(ctx, 3)}
    bijection = bijection_of(t.pairs for t in tables.values())
    deep_seen = 0
    for b in blocks:
        ks = ls.enumerate_weights_k(ctx, b)
        report = bijection_report(ctx, tables[b])
        assert report["bijective"]
        assert report["n_ibr"] == report["n_weights_q"] == report["n_weights_k"]
        assert not bc.verify_equivariance_of_block(
            ctx, tables[b].pairs, bijection, testonly.generators(ctx, b, [FIELD(1), DIAGONAL]))
        for wk in ks:
            for pc, fam in wk.k:
                deep_seen += sum(1 for tw in fam if len(tw) > 1)
            for a in (FIELD(1), DIAGONAL):
                assert ls.k_to_q(ctx, testonly.act_on_weight(ctx, a, wk)) == \
                    testonly.act_on_weight(ctx, a, ls.k_to_q(ctx, wk))
    assert deep_seen > 0


@pytest.mark.parametrize("p,ell", [(3, 7), (3, 13)])
def test_e_three_modes_with_positive_weight(p, ell):
    # at rank 3 both e = 3 regimes carry blocks of positive weight
    ctx = make_context(p, 1, ell)
    assert ctx.e == 3
    blocks = ls.enumerate_blocks(ctx, 3)
    heavy = [b for b in blocks
             if any(testonly.weight_of(b, pc) > 0 for pc in ls.block_classes(ctx, b.s))]
    assert heavy
    tables = [table_of(ctx, b) for b in blocks]
    bijection = bijection_of(t.pairs for t in tables)
    for t in tables:
        r = bijection_report(ctx, t)
        assert r["bijective"] and r["n_ibr"] == r["n_weights_q"] == r["n_weights_k"]
        assert not bc.verify_equivariance_of_block(
            ctx, t.pairs, bijection, testonly.generators(ctx, t.block, [FIELD(1), DIAGONAL]))


def test_field_equivariance_where_the_action_moves_blocks():
    # q = 9, rank 2: the p-power map moves most blocks and weights are
    # nontrivial, so the field half of the commuting square is exercised
    # on genuinely moving labels
    ctx = make_context(3, 2, 5)
    blocks = ls.enumerate_blocks(ctx, 2)
    moved = [b for b in blocks if bc.act_on_block(ctx, FIELD(1), b) != b]
    heavy = [b for b in blocks
             if any(testonly.weight_of(b, pc) > 0 for pc in ls.block_classes(ctx, b.s))]
    assert len(moved) > len(blocks) // 2 and heavy
    for b in blocks:
        r = bijection_report(ctx, table_of(ctx, b))
        assert r["bijective"] and r["n_ibr"] == r["n_weights_q"] == r["n_weights_k"]
    violations, _ = equivariance_violations(ctx, 2)
    assert not violations
    universe = ls.enumerate_ibr_universe(ctx, 2)
    assert len(universe) == sum(len(ls.enumerate_ibr(ctx, b)) for b in blocks)


def test_duplicated_brauer_label_breaks_bijectivity(monkeypatch):
    # the table keeps each block's pairs as a list: a label enumerated
    # twice counts twice and makes its block non-bijective
    block = ls.enumerate_blocks(CTX35, 2)[0]
    enumerate_ibr = ls.enumerate_ibr
    monkeypatch.setattr(ls, "enumerate_ibr",
                        lambda ctx, b, *weights: enumerate_ibr(ctx, b) + enumerate_ibr(ctx, b)[:1])
    report = bijection_report(CTX35, table_of(CTX35, block))
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
    tables = {b: table_of(CTX35, b) for b in ls.enumerate_blocks(CTX35, 2)}
    bijection = bijection_of(t.pairs for t in tables.values())
    block = next(b for b, t in tables.items() if t.pairs)
    target = tables[block].pairs[0][0]
    act_on_ibr = bc.act_on_ibr

    def stray(ctx, action, ib):
        moved = act_on_ibr(ctx, action, ib)
        return moved._replace(j=2) if ib == target else moved   # j is in Z/2

    monkeypatch.setattr(bc, "act_on_ibr", stray)
    for b, t in tables.items():
        violations = bc.verify_equivariance_of_block(
            CTX35, t.pairs, bijection, testonly.generators(CTX35, b, [FIELD(1), DIAGONAL]))
        assert bool(violations) == (b == block)
        assert all(v["lhs"] is None for v in violations)


def faulty_tables():
    """Each weight-side witness kind with a table of (3,1,5,2) that carries
    that one fault, and the weight the witness must name."""
    blocks = ls.enumerate_blocks(CTX35, 2)
    block = next(b for b in blocks if len(ls.enumerate_weights_q(CTX35, b)) > 1)
    other = next(w for b in blocks if b != block for w in ls.enumerate_weights_q(CTX35, b))
    t = table_of(CTX35, block)
    return {
        # no Brauer label reaches the first pair's weight
        "missing_weight": (t._replace(pairs=t.pairs[1:]), t.pairs[0][1]),
        # a Brauer label reaches a weight the block does not list
        "stray_weight": (t._replace(weights_q=t.weights_q[1:]), t.weights_q[0]),
        # a K weight's Q form lies in another block
        "k_to_q": (t._replace(k_images=t.k_images + [other]), other),
        # no K weight's Q form is the first one
        "missed_by_k_to_q": (t._replace(k_images=t.k_images[1:]), t.k_images[0]),
    }


@pytest.mark.parametrize("failure", ["missing_weight", "stray_weight", "k_to_q",
                                     "missed_by_k_to_q"])
def test_each_weight_side_fault_names_its_witness(failure):
    table, weight = faulty_tables()[failure]
    report = bijection_report(CTX35, table)
    assert not report["bijective"]
    assert report["bijection_witness"] == {
        "failure": failure, "weight": ls.weight_q_jsonable(CTX35, weight)}


def diagonal_fixes(monkeypatch, name, y):
    """Patch the action bc.<name> so that diagonal fixes the label y."""
    act = getattr(bc, name)
    monkeypatch.setattr(bc, name, lambda ctx, action, x, *block: (
        x if action == DIAGONAL and x == y else act(ctx, action, x, *block)))


def test_diagonal_that_fixes_an_image_breaks_its_square(monkeypatch):
    # diagonal moves x but fixes its image y, so diagonal^2 sends x to y;
    # equivariance fails at y, whose weight diagonal still moves
    ibrs = all_ibrs(CTX35, 2)
    x = next(ib for ib in ibrs if bc.act_on_ibr(CTX35, DIAGONAL, ib) != ib)
    y = bc.act_on_ibr(CTX35, DIAGONAL, x)
    diagonal_fixes(monkeypatch, "act_on_ibr", y)
    violations, _ = equivariance_violations(CTX35, 2)
    assert violations == [{
        "generator": "diagonal", "ibr": ls.ibr_jsonable(y),
        "lhs": ls.weight_q_jsonable(CTX35, bc.brauer_to_weight(CTX35, y)),
        "rhs": ls.weight_q_jsonable(CTX35, bc.brauer_to_weight(CTX35, x))}]


def test_diagonal_that_fixes_a_field_image_breaks_the_commutation(monkeypatch):
    # at f = 1 field(1) fixes every label, so the commutation law can only
    # fail at f = 2: diagonal fixes y = field(1) x, and not field(1)
    # diagonal x; equivariance fails at the Brauer label of y
    act = testonly.act_on_weight
    x = next(w for w in all_weights_q(CTX925, 2)
             if len({w, act(CTX925, FIELD(1), w), act(CTX925, DIAGONAL, w)}) == 3)
    y = act(CTX925, FIELD(1), x)
    diagonal_y = act(CTX925, DIAGONAL, y)   # before diagonal is made to fix y
    diagonal_fixes(monkeypatch, "act_on_weight", y)
    violations, _ = equivariance_violations(CTX925, 2)
    assert violations == [{
        "generator": "diagonal",
        "ibr": ls.ibr_jsonable(testonly.weight_to_brauer(CTX925, y)),
        "lhs": ls.weight_q_jsonable(CTX925, diagonal_y),
        "rhs": ls.weight_q_jsonable(CTX925, y)}]


def negated_class(pc, ctx):
    """The class whose roots are the negatives of pc's: g(X) becomes
    (-1)^d g(-X).  Negation commutes with the Frobenius map and keeps
    degree, family, e_Gamma and ell-regularity."""
    d = len(pc.factor) - 1
    return ffpoly._class_of_factor(tuple(
        ctx.gf.neg(c) if (d - k) % 2 else c for k, c in enumerate(pc.factor)), ctx)


def class_law_faults():
    """Each class-law witness kind with the frobenius_class fault that
    breaks it, its context, and the first class the law fails on."""
    frob = bc.frobenius_class
    ctx333 = make_context(3, 3, 5)   # q = 27, f = 3
    classes = {ctx: sorted({pc for s in ls.enumerate_semisimple(ctx, 1)
                            for pc in s.support() if pc.family != "F0"})
               for ctx in (CTX925, ctx333)}
    # the first class that field(2) = Frobenius^2 and negation move
    moved = next(pc for pc in classes[ctx333] if frob(pc, 2, ctx333) != pc)
    negated = next(pc for pc in classes[ctx333] if negated_class(pc, ctx333) != pc)
    return {
        # field(1) leaves the set for X+1
        "field(1) permutes the classes": (
            CTX925, lambda pc, i, ctx: ls.x_plus_class(ctx),
            classes[CTX925][0]),
        # field(2) acts as the identity
        "field(1)^2 = field(2)": (
            ctx333, lambda pc, i, ctx: pc if i == 2 else frob(pc, i, ctx),
            moved),
        # field(i) negates the roots when i is odd: field(1)^i = field(i)
        # holds at every i, and field(1)^3 is the negation
        "field(1)^3 = id": (
            ctx333, lambda pc, i, ctx: (negated_class(frob(pc, i, ctx), ctx)
                                        if i % 2 else frob(pc, i, ctx)),
            negated),
    }


@pytest.mark.parametrize("law", ["field(1) permutes the classes",
                                 "field(1)^2 = field(2)", "field(1)^3 = id"],
                         ids=["permutation", "field_two", "field_order"])
def test_each_class_law_names_its_witness(law, monkeypatch):
    ctx, fault, pc = class_law_faults()[law]
    assert bc.verify_action_laws(ctx, 1) is None
    monkeypatch.setattr(bc, "frobenius_class", fault)
    assert bc.verify_action_laws(ctx, 1) == {"law": law, "class": ls.poly_jsonable(pc)}


def test_k_label_fault_names_its_equivariance_witness(monkeypatch):
    # diagonal leaves K labels unmoved: k_to_q(diagonal k) = k_to_q(k),
    # while diagonal moves k_to_q(k) wherever its X+1 halves differ
    act, act_on_weight = testonly.act_on_weight, bc.act_on_weight
    monkeypatch.setattr(bc, "act_on_weight", lambda ctx, a, w, block: (
        w if a == DIAGONAL and isinstance(w, ls.WeightLabelK) else act_on_weight(ctx, a, w, block)))
    failing = 0
    for b in ls.enumerate_blocks(CTX35, 2):
        table = table_of(CTX35, b)
        violations = bc.verify_equivariance_of_k(
            CTX35, table, testonly.generators(CTX35, b, [FIELD(1), DIAGONAL]))
        moved = [wq for wq in table.k_images if act(CTX35, DIAGONAL, wq) != wq]
        assert [v["weight"] for v in violations] == [
            ls.weight_q_jsonable(CTX35, wq) for wq in moved]
        for v, wq in zip(violations, moved):
            assert v == {"generator": "diagonal", "weight": v["weight"],
                         "lhs": v["weight"],
                         "rhs": ls.weight_q_jsonable(CTX35, act(CTX35, DIAGONAL, wq))}
        failing += bool(violations)
    assert failing
