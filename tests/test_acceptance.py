"""Acceptance suite: every criterion exercised at its stated tolerance
(exact equality throughout; the per-configuration wall-clock budget is
120 seconds).  Each criterion prints one PASS/FAIL line."""

import random
import time

import pytest

from spbaw import bawcheck as bc, ffpoly, labelspace as ls, partcomb, symbcomb
from spbaw.bawcheck import DIAGONAL, FIELD
from spbaw.cli import main as cli_main
from spbaw.fieldctx import make_context
from spbaw.symbcomb import COHOOK, HOOK, LSymbol

CONFIGS = [(1, 3, 5), (1, 5, 3), (2, 3, 5), (2, 3, 7), (2, 5, 3), (3, 3, 5)]
TIME_BUDGET = 120.0


def _report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def per_block_reports():
    """Block reports for every configuration, shared across criteria."""
    out = {}
    for n, p, ell in CONFIGS:
        start = time.monotonic()
        ctx = make_context(p, 1, ell)
        blocks = ls.enumerate_blocks(ctx, n)
        reports = [bc.verify_block(ctx, bc.block_table(ctx, b)) for b in blocks]
        elapsed = time.monotonic() - start
        out[(n, p, ell)] = (ctx, blocks, reports, elapsed)
    return out


def test_criterion_1_blockwise_weight_count_equality(per_block_reports):
    ok, details = True, []
    for cfg, (ctx, blocks, reports, elapsed) in per_block_reports.items():
        equal = all(r["n_ibr"] == r["n_weights_q"] == r["n_weights_k"]
                    for r in reports)
        in_time = elapsed < TIME_BUDGET
        ok = ok and equal and in_time
        details.append(f"{cfg}: {len(blocks)} blocks, {elapsed:.1f}s")
    _report("criterion 1: per-block weight-count equality on all configurations",
            ok, "; ".join(details))


def test_criterion_2_explicit_bijection(per_block_reports):
    ok = True
    for cfg, (ctx, blocks, reports, _) in per_block_reports.items():
        ok = ok and all(r["bijective"] for r in reports)
        for b in blocks:
            for ib in ls.enumerate_ibr(ctx, b):
                w = bc.brauer_to_weight(ctx, ib)
                ok = ok and bc.weight_to_brauer(ctx, w) == ib
            for w in ls.enumerate_weights_q(ctx, b):
                ok = ok and bc.brauer_to_weight(ctx, bc.weight_to_brauer(ctx, w)) == w
    _report("criterion 2: bijection injective, surjective, two-sided inverse", ok)


def test_criterion_3_equivariance(per_block_reports):
    ok, total = True, 0
    for cfg, (ctx, blocks, _, _) in per_block_reports.items():
        n = cfg[0]
        report = bc.verify_equivariance(ctx, n, [FIELD(1), DIAGONAL])
        ok = ok and report["ok"]
        total += report["n_checked"]
        try:
            bc.verify_action_laws(
                ctx, [ib for b in blocks for ib in ls.enumerate_ibr(ctx, b)],
                [w for b in blocks for w in ls.enumerate_weights_q(ctx, b)])
        except ls.CheckFailed:
            ok = False
    _report("criterion 3: equivariance for field(1) and diagonal plus action laws",
            ok, f"{total} squares checked, zero violations")


def test_criterion_4_block_partition(per_block_reports):
    ok = True
    for cfg, (ctx, blocks, reports, _) in per_block_reports.items():
        n = cfg[0]
        universe = ls.enumerate_ibr_universe(ctx, n)
        total = sum(r["n_ibr"] for r in reports)
        ok = ok and total == len(universe)
        membership = {}
        for b in blocks:
            for lab in ls.enumerate_ibr(ctx, b):
                membership[lab] = membership.get(lab, 0) + 1
        ok = ok and all(membership.get(lab, 0) == 1 for lab in universe)
        ok = ok and len(membership) == len(universe)
        ok = ok and all(ls.block_of_ibr(ctx, lab) in set(blocks) for lab in universe)
    _report("criterion 4: every Brauer label lies in exactly one block", ok)


def test_criterion_5_combinatorial_kernels():
    rng = random.Random(20260808)
    ok = True

    def rand_partition():
        m = rng.randrange(16)
        parts = []
        while m > 0:
            a = rng.randint(1, m)
            parts.append(a)
            m -= a
        return tuple(sorted(parts, reverse=True))

    for _ in range(1000):
        p = rand_partition()
        e = rng.randint(1, 5)
        core, quot = partcomb.e_core_quotient(p, e)
        ok = ok and partcomb.from_core_quotient(core, quot) == p
        ok = ok and sum(p) == sum(core) + e * sum(sum(q) for q in quot)
        ok = ok and partcomb.is_e_core(core, e)

    for _ in range(1000):
        ell = rng.choice([2, 3, 5])
        p = rand_partition()
        tower = partcomb.core_tower(p, ell)
        ok = ok and partcomb.tower_to_partition(tower, ell) == p
        ok = ok and partcomb.tower_weighted_size(tower, ell) == sum(p)

    def rand_symbol():
        row = lambda: tuple(rng.sample(range(10), rng.randrange(5)))
        return LSymbol(row(), row())

    for mode in (HOOK, COHOOK):
        for _ in range(1000):
            s = rand_symbol()
            e = rng.randint(1, 4)
            core, pair = symbcomb.sym_core_quotient(s, e, mode)
            w = symbcomb.quotient_size(pair)
            ok = ok and symbcomb.rank(s) == symbcomb.rank(core) + e * w
            ok = ok and s in symbcomb.from_core_quotient_sym(core, pair, e, mode)
            if mode == HOOK:
                ok = ok and symbcomb.defect(core) == symbcomb.defect(s)
            else:
                ok = ok and (symbcomb.defect(core) - symbcomb.defect(s)) % 2 == 0
    _report("criterion 5: core/quotient and tower round trips, 1000 instances each",
            ok)


def test_criterion_6_counting_identities():
    ok = True
    for m in range(13):
        for e in range(1, 5):
            groups = {}
            for p in partcomb.enumerate_partitions(m):
                groups.setdefault(partcomb.e_core(p, e), []).append(p)
            for kappa, group in groups.items():
                w = (m - sum(kappa)) // e
                ok = ok and len(group) == len(partcomb.enumerate_tuples(e, w))
    odd = lambda d: d % 2 == 1
    n1 = len(symbcomb.enumerate_symbols(1, odd))
    n2 = len(symbcomb.enumerate_symbols(2, odd))
    ok = ok and n1 == 2 and n2 == 6
    _report("criterion 6: counting identities and unipotent symbol counts",
            ok, f"rank1-odd={n1}, rank2-odd={n2}")


def test_criterion_7_polynomial_layer():
    ok = True
    for p in (3, 5, 7):
        ctx = make_context(p, 1, 11 if p != 11 else 13)
        polys = ffpoly.enumerate_irreducibles(ctx, 4)
        counts = {}
        for g in polys:
            counts[ffpoly.poly_deg(g)] = counts.get(ffpoly.poly_deg(g), 0) + 1

        def necklace(q, d):
            def mu(n):
                out = 1
                k = 2
                while k * k <= n:
                    if n % k == 0:
                        n //= k
                        if n % k == 0:
                            return 0
                        out = -out
                    k += 1
                return -out if n > 1 else out
            return sum(mu(d // k) * q ** k for k in range(1, d + 1) if d % k == 0) // d

        for d in range(1, 5):
            ok = ok and counts[d] == necklace(ctx.q, d)
        for g in polys:
            if g[0] == 0:
                continue
            ok = ok and ffpoly.star(ffpoly.star(g, ctx), ctx) == g
            lhs = ffpoly.star(ffpoly.frobenius(g, 1, ctx), ctx)
            rhs = ffpoly.frobenius(ffpoly.star(g, ctx), 1, ctx)
            ok = ok and lhs == rhs
    _report("criterion 7: star involution, star/frobenius commutation, "
            "necklace counts for q in {3,5,7}, deg <= 4", ok)


def test_criterion_8_determinism(tmp_path):
    outs = []
    for tag, jobs in [("a", 1), ("b", 1), ("c", 4)]:
        path = tmp_path / f"{tag}.json"
        code = cli_main(["blocks", "--p", "3", "--f", "1", "--ell", "5",
                         "--n", "2", "--jobs", str(jobs), "--out", str(path)])
        assert code == 0
        outs.append(path.read_bytes())
    ok = outs[0] == outs[1] == outs[2]
    _report("criterion 8: block table bytes identical across runs and jobs",
            ok, f"{len(outs[0])} bytes")


def test_external_class_count_anchors():
    """Frozen oracle values from the character theory of the small groups.

    SL_2(q) has q + 4 conjugacy classes for odd q.  For SL_2(3) the
    element orders are {1,2,3,4,6}, all 5-regular, so there are 7 Brauer
    labels at ell = 5 in 7 defect-zero blocks; SL_2(7) and SL_2(9) are
    coprime to 5 and 7 respectively, giving 11 and 13 labels in as many
    blocks.  SL_2(5) has 9 classes, two of which (orders 3 and 6) are
    3-singular: 7 Brauer labels; its ordinary degrees 1,2,2,3,3,4,4,5,6
    give three defect-zero blocks at 3 plus two positive-defect blocks:
    5 blocks.  Sp_4(3) has 34 classes; exactly two (element orders 5 and
    10) are 5-singular, so 32 Brauer labels at ell = 5 and 34 at ell = 7
    (the group order 2^7 3^4 5 is prime to 7).
    """
    from spbaw import labelspace as ls
    from spbaw.fieldctx import make_context

    expected = {
        # (n, p, f, ell): (total Brauer labels, blocks); Sp_2(q) = SL_2(q)
        # has q + 4 classes for odd q, all regular when ell is coprime to
        # the group order
        (1, 3, 1, 5): (7, 7),
        (1, 5, 1, 3): (7, 5),
        (1, 7, 1, 5): (11, 11),
        (1, 3, 2, 7): (13, 13),
        (2, 3, 1, 5): (32, None),
        (2, 3, 1, 7): (34, None),
    }
    ok = True
    details = []
    for (n, p, f, ell), (n_ibr, n_blocks) in expected.items():
        ctx = make_context(p, f, ell)
        blocks = ls.enumerate_blocks(ctx, n)
        total = sum(len(ls.enumerate_ibr(ctx, b)) for b in blocks)
        ok = ok and total == n_ibr
        if n_blocks is not None:
            ok = ok and len(blocks) == n_blocks
        details.append(f"(n={n},q={ctx.q},ell={ell}): ibr={total}, blocks={len(blocks)}")
    _report("external anchors: label counts match classical class counts",
            ok, "; ".join(details))
