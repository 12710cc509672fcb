import random

import pytest

from spbaw import symbcomb as sc
from spbaw.symbcomb import HOOK, COHOOK, LSymbol


def random_symbol(rng, max_entry=9, max_len=4):
    def row():
        k = rng.randrange(max_len + 1)
        return tuple(rng.sample(range(max_entry + 1), k))
    return LSymbol(row(), row())


def brute_core(sym, e, mode):
    """Order-independence oracle: follow random legal single-bead moves."""
    rng = random.Random(hash(sym.rows) & 0xFFFF)
    rows = [set(sym.rows[0]), set(sym.rows[1])]
    moves = 0
    while True:
        legal = []
        for i in (0, 1):
            tgt = rows[i] if mode == HOOK else rows[1 - i]
            for x in rows[i]:
                if x - e >= 0 and (x - e) not in tgt:
                    legal.append((i, x))
        if not legal:
            break
        i, x = rng.choice(legal)
        rows[i].remove(x)
        (rows[i] if mode == HOOK else rows[1 - i]).add(x - e)
        moves += 1
    return LSymbol(tuple(rows[0]), tuple(rows[1])), moves


def test_rank_defect_examples():
    s = LSymbol((1,), ())
    assert sc.rank(s) == 1 and sc.defect(s) == 1 and not sc.is_degenerate(s)
    s = LSymbol((0,), (0,))
    assert sc.rank(s) == 0 and sc.defect(s) == 0 and sc.is_degenerate(s)
    # [{0,2},{0}] is the once-shifted form of [{1},{}]
    s = LSymbol((2, 0), (0,))
    assert s == LSymbol((1,), ())
    assert sc.rank(s) == 1 and sc.defect(s) == 1


def test_empty_symbol_is_degenerate():
    assert sc.is_degenerate(LSymbol())
    assert LSymbol((0,), (0,)) == LSymbol()


def test_shift_invariance():
    rng = random.Random(11)
    for _ in range(1000):
        s = random_symbol(rng)
        t = rng.randint(1, 5)
        shifted = LSymbol(*sc.shift_rows(s.rows, t))
        assert shifted == s
        assert sc.rank(shifted) == sc.rank(s)
        assert sc.defect(shifted) == sc.defect(s)
        assert sc.is_degenerate(shifted) == sc.is_degenerate(s)


def test_enumerate_symbols_counts():
    odd = lambda d: d % 2 == 1
    r1 = sc.enumerate_symbols(1, odd)
    assert len(r1) == 2
    r2 = sc.enumerate_symbols(2, odd)
    assert len(r2) == 6
    assert LSymbol((2, 1, 0), ()) in r2
    assert len([s for s in r2 if sc.defect(s) == 1]) == 5
    r0 = sc.enumerate_symbols(0, lambda d: d == 0)
    assert r0 == [LSymbol()]


def test_enumerate_symbols_matches_bipartition_count():
    # defect-1 symbols of rank n biject with bipartitions of n
    from spbaw.partcomb import enumerate_tuples
    for n in range(6):
        syms = sc.enumerate_symbols(n, lambda d: d == 1)
        assert len(syms) == len(enumerate_tuples(2, n))


def test_core_no_further_moves_and_rank_drop():
    rng = random.Random(12)
    for mode in (HOOK, COHOOK):
        for _ in range(500):
            s = random_symbol(rng)
            e = rng.randint(1, 4)
            core, pair = sc.sym_core_quotient(s, e, mode)
            w = sc.quotient_size(pair)
            assert sc.rank(s) == sc.rank(core) + e * w
            bcore, bmoves = brute_core(s, e, mode)
            assert bcore == core, f"{mode} core mismatch for {s}, e={e}"
            assert bmoves == w
            ccore, cpair = sc.sym_core_quotient(core, e, mode)
            assert ccore == core and sc.quotient_size(cpair) == 0


def test_defect_behaviour_by_mode():
    rng = random.Random(13)
    for _ in range(500):
        s = random_symbol(rng)
        e = rng.randint(1, 4)
        hcore, _ = sc.sym_core_quotient(s, e, HOOK)
        assert sc.defect(hcore) == sc.defect(s)
        ccore, cpair = sc.sym_core_quotient(s, e, COHOOK)
        assert sc.defect(ccore) % 2 == sc.defect(s) % 2
        if sc.defect(s) % 2 == 0:
            w = sc.quotient_size(cpair)
            assert (sc.defect(ccore) + 2 * w - sc.defect(s)) % 4 == 0


def test_round_trip_containment():
    rng = random.Random(14)
    for mode in (HOOK, COHOOK):
        for _ in range(500):
            s = random_symbol(rng, max_entry=7, max_len=3)
            e = rng.randint(1, 3)
            core, pair = sc.sym_core_quotient(s, e, mode)
            cands = sc.from_core_quotient_sym(core, pair, e, mode)
            assert s in cands
            for c in cands:
                assert sc.sym_core_quotient(c, e, mode) == (core, pair)


def test_reconstruction_matches_brute_force_grouping():
    """Grouping every symbol of rank <= 5 by (core, quotient pair) gives
    exactly the symbols that from_core_quotient_sym builds."""
    symbols = [s for r in range(6) for s in sc.enumerate_symbols(r)]
    for e in (1, 2, 3):
        for mode in (HOOK, COHOOK):
            groups = {}
            for s in symbols:
                groups.setdefault(sc.sym_core_quotient(s, e, mode), set()).add(s)
            for (core, pair), syms in groups.items():
                got = sc.from_core_quotient_sym(core, pair, e, mode)
                assert set(got) == syms, (e, mode, core, pair)


def test_star_plain_inverts_orientation():
    rng = random.Random(17)
    for mode in (HOOK, COHOOK):
        for _ in range(500):
            s = random_symbol(rng, max_entry=8, max_len=4)
            e = rng.randint(1, 4)
            core, pair = sc.sym_core_quotient(s, e, mode)
            assert sc.star_plain(core, pair, sc.orientation_of(s, e, mode),
                                 e, mode) == s
            s0, s1 = (sc.star_plain(core, pair, o, e, mode) for o in (0, 1))
            if sc.is_degenerate(core):
                assert s0 == s1
            else:
                assert (s0 != s1) == (not sc.is_pair_degenerate(pair))


def test_from_core_quotient_counts():
    # empty core, all-empty quotient -> the empty symbol
    empty_pair = (((), ()), ((), ()))
    out = sc.from_core_quotient_sym(LSymbol(), empty_pair, 2, COHOOK)
    assert out == (LSymbol(),)
    # degenerate quotient over any core -> singleton
    core = LSymbol((1,), ())
    pair = (((1,), ()), ((1,), ()))
    for mode in (HOOK, COHOOK):
        assert len(sc.from_core_quotient_sym(core, pair, 2, mode)) == 1
    # non-degenerate core and quotient -> exactly two
    pair = (((), ()), ((1,), ()))
    for mode in (HOOK, COHOOK):
        assert len(sc.from_core_quotient_sym(core, pair, 2, mode)) == 2


def test_cocore_structure_of_rank_two_odd_defect():
    """Worked example: e = 2 cohooks on rank-2 odd-defect symbols."""
    kappa = LSymbol((0,), ())
    syms = sc.enumerate_symbols(2, lambda d: d % 2 == 1)
    with_core = [s for s in syms
                 if sc.sym_core_quotient(s, 2, COHOOK)[0] == kappa]
    assert sorted(with_core) == sorted([
        LSymbol((2,), ()), LSymbol((2, 0), (1,)),
        LSymbol((2, 1, 0), (2, 1)), LSymbol((2, 1, 0), ()),
    ])
    # they split two against two over the unordered quotient pairs
    pairs = {}
    for s in with_core:
        pairs.setdefault(sc.sym_core_quotient(s, 2, COHOOK)[1], []).append(s)
    assert sorted(len(v) for v in pairs.values()) == [2, 2]
    # hook mode keeps defect 1 and excludes the defect-3 symbol
    hook_set = sc.symbols_with_core(kappa, 1, 2, HOOK)
    assert LSymbol((2, 1, 0), ()) not in hook_set
    assert len(hook_set) == 4


def test_symbols_with_core_count_matches_ordered_tuples():
    from spbaw.partcomb import enumerate_tuples
    rng = random.Random(15)
    cores = [LSymbol((0,), ()), LSymbol((1,), ()), LSymbol((1,), (0,)),
             LSymbol((1, 0), ()), LSymbol(), LSymbol((1,), (1,))]
    for core in cores:
        for e in (1, 2):
            for mode in (HOOK, COHOOK):
                if sc.sym_core_quotient(core, e, mode)[0] != core:
                    continue
                for w in (0, 1, 2):
                    got = sc.symbols_with_core(core, w, e, mode)
                    n_ord = len(enumerate_tuples(2 * e, w))
                    n_deg = sum(1 for s in got if sc.is_degenerate(s))
                    # degenerate symbols stand for a collapsed pair, ordered
                    # tuples count non-degenerate ones twice
                    if sc.is_degenerate(core):
                        assert 2 * len(got) - n_deg == n_ord
                    else:
                        assert len(got) == n_ord


def test_star_plain_and_oriented():
    core = LSymbol((1,), ())
    pair = (((), ()), ((1,), ()))
    s0 = sc.star_plain(core, pair, 0, 2, COHOOK)
    s1 = sc.star_plain(core, pair, 1, 2, COHOOK)
    assert s0 != s1
    assert {s0, s1} == set(sc.from_core_quotient_sym(core, pair, 2, COHOOK))
    deg_pair = (((1,), ()), ((1,), ()))
    assert sc.star_plain(core, deg_pair, 0, 2, COHOOK) == \
        sc.star_plain(core, deg_pair, 1, 2, COHOOK)


def test_star_oriented_depends_on_sum():
    core = LSymbol((1,), (0,))
    assert not sc.is_degenerate(core) and sc.defect(core) % 2 == 0
    pair = (((), ()), ((1,), ()))
    for mode in (HOOK, COHOOK):
        if sc.sym_core_quotient(core, 2, mode)[0] != core:
            continue
        a = sc.star_oriented(core, 0, pair, 1, 2, mode)
        b = sc.star_oriented(core, 1, pair, 0, 2, mode)
        c = sc.star_oriented(core, 0, pair, 0, 2, mode)
        assert a == b and a != c
    with pytest.raises(AssertionError):
        sc.star_oriented(LSymbol((1,), (1,)), 0, pair, 0, 2, HOOK)


def test_removal_order_independence():
    rng = random.Random(16)
    for mode in (HOOK, COHOOK):
        for _ in range(300):
            s = random_symbol(rng)
            e = rng.randint(1, 3)
            results = {brute_core(s, e, mode) for _ in range(4)}
            assert len(results) == 1


def test_even_defect_mod_four_is_unordered_invariant():
    for d in range(0, 9, 2):
        assert (d - (-d)) % 4 == 0


@pytest.mark.parametrize("mode", [HOOK, COHOOK])
def test_memoized_kernels_equal_their_uncached_bodies(mode):
    for e in (1, 2, 3):
        for n in range(5):
            for sym in sc.enumerate_symbols(n):
                got = sc._extract(sym, e, mode)
                assert got == sc._extract.__wrapped__(sym, e, mode)
                assert sc._extract(sym, e, mode) is got
                core, A, B = got
                built = sc._attach(core, A, B, e, mode)
                assert built == sc._attach.__wrapped__(core, A, B, e, mode) == sym


def test_attach_rejects_a_non_core_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError):
            sc._attach(LSymbol((1,), ()), ((),), ((),), 1, HOOK)
