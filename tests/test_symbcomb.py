import random
import subprocess
import sys

import pytest

from spbaw import symbcomb as sc
from spbaw.symbcomb import HOOK, COHOOK, LSymbol
import testonly


def random_symbol(rng, max_entry=9, max_len=4):
    def row():
        k = rng.randrange(max_len + 1)
        return tuple(rng.sample(range(max_entry + 1), k))
    return LSymbol(row(), row())


def brute_core(sym, e, mode):
    """Order-independence oracle: follow random legal single-bead moves."""
    rng = random.Random(hash(tuple(sym)) & 0xFFFF)
    rows = [set(sym[0]), set(sym[1])]
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
    assert sc.rank(s) == 1 and testonly.defect(s) == 1 and not sc.is_degenerate(s)
    s = LSymbol((0,), (0,))
    assert sc.rank(s) == 0 and testonly.defect(s) == 0 and sc.is_degenerate(s)
    # [{0,2},{0}] is the once-shifted form of [{1},{}]
    s = LSymbol((2, 0), (0,))
    assert s == LSymbol((1,), ())
    assert sc.rank(s) == 1 and testonly.defect(s) == 1


def test_empty_symbol_is_degenerate():
    assert sc.is_degenerate(LSymbol())
    assert LSymbol((0,), (0,)) == LSymbol()


def test_shift_invariance():
    rng = random.Random(11)
    for _ in range(1000):
        s = random_symbol(rng)
        t = rng.randint(1, 5)
        shifted = LSymbol(*sc.shift_rows(s, t))
        assert shifted == s
        assert sc.rank(shifted) == sc.rank(s)
        assert testonly.defect(shifted) == testonly.defect(s)
        assert sc.is_degenerate(shifted) == sc.is_degenerate(s)


def test_enumerate_symbols_counts():
    odd = lambda d: d % 2 == 1
    r1 = sc.enumerate_symbols(1, odd)
    assert len(r1) == 2
    r2 = sc.enumerate_symbols(2, odd)
    assert len(r2) == 6
    assert LSymbol((2, 1, 0), ()) in r2
    assert len([s for s in r2 if testonly.defect(s) == 1]) == 5
    r0 = sc.enumerate_symbols(0, lambda d: d == 0)
    assert r0 == [LSymbol()]


def test_enumerate_symbols_matches_bipartition_count():
    # defect-1 symbols of rank n biject with bipartitions of n
    from spbaw.partcomb import enumerate_tuples
    for n in range(6):
        syms = sc.enumerate_symbols(n, lambda d: d == 1)
        assert len(syms) == len(enumerate_tuples(2, n))


# A reference enumerator that does not use bipartitions: a search over the
# row shapes (a, b) and the strictly decreasing rows of each shape.

def shape_search_symbols(rank_n, defect_pred=None):
    assert rank_n >= 0
    out = []
    d = 0
    while True:
        if _min_rank(d, 0) > rank_n:
            break
        if defect_pred is None or defect_pred(d):
            b = 0
            while _min_rank(b + d, b) <= rank_n:
                out.extend(_symbols_with_shape(rank_n, b + d, b))
                b += 1
        d += 1
    return sorted(out)


def _min_rank(a, b):
    if a == 0 and b == 0:
        return 0
    base = a * (a - 1) // 2 + b * (b - 1) // 2
    if a and b:
        base += min(a, b)  # only one row may contain 0
    return base - (a + b - 1) ** 2 // 4


def _subsets_with_sum(count, total, allow_zero, cap):
    """Strictly decreasing tuples of `count` naturals with the given sum."""
    if count == 0:
        return [()] if total == 0 else []
    out = []

    def rec(k, rest, maxval, prefix):
        if k == 0:
            if rest == 0:
                out.append(tuple(prefix))
            return
        lo = 0 if allow_zero else 1
        floor_needed = (k - 1) * lo + (k - 1) * (k - 2) // 2
        for v in range(min(maxval, rest - floor_needed), lo + k - 2, -1):
            prefix.append(v)
            rec(k - 1, rest - v, v - 1, prefix)
            prefix.pop()

    rec(count, total, cap, [])
    return out


def _symbols_with_shape(rank_n, a, b):
    target = rank_n + (a + b - 1) ** 2 // 4
    seen = set()
    for sx in range(target + 1):
        for X in _subsets_with_sum(a, sx, True, sx):
            allow_zero_y = 0 not in X
            for Y in _subsets_with_sum(b, target - sx, allow_zero_y, target - sx):
                sym = LSymbol(X, Y)
                assert tuple(sym) == tuple(sorted((X, Y))), "shape enumeration must be reduced"
                seen.add(sym)
    return sorted(seen)


@pytest.mark.parametrize("pred", [None, lambda d: d % 2 == 1,
                                  lambda d: d % 4 == 0, lambda d: d % 4 == 2],
                         ids=["all", "odd", "mod4_0", "mod4_2"])
def test_enumerate_symbols_matches_shape_search(pred):
    for n in range(7):
        assert sc.enumerate_symbols(n, pred) == shape_search_symbols(n, pred)


def test_core_no_further_moves_and_rank_drop():
    rng = random.Random(12)
    for mode in (HOOK, COHOOK):
        for _ in range(500):
            s = random_symbol(rng)
            e = rng.randint(1, 4)
            core, pair = sc.sym_core_quotient(s, e, mode)
            w = testonly.quotient_size(pair)
            assert sc.rank(s) == sc.rank(core) + e * w
            bcore, bmoves = brute_core(s, e, mode)
            assert bcore == core, f"{mode} core mismatch for {s}, e={e}"
            assert bmoves == w
            ccore, cpair = sc.sym_core_quotient(core, e, mode)
            assert ccore == core and testonly.quotient_size(cpair) == 0


def test_defect_behaviour_by_mode():
    rng = random.Random(13)
    for _ in range(500):
        s = random_symbol(rng)
        e = rng.randint(1, 4)
        hcore, _ = sc.sym_core_quotient(s, e, HOOK)
        assert testonly.defect(hcore) == testonly.defect(s)
        ccore, cpair = sc.sym_core_quotient(s, e, COHOOK)
        assert testonly.defect(ccore) % 2 == testonly.defect(s) % 2
        if testonly.defect(s) % 2 == 0:
            w = testonly.quotient_size(cpair)
            assert (testonly.defect(ccore) + 2 * w - testonly.defect(s)) % 4 == 0


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
            assert sc.star_plain(core, pair, testonly.orientation_of(s, e, mode),
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
    hook_set = testonly.symbols_with_core(kappa, 1, 2, HOOK)
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
                    got = testonly.symbols_with_core(core, w, e, mode)
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


def test_reduce_rows_matches_one_unshift_at_a_time():
    def stepwise(a, b):
        a, b, u = list(a), list(b), 0
        while a and b and a[-1] == 0 and b[-1] == 0:
            a, b, u = [x - 1 for x in a[:-1]], [x - 1 for x in b[:-1]], u + 1
        return (tuple(a), tuple(b)), u

    rng = random.Random(5)
    for _ in range(2000):
        a, b = (tuple(sorted(rng.sample(range(8), rng.randrange(7)), reverse=True))
                for _ in range(2))
        assert sc._reduce_rows(a, b) == stepwise(a, b)
    assert sc._reduce_rows((5, 2, 1, 0), (3, 1, 0)) == (((3, 0), (1,)), 2)


@pytest.mark.parametrize("mode", [HOOK, COHOOK])
def test_attach_of_empty_quotients_at_large_e_adds_no_bead(monkeypatch, mode):
    # every entry empty, as in a defect-zero block: the core is the symbol,
    # and no round of 2e beads is added to it on the way
    e, core = 1009, LSymbol((4, 2, 0), (3, 1))
    empty, beads, abacus = ((),) * e, [], sc.abacus

    def counted(rows, *args, **kwargs):
        beads.append(sum(map(len, rows)))
        return abacus(rows, *args, **kwargs)
    monkeypatch.setattr(sc, "abacus", counted)
    assert sc._attach.__wrapped__(core, empty, empty, e, mode) == core
    assert beads and max(beads) == len(core[0]) + len(core[1])


def test_extraction_of_a_small_symbol_at_large_e():
    # only the tracks that hold beads are converted; the rest are empty
    e = 50003
    sym = LSymbol((2, 0), (1,))
    for mode in (HOOK, COHOOK):
        core, A, B = sc._extract(sym, e, mode)
        assert core == sym and len(A) == len(B) == e
        assert set(A) == set(B) == {()}


@pytest.mark.parametrize("rows,message",
                         [(((1, 1), ()), "must have distinct entries"),
                          (((2,), (0, -1)), "must have no negative entry")],
                         ids=["repeated", "negative"])
def test_malformed_symbol_is_refused_under_python_O(rows, message):
    script = f"""
import sys
if __debug__:
    sys.exit(3)
from spbaw.symbcomb import LSymbol
try:
    print(LSymbol(*{rows!r}))
except ValueError as exc:
    print(exc)
"""
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert message in proc.stdout, proc.stdout
