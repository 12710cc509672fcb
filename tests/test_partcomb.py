import random
import subprocess
import sys
from itertools import product

import pytest

from spbaw import partcomb as pc
import testonly


def random_partition(rng, max_size=18):
    n = rng.randrange(max_size + 1)
    parts = []
    while n > 0:
        a = rng.randint(1, n)
        parts.append(a)
        n -= a
    return tuple(sorted(parts, reverse=True))


def hook_lengths(p):
    conj = [sum(1 for a in p if a > j) for j in range(p[0])] if p else []
    return [p[i] - (j + 1) + conj[j] - i for i in range(len(p)) for j in range(p[i])]


def test_beta_set_examples():
    assert pc.beta_set((2, 1), 2) == (3, 1)
    assert pc.beta_set((), 3) == (2, 1, 0)
    with pytest.raises(ValueError):
        pc.beta_set((2, 1), 1)


def test_beta_round_trip():
    rng = random.Random(1)
    for _ in range(200):
        p = random_partition(rng)
        k = len(p) + rng.randrange(4)
        assert pc.partition_of_beta(pc.beta_set(p, k)) == p


def test_core_quotient_examples():
    assert set(hook_lengths((2, 1))) == {1, 3}
    assert pc.e_core_quotient((2, 1), 2) == ((2, 1), ((), ()))
    assert pc.e_core_quotient((), 3) == ((), ((), (), ()))
    core, quot = pc.e_core_quotient((2,), 2)
    assert core == () and sum(sum(q) for q in quot) == 1


def test_core_has_no_e_hook():
    rng = random.Random(2)
    for _ in range(300):
        p = random_partition(rng)
        e = rng.randint(1, 5)
        core, quot = pc.e_core_quotient(p, e)
        assert pc.is_e_core(core, e)
        # hook-length oracle: a partition has an e-hook iff e appears among
        # multiples <= some hook length; exact statement: no hook length
        # divisible-by-e ... the abacus criterion is the definition, use the
        # classical equivalent: core iff no hook length equals e mod nothing.
        assert not any(h == e for h in hook_lengths(core))
        assert sum(p) == sum(core) + e * sum(sum(q) for q in quot)


def test_beta_shift_invariance_of_core_quotient():
    # computing from beta-sets of length L and L+e agrees; our normalization
    # guarantees this, cross-check by direct recomputation on padded parts
    rng = random.Random(3)
    for _ in range(200):
        p = random_partition(rng)
        e = rng.randint(1, 5)
        core, quot = pc.e_core_quotient(p, e)
        length = -(-max(len(p), 1) // e) * e + e
        beta = pc.beta_set(p, length)
        runners = [[] for _ in range(e)]
        for x in beta:
            runners[x % e].append(x // e)
        quot2 = tuple(pc.partition_of_beta(tuple(sorted(h, reverse=True)))
                      for h in runners)
        assert quot2 == quot


def test_from_core_quotient_round_trip():
    rng = random.Random(4)
    for _ in range(1000):
        p = random_partition(rng)
        e = rng.randint(1, 5)
        core, quot = pc.e_core_quotient(p, e)
        assert pc.from_core_quotient(core, quot) == p
    assert pc.from_core_quotient((), ((), (), ())) == ()
    assert pc.from_core_quotient(*pc.e_core_quotient((2,), 2)) == (2,)


def _core_quotient_on_whole_rows(p, e):
    """The e-core and e-quotient from a beta-set whose length is a positive
    multiple of e, where quotient slot r is runner r and every runner
    holds beads."""
    length = -(-max(len(p), 1) // e) * e
    runners = [[] for _ in range(e)]
    for x in pc.beta_set(p, length):
        runners[x % e].append(x // e)
    quotient = tuple(pc.partition_of_beta(tuple(h)) for h in runners)
    core = pc.partition_of_beta([e * j + r for r in range(e) for j in range(len(runners[r]))])
    return core, quotient


def test_core_and_quotient_follow_the_beads():
    # the runners that hold beads of the beta-set of length len(p) give the
    # same core and quotient as every runner of a length a multiple of e
    for m in range(11):
        for p in pc.enumerate_partitions(m):
            for e in range(1, 7):
                want = _core_quotient_on_whole_rows(p, e)
                assert pc.e_core_quotient.__wrapped__(p, e) == want
                assert pc.from_core_quotient.__wrapped__(*want) == p
    e = 10 ** 5
    assert pc.e_core_quotient((2, 1), e + 3) == ((2, 1), ((),) * (e + 3))
    assert pc.from_core_quotient((2, 1), ((),) * (e + 3)) == (2, 1)
    want = _core_quotient_on_whole_rows((e,), e)
    assert want == ((), ((),) * (e - 1) + ((1,),))
    assert pc.e_core_quotient((e,), e) == want
    assert pc.from_core_quotient(*want) == (e,)


def test_from_core_quotient_rejects_non_core():
    with pytest.raises(ValueError):
        pc.from_core_quotient((2,), ((), (1,)))


def test_counting_identity():
    # partitions of m with e-core kappa <-> e-tuples of total (m-|kappa|)/e
    for m in range(13):
        for e in range(1, 5):
            parts = pc.enumerate_partitions(m)
            by_core = {}
            for p in parts:
                by_core.setdefault(pc.e_core(p, e), []).append(p)
            for kappa, group in by_core.items():
                w = (m - sum(kappa)) // e
                assert (m - sum(kappa)) % e == 0
                assert len(group) == len(pc.enumerate_tuples(e, w))


def test_enumerate_partitions_counts():
    assert len(pc.enumerate_partitions(4)) == 5
    assert [len(pc.enumerate_partitions(m)) for m in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert pc.enumerate_partitions(0) == [()]


def test_enumerate_tuples():
    assert len(pc.enumerate_tuples(2, 2)) == 5
    assert pc.enumerate_tuples(3, 0) == [((), (), ())]
    # a fresh list per call: the memoized tables live in labelspace
    pc.enumerate_tuples(3, 0).append(None)
    assert pc.enumerate_tuples(3, 0) == [((), (), ())]
    assert len(pc.enumerate_tuples(0, 0)) == 1
    assert pc.enumerate_tuples(0, 1) == []


def test_enumerate_e_cores():
    cores = testonly.enumerate_e_cores(2, 6)
    assert cores == [(), (1,), (2, 1), (3, 2, 1)]


def test_core_tower_examples():
    assert testonly.core_tower((), 3) == ()
    assert testonly.core_tower((1,), 3) == (((1,),),)
    rng = random.Random(5)
    for _ in range(1000):
        p = random_partition(rng)
        ell = rng.choice([2, 3, 5])
        tw = testonly.core_tower(p, ell)
        assert testonly.tower_weighted_size(tw, ell) == sum(p)
        assert pc.tower_to_partition(tw, ell) == p


def test_tower_round_trip_other_direction():
    for ell in (2, 3):
        for v in range(6):
            for tw in pc.enumerate_core_towers(ell, v):
                p = pc.tower_to_partition(tw, ell)
                assert testonly.core_tower(p, ell) == tw
                assert sum(p) == v



# Under python -O a tower whose level d lacks ell^d entries would be read
# as some other tower; both checks raise, not assert.
@pytest.mark.parametrize("tower,message",
                         [((((),), ((1,),)), "malformed tower level 1"),
                          ((((),), ((3,), (), ())), "must be 3-cores")],
                         ids=["level_width", "not_a_core"])
def test_malformed_tower_is_refused_under_python_O(tower, message):
    script = f"""
import sys
if __debug__:
    sys.exit(3)
from spbaw.partcomb import tower_to_partition
try:
    print(tower_to_partition({tower!r}, 3))
except ValueError as exc:
    print(exc)
"""
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert message in proc.stdout, proc.stdout

def test_enumerate_core_towers_counts_match_partitions():
    # towers of weighted size v biject with partitions of v
    for ell in (2, 3, 5):
        for v in range(7):
            assert len(pc.enumerate_core_towers(ell, v)) == len(pc.enumerate_partitions(v))


def test_memoized_kernels_equal_their_uncached_bodies():
    for m in range(9):
        for p in pc.enumerate_partitions(m):
            for e in (1, 2, 3, 5):
                got = pc.e_core_quotient(p, e)
                assert got == pc.e_core_quotient.__wrapped__(p, e)
                assert pc.e_core_quotient(p, e) is got
                assert (pc.from_core_quotient(*got)
                        == pc.from_core_quotient.__wrapped__(*got) == p)
    for _ in range(2):
        with pytest.raises(ValueError):
            pc.from_core_quotient((2,), ((), (1,)))


def test_abacus_lists_only_the_tracks_that_hold_beads():
    assert pc.abacus(((5, 2, 0),), 3) == {(2, 0): (1, 0), (0, 0): (0,)}
    # zigzag: bead x of row i is on side (x // e + i) % 2
    assert pc.abacus(((3,), (1,)), 2, zigzag=True) == {(1, 1): (1, 0)}
    assert pc.abacus(((7, 0), ()), 10 ** 6) == {(7, 0): (0,), (0, 0): (0,)}


def test_weighted_tuples_take_no_frame_per_slot():
    # one slot per frame would exceed the default recursion limit here
    tuples = pc.enumerate_tuples(1500, 1)
    assert tuples == [((),) * i + ((1,),) + ((),) * (1499 - i) for i in range(1500)]
    assert pc.enumerate_tuples(20000, 0) == [((),) * 20000]
    assert pc.enumerate_tuples(0, 0) == [()] and pc.enumerate_tuples(0, 2) == []


def test_weighted_tuples_order():
    # slot weights run from w down to 0, and each slot takes its items in
    # the order items_of gives them
    items = {0: ["y", "z"], 1: ["a", "b"], 2: ["c"], 3: []}
    choices = [(s, i) for s in items for i in range(len(items[s]))]
    for k in range(4):
        for w in range(4):
            chosen = sorted((c for c in product(choices, repeat=k)
                             if sum(s for s, _ in c) == w),
                            key=lambda c: [(-s, i) for s, i in c])
            assert pc.weighted_tuples(k, w, items.__getitem__) == [
                tuple(items[s][i] for s, i in c) for c in chosen]
