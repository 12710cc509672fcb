"""Lusztig-symbol combinatorics.

A symbol is an unordered pair [X, Y] of beta-sets up to simultaneous
shift; the normal form is fully shift-reduced (0 is never in both rows)
with the two rows stored in sorted order.  rank, defect and degeneracy
are computed on the normal form.

Hooks and cohooks both become single-runner abacus moves after the right
track decomposition: a bead x sits at height h = x // e on runner
r = x % e of row i, and

  hook   moves stay on the track (r, i): x -> x - e in the same row;
  cohook moves stay on the track (r, (h + i) mod 2): x -> x - e in the
         OTHER row, which is one height step down the same zigzag chain.

The core packs every track to the bottom; the quotient records one
partition per track.  The abacus (partcomb.abacus) lists only the tracks
that hold beads, and an empty track is the empty partition, so extraction
converts as many tracks as the symbol has beads, whatever e; the shift
reduction reads the common run 0..u-1 at the tails of both rows in one
pass.

Track labels are only canonical relative to the core's reduced frame:
un-shifting by one bead rotates the runner index and (for cohooks, when
the runner wraps) flips the chain, so extraction pulls the labels back by
the observed shift before assembling the quotient pair [A; B] of
e-tuples, A on chain 0; star_plain's orientation 0 attaches the
canonically smaller tuple to chain 0.

Reconstruction inverts extraction directly.  Shifting the core by a
multiple of 2e beads moves every runner round an even number of times, so
the frame's track labels are the absolute ones: A[r] goes on track (r, 0),
B[r] on track (r, 1), and the one symbol this builds is re-extracted as a
check.  Extraction and reconstruction are memoized: label sets are
products of components, so the same symbol recurs in many labels.
"""

from functools import lru_cache

from .partcomb import abacus, beta_set, enumerate_tuples, partition_of_beta

HOOK = "hook"
COHOOK = "cohook"


def _reduce_rows(row_a, row_b):
    """Shift-reduce decreasing rows in one pass: the unshift count u is the
    length of the run 0, 1, ..., u - 1 that ends both rows; returns
    (rows, u)."""
    u = 0
    while u < min(len(row_a), len(row_b)) and row_a[-1 - u] == u == row_b[-1 - u]:
        u += 1
    return tuple(tuple(x - u for x in row[:len(row) - u]) for row in (row_a, row_b)), u


class LSymbol(tuple):
    """An unordered pair of beta-sets modulo simultaneous shift: the tuple
    of its two normal-form rows, in sorted order, so that equality, hashing
    and order are the tuple's."""

    __slots__ = ()

    def __new__(cls, row_a=(), row_b=()):
        a = tuple(sorted(row_a, reverse=True))
        b = tuple(sorted(row_b, reverse=True))
        assert len(set(a)) == len(a) and len(set(b)) == len(b), "rows must have distinct entries"
        assert all(x >= 0 for x in a + b)
        (a, b), _ = _reduce_rows(a, b)
        return tuple.__new__(cls, sorted((a, b)))

    @property
    def rows(self):
        return tuple(self)

    def __repr__(self):
        return f"LSymbol({list(self[0])}, {list(self[1])})"


def rank(sym):
    a, b = sym
    n = len(a) + len(b)
    return sum(a) + sum(b) - (n - 1) ** 2 // 4 if n else 0


def defect(sym):
    a, b = sym
    return abs(len(a) - len(b))


def is_degenerate(sym):
    """Equal rows; by convention the empty symbol counts as degenerate."""
    return sym[0] == sym[1]


def shift_rows(rows, t):
    """The representative [X^{+t}, Y^{+t}] of the symbol's shift class."""
    return tuple(tuple(sorted([x + t for x in row] + list(range(t)), reverse=True))
                 for row in rows)


def _untracks(tr, e, mode):
    rows = ([], [])
    for (r, side), heights in tr.items():
        for h in heights:
            i = side if mode == HOOK else (side + h) % 2
            rows[i].append(e * h + r)
    return (tuple(sorted(rows[0], reverse=True)),
            tuple(sorted(rows[1], reverse=True)))


def _pullback(r, side, u, e, mode):
    """Track label after u un-shifts of the frame."""
    wraps = (u - r + e - 1) // e if u > r else 0
    r_abs = (r - u) % e
    s_abs = side ^ (wraps & 1) if mode == COHOOK else side
    return r_abs, s_abs


@lru_cache(maxsize=None)
def _extract(sym, e, mode):
    """(core, A, B): quotient tuples in absolute chain order (A = chain 0)."""
    tr = abacus(sym, e, zigzag=mode == COHOOK)
    quot = {k: partition_of_beta(v) for k, v in tr.items()}
    packed = {k: tuple(range(len(v) - 1, -1, -1)) for k, v in tr.items()}
    core_raw = _untracks(packed, e, mode)
    (c0, c1), u = _reduce_rows(*core_raw)
    swap = (c1, c0) < (c0, c1)
    core = LSymbol(c0, c1)
    A, B = [()] * e, [()] * e
    for (r, side), p in quot.items():
        r_abs, s_abs = _pullback(r, side, u, e, mode)
        s_abs ^= int(swap)
        if s_abs == 0:
            A[r_abs] = p
        else:
            B[r_abs] = p
    return core, tuple(A), tuple(B)


def sym_core_quotient(sym, e, mode):
    """The e-core and unordered e-quotient pair of the symbol."""
    assert mode in (HOOK, COHOOK)
    core, A, B = _extract(sym, e, mode)
    return core, tuple(sorted((A, B)))


def quotient_size(pair):
    return sum(sum(p) for tup in pair for p in tup)


def is_pair_degenerate(pair):
    return pair[0] == pair[1]


@lru_cache(maxsize=None)
def _attach(core, first, second, e, mode):
    """The symbol with e-core `core`, chain 0 carrying `first` and chain 1
    carrying `second`; re-extracted before it is returned."""
    assert mode in (HOOK, COHOOK)
    needed = max(map(len, first + second), default=0)
    tr = abacus(shift_rows(core, 2 * e * (needed + 1)), e, zigzag=mode == COHOOK)
    quot = {(r, side): p for side, tup in enumerate((first, second))
            for r, p in enumerate(tup)}
    new = {key: beta_set(quot.get(key, ()), len(heights))
           for key, heights in tr.items()}
    sym = LSymbol(*_untracks(new, e, mode))
    got = _extract(sym, e, mode)
    if got != (core, first, second) and not (
            is_degenerate(core) and got == (core, second, first)):
        raise ValueError(f"{core} * [{first}; {second}] re-extracts as {got}: "
                         f"not an {e}-core with {e}-tuples in {mode} mode")
    return sym


def from_core_quotient_sym(core, pair, e, mode):
    """All symbols with the given e-core and unordered quotient pair:
    exactly two when both the core and the pair are non-degenerate,
    otherwise one."""
    A, B = pair
    out = tuple(sorted({_attach(core, A, B, e, mode), _attach(core, B, A, e, mode)}))
    expect = 1 if (is_degenerate(core) or is_pair_degenerate(pair)) else 2
    if len(out) != expect:
        raise AssertionError(
            f"(core, quotient) -> symbols yielded {len(out)}, expected {expect}")
    return out


def orientation_of(sym, e, mode):
    """0 if the chain-0 tuple is the canonically smaller one, else 1."""
    _, A, B = _extract(sym, e, mode)
    return 0 if (A, B) == tuple(sorted((A, B))) else 1


def star_plain(core, pair, orient, e, mode):
    """The reconstruction kappa * (Q, orient): orientation 0 puts the
    canonically smaller tuple on chain 0.  orient-independent when the core
    or the quotient is degenerate."""
    A, B = sorted(pair)
    if orient % 2:
        A, B = B, A
    return _attach(core, A, B, e, mode)


def enumerate_quotient_pairs(e, w):
    """All unordered pairs [A; B] of e-tuples of partitions, |A|+|B| = w."""
    out = set()
    for wa in range(w + 1):
        for A in enumerate_tuples(e, wa):
            for B in enumerate_tuples(e, w - wa):
                out.add(tuple(sorted((A, B))))
    return sorted(out)


def symbols_with_core(core, w, e, mode):
    """All symbols with the given e-core and quotient of total size w."""
    out = []
    for pair in enumerate_quotient_pairs(e, w):
        out.extend(from_core_quotient_sym(core, pair, e, mode))
    return sorted(out)


def enumerate_symbols(rank_n, defect_pred=None):
    """Every normal-form symbol of the given rank whose defect satisfies
    the predicate; degenerate symbols appear once.  The symbols of rank n
    and defect d are in bijection with the bipartitions (alpha, beta) of
    n - d^2 // 4: alpha on the longer row, beta on the shorter (Lusztig).
    At d = 0 the swapped pair gives the same symbol."""
    assert rank_n >= 0
    out = set()
    d = 0
    while d * d // 4 <= rank_n:
        if defect_pred is None or defect_pred(d):
            for alpha, beta in enumerate_tuples(2, rank_n - d * d // 4):
                m = max(len(alpha) - d, len(beta))
                out.add(LSymbol(beta_set(alpha, m + d), beta_set(beta, m)))
        d += 1
    return sorted(out)
