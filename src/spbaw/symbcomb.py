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
partition per track.  Track labels are only canonical relative to the
core's reduced frame: un-shifting by one bead rotates the runner index
and (for cohooks, when the runner wraps) flips the chain, so extraction
pulls the labels back by the observed shift before assembling the
quotient pair.  The pair [A; B] of e-tuples is unordered; orientation 0
attaches the canonically smaller tuple to chain 0.

Reconstruction inverts extraction directly.  Shifting the core by a
multiple of 2e beads moves every runner round an even number of times, so
the frame's track labels are the absolute ones: A[r] goes on track (r, 0),
B[r] on track (r, 1), and the one symbol this builds is re-extracted as a
check.  Extraction and reconstruction are memoized: label sets are
products of components, so the same symbol recurs in many labels.
"""

from functools import lru_cache

from .partcomb import (beta_set, enumerate_tuples, partition_of_beta)

HOOK = "hook"
COHOOK = "cohook"


def _reduce_rows(row_a, row_b):
    """Shift-reduce; returns (rows, unshift_count)."""
    a, b = list(row_a), list(row_b)
    u = 0
    while a and b and a[-1] == 0 and b[-1] == 0:
        a = [x - 1 for x in a[:-1]]
        b = [x - 1 for x in b[:-1]]
        u += 1
    return (tuple(a), tuple(b)), u


class LSymbol:
    """An unordered pair of beta-sets modulo simultaneous shift."""

    __slots__ = ("rows",)

    def __init__(self, row_a=(), row_b=()):
        a = tuple(sorted(row_a, reverse=True))
        b = tuple(sorted(row_b, reverse=True))
        assert len(set(a)) == len(a) and len(set(b)) == len(b), "rows must have distinct entries"
        assert all(x >= 0 for x in a + b)
        (a, b), _ = _reduce_rows(a, b)
        self.rows = tuple(sorted((a, b)))

    def __eq__(self, other):
        return isinstance(other, LSymbol) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __lt__(self, other):
        return self.rows < other.rows

    def __repr__(self):
        return f"LSymbol({list(self.rows[0])}, {list(self.rows[1])})"


def rank(sym):
    a, b = sym.rows
    n = len(a) + len(b)
    return sum(a) + sum(b) - (n - 1) ** 2 // 4 if n else 0


def defect(sym):
    a, b = sym.rows
    return abs(len(a) - len(b))


def is_degenerate(sym):
    """Equal rows; by convention the empty symbol counts as degenerate."""
    return sym.rows[0] == sym.rows[1]


def shift_rows(rows, t):
    """The representative [X^{+t}, Y^{+t}] of the symbol's shift class."""
    return tuple(tuple(sorted([x + t for x in row] + list(range(t)), reverse=True))
                 for row in rows)


def _tracks(rows, e, mode):
    """Track heights keyed by (runner, side)."""
    tr = {(r, s): [] for r in range(e) for s in (0, 1)}
    for i, row in enumerate(rows):
        for x in row:
            r, h = x % e, x // e
            side = i if mode == HOOK else (h + i) % 2
            tr[(r, side)].append(h)
    return {k: tuple(sorted(v, reverse=True)) for k, v in tr.items()}


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
    rows = sym.rows
    tr = _tracks(rows, e, mode)
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
    tr = _tracks(shift_rows(core.rows, 2 * e * (needed + 1)), e, mode)
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


def star_oriented(core, core_orient, pair, pair_orient, e, mode):
    """(kappa, i) * (Q, j); defined for non-degenerate even-defect cores and
    depending only on i + j mod 2."""
    assert not is_degenerate(core), "oriented star needs a non-degenerate core"
    assert defect(core) % 2 == 0
    return star_plain(core, pair, (core_orient + pair_orient) % 2, e, mode)


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
    the predicate; degenerate symbols appear once."""
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
                assert sym.rows == tuple(sorted((X, Y))), "shape enumeration must be reduced"
                seen.add(sym)
    return sorted(seen)
