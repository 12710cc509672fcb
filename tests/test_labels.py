import os
import subprocess
import sys

import pytest

import spbaw
from spbaw import bawcheck as bc, ffpoly, labelspace as ls
from spbaw.fieldctx import make_context
from spbaw.symbcomb import LSymbol


CTX3_11 = make_context(3, 1, 11)   # e = 5 > n: every block has defect zero
SRC = os.path.dirname(os.path.dirname(spbaw.__file__))


def test_kinds_with_equal_fields_are_unequal():
    blocks = ls.enumerate_blocks(CTX3_11, 2)
    assert blocks
    for block in blocks:
        # defect zero: one Brauer label, lam = kappa and j = i
        (ib,) = ls.enumerate_ibr(CTX3_11, block)
        assert tuple(ib) == tuple(block)
        assert ib != block and not ib == block
        assert len({ib, block}) == 2
        (wq,) = ls.enumerate_weights_q(CTX3_11, block)
        (wk,) = ls.enumerate_weights_k(CTX3_11, block)
        assert tuple(wq) == tuple(wk)
        assert wq != wk and not wq == wk
        assert len({wq, wk}) == 2
        assert wq == ls.k_to_q(CTX3_11, wk) and ls.q_to_k(CTX3_11, wq) == wk


def test_labels_are_read_only_and_slotted():
    block = ls.enumerate_blocks(CTX3_11, 2)[0]
    ib = ls.enumerate_ibr(CTX3_11, block)[0]
    wq = ls.enumerate_weights_q(CTX3_11, block)[0]
    wk = ls.enumerate_weights_k(CTX3_11, block)[0]
    pc = ls.x_plus_class(CTX3_11)
    labels = [(block, "i"), (ib, "j"), (wq, "q"), (wk, "k"), (block.s, "eta_plus"),
              (pc, "gamma"), (CTX3_11, "q"), (bc.FIELD(1), "power")]
    for label, name in labels:
        with pytest.raises(AttributeError):
            setattr(label, name, 0)
        assert not hasattr(label, "__dict__")


def test_field_context_ignores_its_field_object():
    ctx = make_context(3, 2, 5)
    assert ctx.gf.q == 9 and ctx.gf is make_context(3, 2, 5).gf
    assert ctx == make_context(3, 2, 5) and len(ctx) == 6


def test_unknown_automorphism_kind_raises_under_python_O():
    script = f"""
import sys
sys.path.insert(0, {SRC!r})
if __debug__:
    sys.exit(3)
from spbaw.bawcheck import AutAction
try:
    AutAction("bogus")
except ValueError:
    sys.exit(0)
sys.exit(4)
"""
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert bc.AutAction("field", 2).power == 2 and bc.DIAGONAL.power == 0


@pytest.mark.parametrize("p,f,ell,max_total_deg",
                         [(3, 1, 5, 6), (5, 1, 3, 4), (7, 1, 3, 4),
                          (3, 2, 5, 4), (5, 2, 3, 2)])
def test_tuple_order_is_class_order(p, f, ell, max_total_deg):
    ctx = make_context(p, f, ell)
    for ell_prime_only in (False, True):
        table = ffpoly.enumerate_classes(ctx, max_total_deg, ell_prime_only)
        assert all(pc.deg == ffpoly.poly_deg(pc.gamma) for pc in table)
        by_key = sorted(table, key=lambda pc: (pc.deg, pc.gamma))
        assert table == by_key == sorted(reversed(table))


def test_cli_import_loads_no_heavy_modules():
    heavy = ("dataclasses", "inspect", "ast", "dis", "csv")
    script = (f"import sys; sys.path.insert(0, {SRC!r}); import spbaw.cli; "
              f"print(','.join(m for m in {heavy!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def _canonical_key(label):
    """The label order spelled out: classes by (deg, gamma), symbols by
    their rows, the semisimple part before the assignment and the index."""
    def assignment(entries):
        return tuple(((pc.deg, pc.gamma), v.rows if isinstance(v, LSymbol) else v)
                     for pc, v in entries)

    def semisimple(s):
        return assignment(s.entries), s.eta_plus or 0, s.eta_minus

    if isinstance(label, (ls.WeightLabelQ, ls.WeightLabelK)):
        return _canonical_key(label.block), assignment(label[1])
    if isinstance(label, ls.SemisimpleLabel):
        return semisimple(label)
    return semisimple(label.s), assignment(label[1]), label[2]


@pytest.mark.parametrize("p,f,ell,n", [(3, 1, 5, 2), (3, 1, 13, 2), (3, 2, 5, 1)])
def test_tuple_order_is_label_order(p, f, ell, n):
    ctx = make_context(p, f, ell)
    blocks = ls.enumerate_blocks(ctx, n)
    lists = [ls.enumerate_semisimple(ctx, n), blocks, ls.enumerate_ibr_universe(ctx, n)]
    for block in blocks:
        lists += [ls.enumerate_ibr(ctx, block), ls.enumerate_weights_q(ctx, block),
                  ls.enumerate_weights_k(ctx, block)]
    for labels in lists:
        assert labels == sorted(labels, key=_canonical_key)
        assert labels == sorted(reversed(labels))
