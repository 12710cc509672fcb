import gc
import json
import os
import re
import stat
import subprocess
import sys
import threading
import warnings
import weakref
from collections import Counter
from pathlib import Path

import pytest

from spbaw import __version__, cli, labelspace as ls
from spbaw.cli import main
from spbaw.fieldctx import make_context
from spbaw.labelspace import CheckFailed
from test_benchmark_contract import GOLDEN
from test_lregular_count import ell_regular_counts


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "spbaw.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_blocks_json_deterministic_across_runs_and_jobs(tmp_path):
    out1, out2, out3 = (tmp_path / f"r{i}.json" for i in range(3))
    base = ["blocks", "--p", "3", "--f", "1", "--ell", "5", "--n", "2"]
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2)]) == 0
    assert main(base + ["--jobs", "4", "--out", str(out3)]) == 0
    assert out1.read_bytes() == out2.read_bytes() == out3.read_bytes()
    report = json.loads(out1.read_text())
    assert report["context"] == {"p": 3, "f": 1, "q": 3, "ell": 5,
                                 "e": 2, "epsilon": -1}
    assert report["summary"]["n_blocks"] == len(report["blocks"]) > 0
    for rec in report["blocks"]:
        assert {"s", "kappa", "i", "w"} <= rec.keys()


def test_verify_passes_and_reports(tmp_path):
    out = tmp_path / "verify.json"
    code = main(["verify", "--p", "3", "--f", "1", "--ell", "5", "--n", "2",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["summary"]["all_pass"]
    assert report["summary"]["partition_ok"]
    assert report["summary"]["action_laws_ok"]
    for rec in report["blocks"]:
        assert rec["n_ibr"] == rec["n_weights_q"] == rec["n_weights_k"]
        assert rec["bijective"] and rec["equivariant"] and rec["invariants_ok"]
    # the README's "Report schema" sentence lists the keys at each level
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    schema = readme.split("Report schema (JSON): `", 1)[1].split("`", 1)[0]

    def listed(key, brackets):
        inner = re.search(f'"{key}": {brackets}', schema, re.S).group(1)
        return set(re.findall(r"\w+", inner))

    blocks = listed("blocks", r"\[\{(.*?)\}\]")
    summary = listed("summary", r"\{(.*?)\}")
    assert set(re.findall(r'"(\w+)"', schema)) - blocks - summary == set(report)
    assert set(report["context"]) == listed("context", r"\{(.*?)\}")
    assert all(set(rec) == blocks for rec in report["blocks"])
    assert set(report["summary"]) == summary


def test_verify_subset_of_checks(tmp_path):
    out = tmp_path / "counts.json"
    code = main(["verify", "--p", "5", "--f", "1", "--ell", "3", "--n", "1",
                 "--checks", "counts,bijection", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert set(report["checks"]) == {"bijection", "counts"}
    assert "equivariant" not in report["blocks"][0]


def test_csv_projection(tmp_path):
    out = tmp_path / "blocks.csv"
    assert main(["blocks", "--p", "3", "--f", "1", "--ell", "5", "--n", "1",
                 "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("p,f,q,ell,e,epsilon,n,s,kappa,i,w")
    assert len(lines) == 1 + 7  # header + the seven blocks of Sp_2(3) at 5


def test_invalid_ell_exits_2():
    code, out, err = run_cli(["verify", "--p", "3", "--f", "1", "--ell", "2",
                              "--n", "1"])
    assert code == 2
    assert "ell" in err


@pytest.mark.parametrize("flags,command,n", [([], "verify", "0"),
                                             ([], "verify", "-1"),
                                             ([], "blocks", "0"),
                                             (["-O"], "verify", "0")])
def test_rank_below_one_exits_2(flags, command, n):
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "spbaw.cli", command, "--p", "3",
         "--f", "1", "--ell", "5", "--n", n], capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "rank n must be at least 1" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_sweep_rank_below_one_is_an_error(tmp_path):
    out = tmp_path / "s.json"
    code = main(["sweep", "--p", "3", "--ell", "5", "--n", "0,1",
                 "--cache-dir", str(tmp_path / "cache"), "--out", str(out)])
    assert code == 2
    configs = json.loads(out.read_text())["configs"]
    assert [c["status"] for c in configs] == ["error", "new"]
    assert "rank n must be at least 1" in configs[0]["error"]


def test_unwritable_output_exits_2(tmp_path):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    for args in (["verify", "--p", "3", "--f", "1", "--ell", "5", "--n", "1",
                  "--out", str(tmp_path / "missing" / "r.json")],
                 ["sweep", "--p", "3", "--ell", "5", "--n", "1",
                  "--cache-dir", str(not_a_dir)]):
        code, out, err = run_cli(args)
        assert code == 2, err
        assert err.startswith("sp-baw: error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "blocks", "sweep"])
def test_out_naming_a_directory_is_refused_before_any_work(tmp_path, monkeypatch,
                                                           capsys, command):
    calls = []
    monkeypatch.setattr(ls, "enumerate_blocks", lambda *args: calls.append(args))
    cache = tmp_path / "cache"
    with pytest.raises(SystemExit) as exc:
        main([command, "--p", "3", "--ell", "5", "--n", "1", "--out", str(tmp_path)]
             + (["--cache-dir", str(cache)] if command == "sweep" else []))
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"sp-baw: error: cannot write {tmp_path}: it is a directory\n")
    assert calls == [] and not cache.exists()


def test_work_limit_refusal():
    code, out, err = run_cli(["blocks", "--p", "3", "--f", "2", "--n", "8",
                              "--ell", "5"])
    assert code == 2
    assert "work limit" in err


@pytest.mark.parametrize("command", ["verify", "blocks"])
def test_huge_rank_is_refused_by_the_work_limit(command):
    # q^(2n+1) has about a million digits: the refusal names its exponent
    code, out, err = run_cli([command, "--p", "3", "--ell", "5", "--n", "1000000"])
    assert code == 2, err
    assert "work limit" in err and "3^2000001" in err
    assert "Traceback" not in err and out == ""


def test_negative_p_is_refused_without_building_the_bound():
    # (-3)^(2n+1) has about 95 million digits: the bound is not taken, and
    # make_context names the error
    proc = subprocess.run([sys.executable, "-m", "spbaw.cli", "verify",
                           "--p", "-3", "--ell", "5", "--n", "100000000"],
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2, proc.stderr
    assert "p = -3 must be an odd prime" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_unknown_check_rejected():
    code, out, err = run_cli(["verify", "--p", "3", "--f", "1", "--ell", "5",
                              "--n", "1", "--checks", "bogus"])
    assert code == 2


def test_sweep_cache_round_trip(tmp_path):
    cache = tmp_path / "cache"
    args = ["sweep", "--p", "3", "--f", "1", "--ell", "5", "--n", "1,2",
            "--checks", "counts,bijection", "--cache-dir", str(cache)]
    out1 = tmp_path / "s1.json"
    assert main(args + ["--out", str(out1)]) == 0
    first = json.loads(out1.read_text())
    assert [c["status"] for c in first["configs"]] == ["new", "new"]
    out2 = tmp_path / "s2.json"
    assert main(args + ["--out", str(out2)]) == 0
    second = json.loads(out2.read_text())
    assert [c["status"] for c in second["configs"]] == ["match", "match"]
    assert second["regressions"] == 0


def test_sweep_closes_cached_reports(tmp_path):
    args = ["sweep", "--p", "3", "--f", "1", "--ell", "5", "--n", "1",
            "--checks", "counts", "--cache-dir", str(tmp_path / "cache")]
    assert main(args + ["--out", str(tmp_path / "a.json")]) == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(args + ["--out", str(tmp_path / "b.json")]) == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_sweep_detects_regression(tmp_path):
    cache = tmp_path / "cache"
    args = ["sweep", "--p", "5", "--f", "1", "--ell", "3", "--n", "1",
            "--checks", "counts", "--cache-dir", str(cache)]
    assert main(args + ["--out", str(tmp_path / "a.json")]) == 0
    cached = next(cache.iterdir())
    cached.write_text(cached.read_text().replace('"n_ibr":1', '"n_ibr":2'))
    code = main(args + ["--out", str(tmp_path / "b.json")])
    assert code == 1
    report = json.loads((tmp_path / "b.json").read_text())
    assert report["configs"][0]["status"] == "regression"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_reports_an_undecodable_cache_file_as_a_regression(tmp_path, monkeypatch,
                                                                 jobs):
    # a cached report that is not UTF-8 differs from the report's bytes;
    # under --jobs 2 the n = 1 point runs in the worker
    from spbaw import sweep
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
    cache = tmp_path / "cache"
    args = ["sweep", "--p", "3", "--ell", "5", "--n", "1,2", "--jobs", jobs,
            "--cache-dir", str(cache)]
    assert main(args + ["--out", str(tmp_path / "a.json")]) == 0
    next(cache.glob("*_n1_*.json")).write_bytes(b"\xff\xfe garbage")
    assert main(args + ["--out", str(tmp_path / "b.json")]) == 1
    report = json.loads((tmp_path / "b.json").read_text())
    assert [c["status"] for c in report["configs"]] == ["regression", "match"]
    assert report["regressions"] == 1


def test_sweep_reports_a_version_only_change(tmp_path):
    cache = tmp_path / "cache"
    args = ["sweep", "--p", "5", "--f", "1", "--ell", "3", "--n", "1,2",
            "--checks", "counts", "--cache-dir", str(cache)]
    assert main(args + ["--out", str(tmp_path / "a.json")]) == 0
    first, second = sorted(cache.iterdir())
    first.write_text(first.read_text().replace(
        f'"version":"{__version__}"', '"version":"0.0.0"'))
    second.write_text(second.read_text().replace(
        f'"version":"{__version__}"', '"version":"0.0.0"').replace(
        '"n_ibr":1', '"n_ibr":2', 1))
    code = main(args + ["--out", str(tmp_path / "b.json")])
    assert code == 1
    report = json.loads((tmp_path / "b.json").read_text())
    assert [c["status"] for c in report["configs"]] == ["version_changed",
                                                        "regression"]
    assert report["regressions"] == 1
    second.unlink()
    assert main(args + ["--out", str(tmp_path / "c.json")]) == 0
    report = json.loads((tmp_path / "c.json").read_text())
    assert [c["status"] for c in report["configs"]] == ["version_changed", "new"]
    assert report["regressions"] == 0


def test_sweep_has_no_format_option(tmp_path):
    code, out, err = run_cli(["sweep", "--p", "3", "--ell", "5", "--n", "1",
                              "--cache-dir", str(tmp_path / "cache"),
                              "--format", "csv"])
    assert code == 2
    assert "unrecognized arguments: --format" in err
    assert not (tmp_path / "cache").exists()


def test_sweep_env_cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("SP_BAW_CACHE_DIR", str(tmp_path / "envcache"))
    code = main(["sweep", "--p", "3", "--f", "1", "--ell", "5", "--n", "1",
                 "--checks", "counts", "--out", str(tmp_path / "o.json")])
    assert code == 0
    assert (tmp_path / "envcache").is_dir()


def test_verify_preserves_partial_output_on_failure(tmp_path, monkeypatch):
    import spbaw.cli as cli

    def boom(ctx, n, checks):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli, "_build_report", boom)
    out = tmp_path / "partial.json"
    code = main(["verify", "--p", "3", "--f", "1", "--ell", "5", "--n", "1",
                 "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["failed"].startswith("RuntimeError")
    assert report["summary"]["all_pass"] is False


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_blocks_reports_an_internal_fault_as_failed(tmp_path, monkeypatch, fmt):
    # a fault while building the block table is a failed report (exit 1),
    # as in verify, not a usage error; the marker stays JSON under csv
    from spbaw import labelspace as ls

    def broken(ctx, block):
        raise ValueError("injected")

    monkeypatch.setattr(ls, "block_weights", broken)
    out = tmp_path / "blocks.out"
    code = main(["blocks", "--p", "3", "--f", "1", "--ell", "5", "--n", "1",
                 "--format", fmt, "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["failed"] == "ValueError: injected"
    assert report["checks"] == [] and report["blocks"] == []
    assert report["summary"]["all_pass"] is False


def test_sweep_unknown_check_rejected(tmp_path):
    cache = tmp_path / "cache"
    code, out, err = run_cli(["sweep", "--p", "3", "--f", "1", "--ell", "5",
                              "--n", "1", "--checks", "bogus",
                              "--cache-dir", str(cache)])
    assert code == 2
    assert "unknown checks" in err
    assert not cache.exists() or not any(cache.iterdir())


def test_verify_maps_each_brauer_label_once(tmp_path, monkeypatch):
    from spbaw import bawcheck as bc, labelspace as ls
    calls = {"enumerate_blocks": 0, "brauer_to_weight": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(ls, "enumerate_blocks")
    counted(bc, "brauer_to_weight")
    out = tmp_path / "verify.json"
    assert main(["verify", "--p", "3", "--f", "1", "--ell", "5", "--n", "2",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert calls == {"enumerate_blocks": 1,
                     "brauer_to_weight": report["summary"]["total_ibr"]}


@pytest.mark.parametrize("f", [1, 2])
def test_verify_acts_by_field_one_only_where_it_moves_labels(tmp_path, monkeypatch, f):
    # field(1) is the identity at f = 1, and verify acts by it on no label;
    # at f = 2 it acts on every Brauer and every K label
    from spbaw import bawcheck as bc
    acted = Counter()

    def counted(name):
        act = getattr(bc, name)

        def wrapper(ctx, action, x, *block):
            if action == bc.FIELD(1):
                acted[type(x).__name__] += 1
            return act(ctx, action, x, *block)
        monkeypatch.setattr(bc, name, wrapper)

    counted("act_on_ibr")
    counted("act_on_weight")
    out = tmp_path / "verify.json"
    assert main(["verify", "--p", "3", "--f", str(f), "--ell", "5", "--n", "2",
                 "--out", str(out)]) == 0
    total = json.loads(out.read_text())["summary"]["total_ibr"]
    if f == 1:
        assert not acted
    else:
        # each pass acts on its own Q labels: the pairs' weights, then the
        # Q forms of the K labels, as many as the Brauer labels
        assert acted["IBrLabel"] == acted["WeightLabelK"] == total
        assert acted["WeightLabelQ"] == 2 * total


def test_class_table_factor_search_is_shared_across_ell(tmp_path):
    # the irreducible sieve depends on F_q and the degree only: a second
    # ell over the same field sieves no degree again
    from spbaw import ffpoly, gf, labelspace
    gf._irreducibles_of_degree.cache_clear()
    ffpoly._factors_of_degree.cache_clear()
    labelspace.enumerate_semisimple.cache_clear()
    for ell, first in ((5, True), (7, False)):
        sieved = gf._irreducibles_of_degree.cache_info().misses
        assert main(["verify", "--p", "3", "--f", "1", "--ell", str(ell), "--n", "2",
                     "--out", str(tmp_path / f"ell{ell}.json")]) == 0
        assert (gf._irreducibles_of_degree.cache_info().misses > sieved) == first, ell


@pytest.mark.parametrize("p,f,ell,n", [(5, 1, 3, 3), (3, 2, 5, 2)])
def test_class_table_makes_no_rabin_test(tmp_path, monkeypatch, p, f, ell, n):
    # the irreducibles come from the sieve and the Frobenius images from
    # coefficient powers, on a cold class table
    from spbaw import bawcheck, ffpoly, gf, labelspace
    calls = []
    is_irreducible = ffpoly.is_irreducible

    def counted(g, ctx):
        calls.append(g)
        return is_irreducible(g, ctx)

    monkeypatch.setattr(ffpoly, "is_irreducible", counted)
    gf._irreducibles_of_degree.cache_clear()
    ffpoly._factors_of_degree.cache_clear()
    ffpoly.frobenius_class.cache_clear()
    labelspace.enumerate_semisimple.cache_clear()
    bawcheck._field_on_semisimple.cache_clear()
    assert main(["verify", "--p", str(p), "--f", str(f), "--ell", str(ell),
                 "--n", str(n), "--out", str(tmp_path / "r.json")]) == 0
    assert calls == []
    assert gf._irreducibles_of_degree.cache_info().currsize
    # one Frobenius image per class of the rank: the action laws take each
    # non-F0 class through field(1), and the label actions, which relabel
    # only at f > 1, add X-1 and X+1
    classes = {pc for s in labelspace.enumerate_semisimple(make_context(p, f, ell), n)
               for pc in s.support() if f > 1 or pc.family != "F0"}
    assert ffpoly.frobenius_class.cache_info().misses == len(classes)
    assert (bawcheck._field_on_semisimple.cache_info().misses > 0) == (f > 1)


@pytest.mark.parametrize("exc", [AssertionError, CheckFailed])
def test_sweep_check_that_raises_fails(tmp_path, monkeypatch, exc):
    # a check raising inside the report is a failed config (exit 1), as in
    # verify; only size and context errors are usage errors (exit 2)
    from spbaw import bawcheck as bc

    def broken(ctx, ib):
        raise exc("synthetic check failure")

    monkeypatch.setattr(bc, "brauer_to_weight", broken)
    cache, out = tmp_path / "cache", tmp_path / "sweep.json"
    code = main(["sweep", "--p", "3", "--f", "1", "--ell", "5", "--n", "1",
                 "--checks", "counts", "--cache-dir", str(cache),
                 "--out", str(out)])
    assert code == 1
    summary = json.loads(out.read_text())
    assert [c["status"] for c in summary["configs"]] == ["failed"]
    assert summary["configs"][0]["failed"].startswith(exc.__name__)
    assert summary["regressions"] == 1
    assert not any(cache.iterdir())


# Faults injected into a child interpreter; each breaks one check and
# nothing else.  The audit sees a weight one too large; over F_27, field(i)
# also negates the roots of every class when i is odd, so field(1)^i =
# field(i) holds and field(1)^3 is the negation: it permutes the classes
# and keeps their invariants, so every block stays equivariant; over F_9,
# field(1) sends every class to an ell-singular class inside the
# action-law check only; diagonal leaves K weight labels unmoved, so
# k_to_q no longer commutes with it; the bijection sees a symbol core that
# is not its block's, so a weight leaves the block it is tabulated for;
# over F_9, the Frobenius image of every polynomial is X+1, which leaves
# the family of the class it should move; every partition has the empty
# e-core, which leaves a partial e-hook; the universe counts one symbol
# too many at X-1 of rank 1, so (X-1)^3 has one Brauer label more there
# than in its blocks; the universe counts one Brauer label too many over
# the first ell-regular semisimple label and one too few over the second,
# so the totals agree.
_BREAK_AUDIT = """
import spbaw.labelspace as ls
audit_weight_label = ls.audit_weight_label
def skewed(wq, weights):
    return audit_weight_label(wq, tuple((pc, w + 1) for pc, w in weights))
ls.audit_weight_label = skewed
"""
_BREAK_FIELD_ORDER = """
import spbaw.bawcheck as bc
from spbaw.ffpoly import _class_of_factor
frobenius_class = bc.frobenius_class
def negated(pc, ctx):
    d = len(pc.factor) - 1
    return _class_of_factor(tuple(ctx.gf.neg(c) if (d - k) % 2 else c
                                  for k, c in enumerate(pc.factor)), ctx)
def skewed(pc, i, ctx):
    image = frobenius_class(pc, i, ctx)
    return negated(image, ctx) if i % 2 and pc.family != "F0" else image
bc.frobenius_class = skewed
"""
_BREAK_PERMUTATION = """
import sys
import spbaw.bawcheck as bc, spbaw.ffpoly as ff
frobenius_class = bc.frobenius_class
def leaving(pc, i, ctx):
    if sys._getframe(1).f_code.co_name != "verify_action_laws":
        return frobenius_class(pc, i, ctx)
    return next(c for c in ff.enumerate_classes(ctx, pc.deg)
                if not ff.is_ell_prime_order(c, ctx))
bc.frobenius_class = leaving
"""
_BREAK_K_DIAGONAL = """
import spbaw.bawcheck as bc
from spbaw.labelspace import WeightLabelK
act_on_weight = bc.act_on_weight
bc.act_on_weight = lambda ctx, action, w, block: (
    w if action == bc.DIAGONAL and isinstance(w, WeightLabelK)
    else act_on_weight(ctx, action, w, block))
"""
_BREAK_BIJECTION = """
import sys
import spbaw.symbcomb as sc
extract = sc._extract
def skewed(sym, e, mode):
    core, A, B = extract(sym, e, mode)
    caller = sys._getframe(1).f_code.co_name
    return (sc.LSymbol((9,), ()) if caller == "brauer_to_weight" else core), A, B
sc._extract = skewed
"""
_BREAK_FROBENIUS = """
import spbaw.ffpoly as ff
ff.frobenius = lambda g, i, ctx: ff.poly_x_plus_one()
"""
_BREAK_CORES = """
import spbaw.partcomb as pcb
pcb.e_core = lambda lam, e: ()
"""
_BREAK_PARTITION = """
import spbaw.labelspace as ls
count = ls._component_count
ls._component_count = lambda key: count(key) + (key[:2] == ("odd", 1))
"""
_BREAK_PARTITION_CANCELLING = """
import spbaw.labelspace as ls
from spbaw.fieldctx import make_context
first, second = ls.enumerate_semisimple(make_context(3, 1, 5), 2)[:2]
count = ls.semisimple_ibr_count
ls.semisimple_ibr_count = lambda ctx, s: count(ctx, s) + (s == first) - (s == second)
"""


@pytest.mark.parametrize("inject,broken,f,n",
                         [(_BREAK_AUDIT, "invariants_ok", 1, 1),
                          (_BREAK_FIELD_ORDER, "field(1)^3 = id", 3, 1),
                          (_BREAK_PERMUTATION, "field(1) permutes the classes", 2, 1),
                          (_BREAK_K_DIAGONAL, "equivariant", 1, 1),
                          (_BREAK_BIJECTION, "CheckFailed", 1, 2),
                          (_BREAK_FROBENIUS, "AssertionError", 2, 1),
                          (_BREAK_CORES, "ValueError", 1, 1),
                          (_BREAK_PARTITION, "partition_ok", 1, 1),
                          (_BREAK_PARTITION_CANCELLING, "partition_cancelling", 1, 2)],
                         ids=["audit", "action_laws", "field_permutation",
                              "k_diagonal", "bijection", "frobenius", "cores",
                              "partition", "partition_cancelling"])
def test_check_failures_survive_python_O(inject, broken, f, n):
    script = inject + f"""
import sys
if __debug__:
    sys.exit(3)
from spbaw.cli import main
sys.exit(main(["verify", "--p", "3", "--f", "{f}", "--ell", "5", "--n", "{n}"]))
"""
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    report = json.loads(proc.stdout)
    summary = report["summary"]
    assert summary["all_pass"] is False
    if broken in ("CheckFailed", "AssertionError", "ValueError"):
        assert report["failed"].startswith(broken + ": "), report["failed"]
        return
    invariants = [rec["invariants_ok"] for rec in report["blocks"]]
    if broken == "equivariant":
        # a K weight label in Q form that diagonal moves, which its
        # unmoved K label no longer follows
        assert all(invariants) and summary["action_laws_ok"] is True
        assert summary["partition_ok"] is True
        failing = [rec for rec in report["blocks"] if not rec["equivariant"]]
        assert failing and len(failing) < len(report["blocks"])
        for rec in report["blocks"]:
            assert ("equivariance_witness" in rec) == (not rec["equivariant"])
            assert rec["bijective"]
        for rec in failing:
            witness = rec["equivariance_witness"]
            assert set(witness) == {"generator", "weight", "lhs", "rhs"}
            assert witness["generator"] == "diagonal"
            assert witness["lhs"] == witness["weight"] != witness["rhs"]
            assert witness["weight"]["block"] == {
                k: rec[k] for k in ("s", "kappa", "i", "i_collapsed", "w")}
        return
    assert all(rec["equivariant"] for rec in report["blocks"])
    if broken == "partition_ok":
        assert all(invariants) and summary["action_laws_ok"] is True
        assert summary["universe_size"] == summary["total_ibr"] + 1
        # the identity class: X-1 with multiplicity 3, X-1 being (p - 1, 1)
        witness = summary["partition_witness"]
        assert witness["s"]["mult"] == [[{"coeffs": [2, 1], "family": "F0"}, 3]]
        assert witness["n_ibr"] == sum(rec["n_ibr"] for rec in report["blocks"]
                                       if rec["s"] == witness["s"]) == 2
        assert witness["universe"] == 3
        return
    if broken == "partition_cancelling":
        # the totals agree, so only a per-label count can catch it
        assert all(invariants) and summary["action_laws_ok"] is True
        assert summary["partition_ok"] is False
        assert summary["universe_size"] == summary["total_ibr"]
        witness = summary["partition_witness"]
        first = ls.enumerate_semisimple(make_context(3, 1, 5), 2)[0]
        assert witness["s"] == ls.semisimple_jsonable(first)
        assert witness["universe"] == witness["n_ibr"] + 1
        return
    assert summary["partition_ok"] is True
    assert "partition_witness" not in summary
    if broken == "invariants_ok":
        assert not all(invariants)
        for rec in report["blocks"]:
            if rec["invariants_ok"]:
                assert "invariants_witness" not in rec
                continue
            # a K weight label of the block, in Q form, whose audit failed
            witness = rec["invariants_witness"]
            assert witness["message"] == "branch sizes must sum to w"
            assert witness["weight"]["block"] == {
                k: rec[k] for k in ("s", "kappa", "i", "i_collapsed", "w")}
            assert [pc for pc, _ in witness["weight"]["Q"]] == [pc for pc, _ in rec["w"]]
        assert summary["action_laws_ok"] is True
        assert "action_laws_witness" not in summary
    else:
        assert all(invariants)
        assert summary["action_laws_ok"] is False
        ctx = make_context(3, f, 5)
        classes = sorted({pc for s in ls.enumerate_semisimple(ctx, n)
                          for pc in s.support() if pc.family != "F0"})
        # field(1) leaves the set from the first class on; negating roots
        # fixes X^2 + 1, the first class over F_27, and moves the second
        first = classes[0] if f == 2 else classes[1]
        assert classes[0].gamma == (1, 0, 1)
        assert summary["action_laws_witness"] == {
            "law": broken, "class": ls.poly_jsonable(first)}


# Every X-1 and X+1 entry built with its two chains the other way round:
# the map stays a bijection onto the block's weights, so only the round
# trip through weight_to_brauer can see the fault.
_FLIP_ORIENTATION = """
import sys
import spbaw.symbcomb as sc
extract = sc._extract
def flipped(sym, e, mode):
    core, A, B = extract(sym, e, mode)
    caller = sys._getframe(1).f_code.co_name
    return (core, B, A) if caller == "brauer_to_weight" else (core, A, B)
sc._extract = flipped
"""


def test_round_trip_guards_the_orientation():
    script = _FLIP_ORIENTATION + """
import sys
if __debug__:
    sys.exit(3)
from spbaw.cli import main
sys.exit(main(["verify", "--p", "3", "--f", "1", "--ell", "5", "--n", "2"]))
"""
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    report = json.loads(proc.stdout)
    assert "failed" not in report
    blocks = report["blocks"]
    assert not all(rec["bijective"] for rec in blocks)
    assert all(rec["n_ibr"] == rec["n_weights_q"] == rec["n_weights_k"]
               and rec["equivariant"] and rec["invariants_ok"]
               for rec in blocks)
    for rec in blocks:
        if rec["bijective"]:
            assert "bijection_witness" not in rec
            continue
        witness = rec["bijection_witness"]
        assert witness["failure"] == "round_trip"
        assert witness["back"] != witness["ibr"]
        assert witness["weight"]["block"]["kappa"] == rec["kappa"]


def test_failing_block_names_its_equivariance_witness(tmp_path, monkeypatch):
    # the diagonal automorphism flips a weight's block index but no longer
    # swaps the halves of its X+1 sequence; the action laws still hold
    from spbaw import bawcheck as bc
    monkeypatch.setattr(bc, "_flip_half", lambda seq: seq)
    out = tmp_path / "verify.json"
    assert main(["verify", "--p", "3", "--f", "1", "--ell", "5", "--n", "2",
                 "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["summary"]["action_laws_ok"] is True
    blocks = report["blocks"]
    failing = [rec for rec in blocks if not rec["equivariant"]]
    assert failing and len(failing) < len(blocks)
    for rec in blocks:
        assert ("equivariance_witness" in rec) == (not rec["equivariant"])
        assert rec["bijective"] and rec["invariants_ok"]
    for rec in failing:
        witness = rec["equivariance_witness"]
        assert set(witness) == {"generator", "ibr", "lhs", "rhs"}
        assert witness["generator"] == "diagonal"
        assert witness["lhs"] != witness["rhs"]


def test_sweep_checks_out_before_any_work(tmp_path):
    cache = tmp_path / "cache"
    code, out, err = run_cli(["sweep", "--p", "3", "--ell", "5", "--n", "1",
                              "--cache-dir", str(cache),
                              "--out", str(tmp_path / "missing" / "s.json")])
    assert code == 2, err
    assert err.startswith("sp-baw: error: ") and "Traceback" not in err
    assert not cache.exists()


@pytest.mark.parametrize("empty", ["", ","])
@pytest.mark.parametrize("axis", ["p", "f", "ell", "n"])
def test_sweep_refuses_an_empty_axis(tmp_path, capsys, axis, empty):
    # an axis with no values would sweep no point and pass
    grid = {"p": "3", "f": "1", "ell": "5", "n": "1", axis: empty}
    cache = tmp_path / "cache"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", *(x for name, v in grid.items() for x in ("--" + name, v)),
              "--cache-dir", str(cache), "--out", str(tmp_path / "s.json")])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"sp-baw: error: --{axis} lists no values\n"
    assert not cache.exists() and not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("shape", ["{},,{}", "{},", "{},x"])
@pytest.mark.parametrize("axis", ["p", "f", "ell", "n"])
def test_sweep_refuses_an_empty_item(tmp_path, capsys, axis, shape):
    # an empty item was once dropped: --n 1,,2 swept n = 1, 2 and passed;
    # a non-integer item once gave int()'s message, without the axis
    grid = {"p": ("3", "5"), "f": ("1", "2"), "ell": ("5", "7"), "n": ("1", "2")}
    text = shape.format(*grid[axis])
    args = {name: values[0] for name, values in grid.items()}
    args[axis] = text
    cache = tmp_path / "cache"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", *(x for name, v in args.items() for x in ("--" + name, v)),
              "--cache-dir", str(cache), "--out", str(tmp_path / "s.json")])
    assert exc.value.code == 2
    problem = "a non-integer item: 'x'" if text.endswith("x") else f"an empty item: {text!r}"
    assert capsys.readouterr().err == f"sp-baw: error: --{axis} has {problem}\n"
    assert not cache.exists() and not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_empty_checks_is_refused(tmp_path, capsys, command):
    # only a missing --checks means every check
    cache, out = tmp_path / "cache", tmp_path / "r.json"
    args = [command, "--p", "3", "--ell", "5", "--n", "1", "--checks", "",
            "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(args + (["--cache-dir", str(cache)] if command == "sweep" else []))
    assert exc.value.code == 2
    assert capsys.readouterr().err == "sp-baw: error: unknown checks: ['']\n"
    assert not cache.exists() and not out.exists()


# The parallel sweep (spbaw.sweep).  _usable_cpus is raised so that workers
# start even on a one-CPU machine; after every call no child may be left.

_GRID = ["--p", "3", "--ell", "5,7", "--n", "1,2"]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _worker_points(jobs):
    from spbaw import cli, sweep
    points = [(3, 1, ell, n) for ell in (5, 7) for n in (1, 2)]
    shards = sweep.shards(points, jobs, cli.DEFAULT_WORK_LIMIT)
    assert len(shards) == jobs
    return {points[i] for shard in shards[1:] for i in shard}


def test_sweep_bytes_do_not_depend_on_jobs(tmp_path, monkeypatch):
    from spbaw import sweep
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 4)
    seen = {}
    for jobs in ("1", "2", "3"):
        # a relative cache directory, so that the summaries name the same one
        (tmp_path / jobs).mkdir()
        monkeypatch.chdir(tmp_path / jobs)
        for run in ("writes", "compares"):
            assert main(["sweep", *_GRID, "--jobs", jobs, "--cache-dir", "cache",
                         "--out", run + ".json"]) == 0
            _no_child_left()
        seen[jobs] = {str(path.relative_to(tmp_path / jobs)): path.read_bytes()
                      for path in sorted((tmp_path / jobs).rglob("*.json"))}
    assert seen["1"] == seen["2"] == seen["3"]
    assert len(seen["1"]) == 2 + 4
    assert [c["status"] for c in json.loads(seen["1"]["compares.json"])["configs"]] \
        == ["match"] * 4


def test_sweep_refuses_a_huge_point_by_the_work_limit(tmp_path, monkeypatch):
    from spbaw import sweep
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
    out = tmp_path / "s.json"
    code = main(["sweep", "--p", "3", "--ell", "5", "--n", "1,1000000", "--jobs", "2",
                 "--cache-dir", str(tmp_path / "cache"), "--out", str(out)])
    _no_child_left()
    assert code == 2
    configs = json.loads(out.read_text())["configs"]
    assert [c["status"] for c in configs] == ["new", "error"]
    assert "work limit" in configs[1]["error"]


def test_sweep_fault_in_a_worker_fails_its_point(tmp_path, monkeypatch):
    from spbaw import cli, sweep
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
    broken = sorted(_worker_points(2))[0]
    build = cli._build_report

    def faulty(ctx, n, checks):
        if (ctx.p, ctx.f, ctx.ell, n) == broken:
            raise RuntimeError("synthetic worker failure")
        return build(ctx, n, checks)

    monkeypatch.setattr(cli, "_build_report", faulty)
    out = tmp_path / "s.json"
    code = main(["sweep", *_GRID, "--jobs", "2", "--cache-dir",
                 str(tmp_path / "cache"), "--out", str(out)])
    _no_child_left()
    assert code == 1
    for c in json.loads(out.read_text())["configs"]:
        if (c["p"], c["f"], c["ell"], c["n"]) == broken:
            assert c["status"] == "failed"
            assert c["failed"] == "RuntimeError: synthetic worker failure"
        else:
            assert c["status"] == "new"


def test_sweep_worker_that_dies_fails_its_points(tmp_path, monkeypatch):
    from spbaw import cli, sweep
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
    parent, build = os.getpid(), cli._build_report

    def dying(ctx, n, checks):
        if os.getpid() != parent:
            os._exit(7)
        return build(ctx, n, checks)

    monkeypatch.setattr(cli, "_build_report", dying)
    out = tmp_path / "s.json"
    code = main(["sweep", *_GRID, "--jobs", "2", "--cache-dir",
                 str(tmp_path / "cache"), "--out", str(out)])
    _no_child_left()
    assert code == 1
    summary = json.loads(out.read_text())
    in_worker = _worker_points(2)
    for c in summary["configs"]:
        if (c["p"], c["f"], c["ell"], c["n"]) in in_worker:
            assert c["status"] == "failed"
            assert "exited with status 7" in c["failed"]
        else:
            assert c["status"] == "new"
    assert summary["regressions"] == len(in_worker)


def test_sweep_oserror_in_a_worker_exits_2(tmp_path, monkeypatch, capsys):
    from spbaw import cli, sweep
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
    parent, emit = os.getpid(), cli._emit

    def unwritable(text, out):
        if os.getpid() != parent:
            raise PermissionError(13, "Permission denied", out)
        return emit(text, out)

    monkeypatch.setattr(cli, "_emit", unwritable)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", *_GRID, "--jobs", "2", "--cache-dir",
              str(tmp_path / "cache"), "--out", str(tmp_path / "s.json")])
    _no_child_left()
    assert exc.value.code == 2
    assert "Permission denied" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


def test_shards_are_capped_and_keep_points_together(monkeypatch):
    from spbaw import cli, sweep
    points = [(3, 1, ell, n) for ell in (5, 7, 11) for n in (1, 2, 3)]
    points.append(points[0])
    limit = cli.DEFAULT_WORK_LIMIT
    shards = sweep.shards(points, 10 ** 6, limit)   # starts no process
    assert 1 <= len(shards) <= min(len(os.sched_getaffinity(0)), 9)
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 10 ** 6)
    for jobs, count in ((10 ** 6, 9), (3, 3), (2, 2), (1, 1)):
        shards = sweep.shards(points, jobs, limit)
        assert len(shards) == count
        assert sorted(i for shard in shards for i in shard) == list(range(10))
        assert all(shard == sorted(shard) for shard in shards)
        assert any({0, 9} <= set(shard) for shard in shards)   # a repeat


def test_jobs_below_one_is_a_usage_error(tmp_path):
    code, out, err = run_cli(["sweep", "--p", "3", "--ell", "5", "--n", "1",
                              "--jobs", "0", "--cache-dir", str(tmp_path)])
    assert code == 2
    assert "--jobs: must be at least 1" in err


def test_abbreviated_and_joined_options_are_accepted(tmp_path):
    short, full = tmp_path / "short.csv", tmp_path / "full.csv"
    assert main(["verify", "--p", "3", "--ell", "5", "--n=2", "--work", "1000",
                 "--fo", "csv", "--out", str(short)]) == 0
    assert main(["verify", "--p", "3", "--ell", "5", "--n", "2", "--work-limit", "1000",
                 "--format", "csv", "--out", str(full)]) == 0
    assert short.read_bytes() == full.read_bytes()


_REQUIRED = ["--p", "3", "--ell", "5", "--n", "1"]


@pytest.mark.parametrize("args,message", [
    (["verify", *_REQUIRED, "--bogus", "1"], "unrecognized arguments: --bogus"),
    (["sweep", *_REQUIRED, "--c", "x"], "ambiguous option: --c could match --checks, --cache-dir"),
    (["verify", *_REQUIRED, "--out"], "argument --out: expected one argument"),
    (["verify", "--ell", "5", "--n", "1"], "the following arguments are required: --p"),
    (["verify", "--p", "3", "--ell", "5", "--n", "x"], "argument --n: invalid int value: 'x'"),
    (["verify", *_REQUIRED, "--format", "xml"], "argument --format: 'xml' is neither json nor csv"),
    (["sweep", *_REQUIRED, "--format", "csv"], "unrecognized arguments: --format"),
    (["blocks", *_REQUIRED, "--checks", "counts"], "unrecognized arguments: --checks"),
    ([], "the first argument must be a command: blocks, verify, sweep"),
    (["check", *_REQUIRED], "the first argument must be a command: blocks, verify, sweep"),
    # a bare - or -- names no option, though every option starts with it
    (["verify", *_REQUIRED, "--"], "unrecognized arguments: --"),
    (["verify", *_REQUIRED, "-"], "unrecognized arguments: -"),
    (["sweep", "--", *_REQUIRED], "unrecognized arguments: --"),
    (["--"], "unrecognized arguments: --"),
    (["-"], "unrecognized arguments: -"),
])
def test_usage_errors_exit_2_with_one_line(tmp_path, monkeypatch, capsys, args, message):
    monkeypatch.setenv("SP_BAW_CACHE_DIR", str(tmp_path / "cache"))
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"sp-baw: error: {message}\n")
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("args", [["--version"], ["--vers"]])
def test_version_prints_the_package_version(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 0
    assert capsys.readouterr() == (__version__ + "\n", "")


@pytest.mark.parametrize("args", [["verify", "-h"], ["verify", "--p", "3", "--help"],
                                  ["verify", "--he"], ["-h"]])
def test_help_lists_the_options_of_the_table(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == "" and "usage: sp-baw verify " in out
    for name in cli.COMMANDS["verify"][2]:
        assert f"  {name} " in out, name
    assert "--checks" in out and "counts,bijection,equivariance,invariants" in out


def test_cli_import_starts_no_process_machinery():
    script = f"""
import sys
sys.path.insert(0, {str(Path(__file__).resolve().parent.parent / "src")!r})
before = set(sys.modules)
import spbaw.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""
    proc = subprocess.run([sys.executable, "-I", "-B", "-c", script],
                          capture_output=True, text=True, check=True)
    new = proc.stdout.split()
    assert "spbaw.cli" in new
    # the sweep's grid runner is compiled and loaded by sweep alone
    for name in ("multiprocessing", "concurrent.futures", "pickle", "subprocess",
                 "spbaw.sweep", "argparse", "gettext", "locale"):
        assert name not in new, name


def test_loaded_modules_are_standard_library_only(tmp_path):
    # the modules the package loads, beyond what interpreter start-up loaded
    out = tmp_path / "r.json"
    script = f"""
import sys
sys.path.insert(0, {str(Path(__file__).resolve().parent.parent / "src")!r})
before = set(sys.modules)
import spbaw.cli, spbaw.sweep
code = spbaw.cli.main(["verify", "--p", "3", "--ell", "5", "--n", "1", "--out", {str(out)!r}])
print(code)
print(" ".join(sorted(set(sys.modules) - before)))
print(" ".join(sorted(sys.stdlib_module_names)))
"""
    proc = subprocess.run([sys.executable, "-I", "-B", "-c", script],
                          capture_output=True, text=True, check=True)
    code, loaded, stdlib = proc.stdout.splitlines()
    loaded, stdlib = loaded.split(), stdlib.split()
    assert code == "0"
    assert json.loads(out.read_text())["summary"]["all_pass"]
    assert "spbaw.labelspace" in loaded
    outside = {name.split(".")[0] for name in loaded} - set(stdlib) - {"spbaw"}
    assert not outside, sorted(outside)


@pytest.mark.parametrize("n,total", [(1, 7), (2, 34)])
def test_verify_at_a_large_ell(tmp_path, n, total):
    # e = 506: a weight label has 1012 slots at X+-1, more than the default
    # recursion limit would allow one frame each
    assert sys.getrecursionlimit() <= 1000
    out = tmp_path / "r.json"
    assert main(["verify", "--p", "3", "--ell", "1013", "--n", str(n),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["context"]["e"] == 506
    summary = report["summary"]
    assert summary["total_ibr"] == summary["universe_size"] == total
    assert ell_regular_counts(3, 1013, n)[n] == total


def test_output_goes_through_a_temporary_file_of_its_own(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    cache.mkdir()
    other = cache / "p3_f1_ell5_n1_counts.json.tmp"
    other.write_text("another writer's report")
    args = ["sweep", "--p", "3", "--ell", "5", "--n", "1,2", "--checks", "counts",
            "--cache-dir", str(cache), "--out", str(tmp_path / "s.json")]
    assert main(args + ["--jobs", "2"]) == 0
    assert other.read_text() == "another writer's report"
    assert [p.name for p in tmp_path.rglob("*.tmp")] == [other.name]
    assert (cache / "p3_f1_ell5_n1_counts.json").exists()

    def fail(src, dst):
        raise OSError("replace failed")

    # a write that raises leaves no temporary file behind
    monkeypatch.setattr(os, "replace", fail)
    out = tmp_path / "v.json"
    with pytest.raises(OSError, match="replace failed"):
        cli._emit("text", str(out))
    assert not out.exists()
    assert [p.name for p in tmp_path.rglob("*.tmp")] == [other.name]


VERIFY_SMALL = ["verify", "--p", "3", "--ell", "5", "--n", "1"]


def test_out_writes_a_fifo_in_place(tmp_path):
    # a FIFO stays a FIFO, and its reader gets the report's bytes
    fifo, plain = tmp_path / "report.fifo", tmp_path / "report.json"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(VERIFY_SMALL + ["--out", str(fifo)]) == 0
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert main(VERIFY_SMALL + ["--out", str(plain)]) == 0
    assert got == [plain.read_bytes()]


@pytest.mark.parametrize("target_exists", [True, False], ids=["target", "dangling"])
def test_out_through_a_symlink_writes_its_target(tmp_path, target_exists):
    target, link = tmp_path / "report.json", tmp_path / "link.json"
    if target_exists:
        target.write_text("")
    link.symlink_to(target)
    assert main(VERIFY_SMALL + ["--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert json.loads(target.read_text())["summary"]["all_pass"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "report.json"]


def _dumps(d):
    return json.dumps(d, sort_keys=True, separators=(",", ":")) + "\n"


def _full_report(p, f, ell, n):
    return cli._report_or_failure(make_context(p, f, ell), n, set(cli.ALL_CHECKS))


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_report_json_is_json_dumps_on_golden_reports(key):
    report = _full_report(*map(int, key.split(",")))
    assert report["blocks"] and cli._report_json(report) == _dumps(report)


def test_report_json_is_json_dumps_on_any_dict(monkeypatch):
    def fault(ctx, n, checks):
        raise RuntimeError("synthetic fault")

    monkeypatch.setattr(cli, "_build_report", fault)
    failed = _full_report(3, 1, 5, 1)
    assert failed["blocks"] == [] and "failed" in failed
    summary = {"version": __version__, "cache_dir": "cache", "regressions": 0,
               "configs": [{"p": 3, "f": 1, "ell": 5, "n": 1, "status": "new"}]}
    for d in (failed, summary,
              {"blocks": [{"b": 1, "a": [2, {"d": None, "c": True}]}, {}]},
              {"blocks": []},
              {"a": 1, "blocks": [{"x": 1}], "z": 2},
              {"B": 1, "blocks": [{"x": 1}]},
              {"blocks": {"b": [1], "a": 2}, "c": 3},
              {"blocks": ({"x": 1},), "n": 1},
              {"blocks": "text"}):
        assert cli._report_json(d) == _dumps(d), d


def test_block_records_share_their_fragments():
    # one fragment per semisimple label and per divisor class, whichever
    # record, entry or field holds it
    records = _full_report(3, 1, 5, 2)["blocks"]
    by_label = {}
    for rec in records:
        by_label.setdefault(_dumps(rec["s"]), []).append(rec["s"])
    shared = [group for group in by_label.values() if len(group) > 1]
    assert shared
    for group in shared:
        assert all(s is group[0] for s in group)
    classes = {}
    for rec in records:
        for frag, _ in rec["s"]["mult"] + rec["kappa"] + rec["w"]:
            classes.setdefault(_dumps(frag), set()).add(id(frag))
    assert len(classes) > 1
    assert all(len(ids) == 1 for ids in classes.values())
    # one kappa list per core assignment, one w list per weight assignment
    for key in ("kappa", "w"):
        lists = {}
        for rec in records:
            lists.setdefault(_dumps(rec[key]), set()).add(id(rec[key]))
        assert len(lists) < len(records)
        assert all(len(ids) == 1 for ids in lists.values())


def test_report_encoding_holds_a_few_copies_of_its_text():
    # tracemalloc's peak while a report is encoded, against the text's
    # length: the block records are encoded one at a time
    import tracemalloc

    report = _full_report(3, 1, 13, 3)
    cli._report_json(report)
    tracemalloc.start()
    try:
        text = cli._report_json(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(text), (peak, len(text))


class _WeakList(list):
    """A list that a weak reference can follow."""


def test_verify_holds_one_block_weight_side_at_a_time(monkeypatch):
    # each block's Q and K weight lists are followed by weak reference:
    # when a block's are built, no other block's are still alive
    from spbaw import labelspace as ls

    built, most = [], 0

    def following(enumerate_weights):
        def wrapper(ctx, block):
            nonlocal most
            out = _WeakList(enumerate_weights(ctx, block))
            built.append((block, weakref.ref(out)))
            most = max(most, len({b for b, ref in built if ref() is not None}))
            return out
        return wrapper

    for name in ("enumerate_weights_q", "enumerate_weights_k"):
        monkeypatch.setattr(ls, name, following(getattr(ls, name)))
    report = _full_report(3, 1, 13, 3)
    assert report["summary"]["all_pass"]
    assert len({b for b, _ in built}) == len(report["blocks"]) > 100
    assert most == 1


def test_action_laws_check_every_class_of_the_rank_once(monkeypatch):
    # over F_9 field(1) moves classes; the laws run once per verify and
    # take every class in the supports of the rank's labels through field(1)
    from spbaw import bawcheck as bc, labelspace as ls

    calls, seen = [], Counter()
    verify_action_laws, frobenius_class = bc.verify_action_laws, bc.frobenius_class

    def counting(ctx, n):
        calls.append((ctx, n))
        return verify_action_laws(ctx, n)

    def recording(pc, i, ctx):
        if i == 1 and sys._getframe(1).f_code.co_name == "verify_action_laws":
            seen[pc] += 1
        return frobenius_class(pc, i, ctx)

    monkeypatch.setattr(bc, "verify_action_laws", counting)
    monkeypatch.setattr(bc, "frobenius_class", recording)
    report = _full_report(3, 2, 5, 2)
    assert report["summary"]["action_laws_ok"] is True
    ctx = make_context(3, 2, 5)
    assert calls == [(ctx, 2)]
    classes = {pc for s in ls.enumerate_semisimple(ctx, 2)
               for pc in s.support() if pc.family != "F0"}
    assert any(frobenius_class(pc, 1, ctx) != pc for pc in classes)
    # f = 2 applications of field(1) per class, each class the image of one
    assert seen == Counter({pc: 2 for pc in classes})


def test_sweep_encodes_a_mismatched_report_once(tmp_path, monkeypatch):
    # a cached text that differs is compared against the report's text:
    # one encoding of the report, one of the cached dict
    from spbaw import sweep

    cache, point, checks = tmp_path / "cache", (5, 1, 3, 1), {"counts"}
    cache.mkdir()
    entry, code = sweep._sweep_point(point, checks, str(cache),
                                     cli.DEFAULT_WORK_LIMIT)
    assert (entry["status"], code) == ("new", 0)
    cached = next(cache.iterdir())
    text = cached.read_text()
    calls = []
    report_json = cli._report_json
    monkeypatch.setattr(cli, "_report_json",
                        lambda d: calls.append(d) or report_json(d))
    for edited, status, want in (
            (text.replace(f'"version":"{__version__}"', '"version":"0.0.0"'),
             "version_changed", 0),
            (text.replace('"n_ibr":1', '"n_ibr":2', 1), "regression", 1)):
        assert edited != text
        cached.write_text(edited)
        calls.clear()
        entry, code = sweep._sweep_point(point, checks, str(cache),
                                         cli.DEFAULT_WORK_LIMIT)
        assert (entry["status"], code) == (status, want)
        assert len(calls) == 2


def test_main_freezes_nothing_while_it_runs(tmp_path):
    # the freeze is an exit hook: in-process callers keep their heap
    frozen = gc.get_freeze_count()
    for name in ("a.json", "b.json"):
        assert main(["verify", "--p", "3", "--ell", "5", "--n", "1",
                     "--out", str(tmp_path / name)]) == 0
    assert gc.get_freeze_count() == frozen


def test_exit_hooks_registered_before_main_run_after_the_freeze(tmp_path):
    # main runs twice; a hook registered before it runs last, after one
    # freeze, and the same report reaches --out and stdout
    out = tmp_path / "r.json"
    script = f"""
import atexit, gc, sys
sys.path.insert(0, {str(Path(__file__).resolve().parent.parent / "src")!r})
freeze, calls = gc.freeze, []
gc.freeze = lambda: calls.append(freeze())
atexit.register(lambda: print(len(calls), gc.get_freeze_count(), file=sys.stderr))
from spbaw.cli import main
args = ["verify", "--p", "3", "--ell", "5", "--n", "2"]
code = main(args + ["--out", {str(out)!r}])
sys.exit(code or main(args))
"""
    proc = subprocess.run([sys.executable, "-I", "-B", "-c", script],
                          capture_output=True, check=True)
    assert proc.stdout == out.read_bytes()
    assert json.loads(proc.stdout)["summary"]["all_pass"]
    freezes, frozen = map(int, proc.stderr.split())
    assert freezes == 1 and frozen > 0
