import json
import os
import stat
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest

from spbaw import __version__, cli
from spbaw.cli import main
from spbaw.labelspace import CheckFailed
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


def test_class_table_factor_search_is_shared_across_ell(tmp_path, monkeypatch):
    # the irreducible sieve depends on F_q and the degree only: a second
    # ell over the same field sieves no degree again
    from spbaw import ffpoly, gf, labelspace
    sieved = []

    class Table(dict):
        def __setitem__(self, key, value):
            sieved.append(key)
            super().__setitem__(key, value)

    monkeypatch.setattr(gf, "_IRREDUCIBLES", Table())
    monkeypatch.setattr(ffpoly, "_FACTORS", {})
    ffpoly._enumerate_classes_cached.cache_clear()
    labelspace._enumerate_semisimple_cached.cache_clear()
    for ell, first in ((5, True), (7, False)):
        sieved.clear()
        assert main(["verify", "--p", "3", "--f", "1", "--ell", str(ell), "--n", "2",
                     "--out", str(tmp_path / f"ell{ell}.json")]) == 0
        assert bool(sieved) == first, ell


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
    monkeypatch.setattr(gf, "_IRREDUCIBLES", {})
    monkeypatch.setattr(ffpoly, "_FACTORS", {})
    ffpoly._enumerate_classes_cached.cache_clear()
    ffpoly._frobenius_class_cached.cache_clear()
    labelspace._enumerate_semisimple_cached.cache_clear()
    bawcheck._field_on_semisimple.cache_clear()
    assert main(["verify", "--p", str(p), "--f", str(f), "--ell", str(ell),
                 "--n", str(n), "--out", str(tmp_path / "r.json")]) == 0
    assert calls == []
    assert gf._IRREDUCIBLES
    assert (ffpoly._frobenius_class_cached.cache_info().misses > 0) == (f > 1)


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
# nothing else.  The audit sees a weight one too large; field(i) acts as
# the diagonal inside the action-law check only; over F_9, field(2), the
# identity, acts as field(1) inside the action-law check only; the
# bijection sees a symbol core that is not its block's, so a weight leaves
# the block it is tabulated for; over F_9, the Frobenius image of every
# polynomial is X+1, which leaves the family of the class it should move;
# every partition has the empty e-core, which leaves a partial e-hook.
_BREAK_AUDIT = """
import spbaw.labelspace as ls
audit_weight_label = ls.audit_weight_label
def skewed(ctx, wq, weights):
    return audit_weight_label(ctx, wq, tuple((pc, w + 1) for pc, w in weights))
ls.audit_weight_label = skewed
"""
_BREAK_ACTION_LAWS = """
import spbaw.bawcheck as bc
bc.FIELD = lambda i: bc.DIAGONAL
"""
_BREAK_FIELD_TWO = """
import spbaw.bawcheck as bc
bc.FIELD = lambda i: bc.AutAction("field", 1 if i == 2 else i)
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
ff.frobenius = lambda g, i, ctx: ff.poly_x_plus_one(ctx)
"""
_BREAK_CORES = """
import spbaw.partcomb as pcb
pcb.e_core = lambda lam, e: ()
"""


@pytest.mark.parametrize("inject,broken,f,n",
                         [(_BREAK_AUDIT, "invariants_ok", 1, 1),
                          (_BREAK_ACTION_LAWS, "action_laws_ok", 1, 1),
                          (_BREAK_FIELD_TWO, "action_laws_ok", 2, 1),
                          (_BREAK_BIJECTION, "CheckFailed", 1, 2),
                          (_BREAK_FROBENIUS, "AssertionError", 2, 1),
                          (_BREAK_CORES, "AssertionError", 1, 1)],
                         ids=["audit", "action_laws", "field_two", "bijection",
                              "frobenius", "cores"])
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
    if broken in ("CheckFailed", "AssertionError"):
        assert report["failed"].startswith(broken + ": "), report["failed"]
        return
    assert all(rec["equivariant"] for rec in report["blocks"])
    invariants = [rec["invariants_ok"] for rec in report["blocks"]]
    if broken == "invariants_ok":
        assert not all(invariants)
        assert summary["action_laws_ok"] is True
    else:
        assert all(invariants)
        assert summary["action_laws_ok"] is False


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
                 "spbaw.sweep"):
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
