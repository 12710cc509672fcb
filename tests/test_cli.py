import json
import subprocess
import sys
import warnings

import pytest

from spbaw import __version__
from spbaw.cli import main
from spbaw.labelspace import CheckFailed


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
# the diagonal inside the action-law check only; the bijection sees a
# symbol core that is not its block's, so a weight leaves the block it is
# tabulated for.
_BREAK_AUDIT = """
import sys
import spbaw.labelspace as ls
weight_of = ls.weight_of
def skewed(ctx, block, pc):
    w = weight_of(ctx, block, pc)
    caller = sys._getframe(1).f_code.co_name
    return w + 1 if caller == "audit_weight_label" else w
ls.weight_of = skewed
"""
_BREAK_ACTION_LAWS = """
import spbaw.bawcheck as bc
bc.FIELD = lambda i: bc.DIAGONAL
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


@pytest.mark.parametrize("inject,broken,n",
                         [(_BREAK_AUDIT, "invariants_ok", 1),
                          (_BREAK_ACTION_LAWS, "action_laws_ok", 1),
                          (_BREAK_BIJECTION, "failed", 2)],
                         ids=["audit", "action_laws", "bijection"])
def test_check_failures_survive_python_O(inject, broken, n):
    script = inject + f"""
import sys
if __debug__:
    sys.exit(3)
from spbaw.cli import main
sys.exit(main(["verify", "--p", "3", "--f", "1", "--ell", "5", "--n", "{n}"]))
"""
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    report = json.loads(proc.stdout)
    summary = report["summary"]
    assert summary["all_pass"] is False
    if broken == "failed":
        assert report["failed"].startswith("CheckFailed"), report["failed"]
        return
    invariants = [rec["invariants_ok"] for rec in report["blocks"]]
    if broken == "invariants_ok":
        assert not all(invariants)
        assert summary["action_laws_ok"] is True
    else:
        assert all(invariants)
        assert summary["action_laws_ok"] is False


# Every X-1 and X+1 entry flattened the other way round: the map stays a
# bijection onto the block's weights, so only the round trip through
# weight_to_brauer can see the fault.
_FLIP_ORIENTATION = """
import spbaw.bawcheck as bc
flatten = bc._flatten
bc._flatten = lambda pair, orient: flatten(pair, orient + 1)
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
