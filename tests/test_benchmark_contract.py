"""The package against the benchmark's fixed data in perfbench/: the
golden report hashes, the functions its tracer wraps, and Wall's
class-number oracle."""

import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from spbaw import labelspace as ls
from spbaw.cli import main
from spbaw.fieldctx import make_context

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())["reports"]


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_verify_report_matches_golden_hash(key, tmp_path):
    p, f, ell, n = key.split(",")
    out = tmp_path / "report.json"
    assert main(["verify", "--p", p, "--f", f, "--ell", ell, "--n", n,
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[key]["sha256"]


def test_traced_functions_exist():
    for mod_name, names in _load("tracer").LAYERS.items():
        module = importlib.import_module(f"spbaw.{mod_name}")
        for fn_name in names:
            fn = getattr(module, fn_name, None)
            assert callable(fn), f"{mod_name}.{fn_name} is gone"
            assert fn.__module__ == module.__name__, f"{mod_name}.{fn_name}"


@pytest.mark.parametrize("p,f,ell,n", [(5, 1, 7, 2), (7, 1, 11, 2),
                                       (3, 1, 11, 3), (5, 1, 11, 2),
                                       (3, 2, 7, 1)])
def test_counts_match_wall_class_number_when_e_exceeds_n(p, f, ell, n):
    expected = _load("oracle").expected_count(p, f, ell, n)
    assert expected is not None, "the oracle needs e > n"
    ctx = make_context(p, f, ell)
    blocks = ls.enumerate_blocks(ctx, n)
    total_ibr = sum(len(ls.enumerate_ibr(ctx, b)) for b in blocks)
    assert len(blocks) == total_ibr == expected
