"""End-to-end self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs the harness (run.run) on a sub-second configuration, (p, f, ell, n) =
(3, 1, 5, 1), and checks that

  * Wall's generating function gives the known class numbers;
  * an untraced run passes its checks and prints every end-to-end metric of
    BENCHMARK.json with its unit, and a `failed_frac` line;
  * two traced runs print every per-layer metric with its unit, and their
    count metrics agree exactly;
  * a corrupted golden hash makes the run report `correct: false` with one
    failed command, and so does a wrong reference-task checksum.

Prints one PASS or FAIL line per check; exit status 0 when all pass.
"""

import argparse
import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import oracle
import reference
import run

HERE = Path(__file__).resolve().parent
TINY = {"verify": [(3, 1, 5, 1)]}


def bench(golden, seed, trace):
    """One run on TINY; returns (result object, printed text)."""
    args = argparse.Namespace(workload="tiny", seed=seed, seconds=1,
                              trace=trace)
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        result = run.run(args, TINY, golden)
    return result, text.getvalue()


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    golden = json.loads((HERE / "golden.json").read_text())["reports"]
    failures = []

    def check(ok, what):
        print(("PASS " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    check(oracle.class_numbers(3, 3) == [1, 7, 34, 141]
          and [oracle.class_numbers(q, 1)[1] for q in (5, 7, 9)] == [9, 11, 13],
          "Wall's generating function gives k(Sp_2n(q)) for the known cases")

    result, text = bench(golden, 1, 0)
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    check(result["correct"] is True and result["failed"] == 0
          and result["attempted"] >= 1,
          "an untraced run passes its checks")
    check(units(result) == want,
          "the untraced run reports every end-to-end metric with its unit")
    check(all(f"\n{name}: " in text for name in want)
          and "\nfailed_frac: 0 " in text,
          "the untraced run prints a line for each metric and failed_frac")

    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    counts = []
    for seed in (1, 2):
        result, _ = bench(golden, seed, 1)
        check(result["correct"] is True and units(result) == want,
              f"traced run {seed} reports every per-layer metric with its unit")
        counts.append({name: m["value"] for name, m in
                       result["metrics"].items()
                       if m["unit"] in run.EXACT_UNITS})
    check(bool(counts[0]) and counts[0] == counts[1],
          "count metrics repeat exactly across two traced runs")

    corrupted = copy.deepcopy(golden)
    entry = corrupted["3,1,5,1"]
    entry["sha256"] = entry["sha256"][::-1]
    result, _ = bench(corrupted, 1, 0)
    check(result["correct"] is False and result["failed"] == 1,
          "a corrupted golden hash makes the run fail")

    checksum, reference.CHECKSUM = reference.CHECKSUM, "0"
    try:
        result, _ = bench(golden, 1, 0)
    finally:
        reference.CHECKSUM = checksum
    check(result["correct"] is False and result["failed"] == 1,
          "a wrong reference-task checksum makes the run fail")

    print(f"{len(failures)} of the self-test checks failed" if failures
          else "all self-test checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
