"""Batch command-line front end.

  sp-baw blocks  --p 3 --f 1 --ell 5 --n 1          block table
  sp-baw verify  --p 3 --f 1 --ell 5 --n 2          counts/bijection checks
  sp-baw sweep   --p 3 --f 1 --ell 5,7 --n 1,2      grid + regression cache

Reports are JSON (or a flat CSV projection) with a stable schema, byte
identical across runs and --jobs settings.  `sweep --jobs N` runs its grid
points in up to N processes (forked workers, no more than the usable
CPUs); `verify` and `blocks` ignore the flag.  Exit codes: 0 all requested
checks pass, 1 a check failed (an internal fault in a report counts as a
failed check), 2 usage or configuration error (a rank below 1, a --jobs
below 1, a size over --work-limit, or an output that cannot be written).

`main` registers `gc.freeze` with `atexit`, one entry per process however
often it runs: at exit everything still alive, the memo tables' labels,
symbols and classes among it, moves to the permanent generation before
the interpreter's finalizing collections, which then skip it.  Module
teardown, the other exit hooks and the flushing of stdout and --out
still run.  The time from `main`'s return to the end of a `verify`
process on (3,1,7,3) fell from 10.4 to 2.8 ms (median of 20 runs, 2
shared x86-64 cores, Python 3.11), and from 13.7 to 3.7 ms on (3,2,5,2).
"""

import argparse
import atexit
import gc
import io
import json
import os
import sys

from . import __version__, bawcheck as bc, labelspace as ls
from .fieldctx import make_context

DEFAULT_WORK_LIMIT = 10 ** 7
ALL_CHECKS = ("counts", "bijection", "equivariance", "invariants")


def _context_jsonable(ctx):
    return {"p": ctx.p, "f": ctx.f, "q": ctx.q, "ell": ctx.ell,
            "e": ctx.e, "epsilon": ctx.epsilon}


def _work_bound(p, f, n, work_limit):
    """The size bound q^(2n+1) when it is at most work_limit, else None: the
    one work-cost model, for the work limit and for balancing a sweep's
    shards.  For p >= 2, q^(2n+1) >= 2^(f(2n+1)), so a bound of f(2n+1)
    bits or more exceeds the limit and is never built.  A p below 2 takes
    no power and gets bound 0, so that make_context names the error."""
    if p < 2:
        return 0
    if f * (2 * n + 1) >= work_limit.bit_length():
        return None
    bound = (p ** f) ** (2 * n + 1)
    return bound if bound <= work_limit else None


def _check_work_limit(p, f, n, work_limit):
    if n < 1:
        raise ValueError(f"symplectic rank n must be at least 1, got {n}")
    if _work_bound(p, f, n, work_limit) is None:
        raise ValueError(
            f"refusing to run: size bound q^(2n+1) = {p}^{f * (2 * n + 1)} "
            f"exceeds the work limit {work_limit}; rerun with a larger "
            f"--work-limit if this size is intended")


def _parse_checks(text):
    """The checks named in text; all of them when --checks was not given."""
    checks = set(ALL_CHECKS) if text is None else set(text.split(","))
    unknown = checks - set(ALL_CHECKS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    return checks


def _run_blocks(ctx, blocks, checks):
    """A report record per block, and the first action-law violation (None
    when the laws hold or are not checked).  The Brauer-to-weight pairs of
    every block come first: together they are the rank's bijection, in
    which equivariance looks up moved labels.  Then each block's weight
    side is built, checked and released before the next block's."""
    records = [ls.block_jsonable(ctx, b) for b in blocks]
    if not checks:
        return records, None
    pairs = [bc.block_pairs(ctx, b) for b in blocks]
    bijection = bc.bijection_of(pairs)
    generators = [bc.FIELD(1), bc.DIAGONAL]
    laws_witness = None
    for block, rec, block_pairs in zip(blocks, records, pairs):
        table = bc.block_table(ctx, block, block_pairs)
        rec.update(bc.verify_block(ctx, table))
        if "equivariance" in checks:
            violations = bc.verify_equivariance_of_block(
                ctx, block_pairs, bijection, generators)
            rec["equivariant"] = not violations
            if violations:
                rec["equivariance_witness"] = violations[0]
        if "invariants" in checks:
            witness = _invariants_witness(ctx, block, table.k_images)
            rec["invariants_ok"] = witness is None
            if witness is not None:
                rec["invariants_witness"] = witness
            if laws_witness is None:
                laws_witness = bc.verify_action_laws(
                    ctx, [ib for ib, _ in block_pairs], table.weights_q)
        del table   # one block's weight side is alive at a time
    return records, laws_witness


def _invariants_witness(ctx, block, k_images):
    """None when the Q form of every K weight label of a block passes
    audit_weight_label; else the failed check's message with the first
    weight label it failed on, in Q form."""
    weights = ls.block_weights(ctx, block)
    for wq in k_images:
        try:
            ls.audit_weight_label(wq, weights)
        except ls.CheckFailed as exc:
            return {"message": str(exc), "weight": ls.weight_q_jsonable(ctx, wq)}
    return None


def _passes(records, checks):
    for rec in records:
        if "counts" in checks and not (
                rec["n_ibr"] == rec["n_weights_q"] == rec["n_weights_k"]):
            return False
        if "bijection" in checks and not rec["bijective"]:
            return False
        if "equivariance" in checks and not rec["equivariant"]:
            return False
        if "invariants" in checks and not rec["invariants_ok"]:
            return False
    return True


def _partition_witness(ctx, n, blocks, records):
    """None when every ell-regular semisimple label has as many Brauer
    labels, summed over its blocks, as its factor in universe_size; else
    the first label that does not, with both counts."""
    found = dict.fromkeys(ls.enumerate_semisimple(ctx, n), 0)
    for block, rec in zip(blocks, records):
        found[block.s] += rec["n_ibr"]
    for s, count in found.items():
        expected = ls.semisimple_ibr_count(ctx, s)
        if count != expected:
            return {"s": ls.semisimple_jsonable(s), "n_ibr": count,
                    "universe": expected}
    return None


def _build_report(ctx, n, checks):
    blocks = ls.enumerate_blocks(ctx, n)
    records, laws_witness = _run_blocks(ctx, blocks, checks)
    report = {
        "version": __version__,
        "context": _context_jsonable(ctx),
        "n": n,
        "checks": sorted(checks),
        "blocks": records,
        "summary": {
            "n_blocks": len(records),
            "total_ibr": sum(r.get("n_ibr", 0) for r in records),
            "all_pass": _passes(records, checks) if checks else True,
        },
    }
    if "invariants" in checks:
        summary = report["summary"]
        summary["universe_size"] = ls.universe_size(ctx, n)
        summary["partition_ok"] = summary["total_ibr"] == summary["universe_size"]
        if not summary["partition_ok"]:
            summary["partition_witness"] = _partition_witness(ctx, n, blocks, records)
        summary["action_laws_ok"] = laws_witness is None
        if laws_witness is not None:
            summary["action_laws_witness"] = laws_witness
        if not (summary["partition_ok"] and summary["action_laws_ok"]):
            summary["all_pass"] = False
    return report


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _report_json(report):
    """json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n".
    A report's block records are encoded one at a time and joined ahead of
    the encoded rest, so the encoder's small token strings for only one
    record are alive at once.  This is exact when "blocks" is the first key
    in sorted order, as it is in every report; any other dict is encoded
    whole."""
    blocks = report.get("blocks")
    if not isinstance(blocks, list) or min(report) != "blocks":
        return _ENCODER.encode(report) + "\n"
    rest = _ENCODER.encode({k: v for k, v in report.items() if k != "blocks"})
    return "".join(('{"blocks":[', ",".join(map(_ENCODER.encode, blocks)), "]",
                    "}" if rest == "{}" else "," + rest[1:], "\n"))


def _report_csv(report):
    import csv   # only --format csv needs it

    buf = io.StringIO()
    fields = ["p", "f", "q", "ell", "e", "epsilon", "n", "s", "kappa", "i",
              "w", "n_ibr", "n_weights_q", "n_weights_k", "bijective",
              "equivariant", "invariants_ok"]
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    ctx = report["context"]
    for rec in report["blocks"]:
        writer.writerow({
            **ctx, "n": report["n"],
            "s": _ENCODER.encode(rec["s"]),
            "kappa": _ENCODER.encode(rec["kappa"]),
            "i": rec["i"],
            "w": _ENCODER.encode(rec["w"]),
            "n_ibr": rec.get("n_ibr", ""),
            "n_weights_q": rec.get("n_weights_q", ""),
            "n_weights_k": rec.get("n_weights_k", ""),
            "bijective": rec.get("bijective", ""),
            "equivariant": rec.get("equivariant", ""),
            "invariants_ok": rec.get("invariants_ok", ""),
        })
    return buf.getvalue()


def _emit(text, out):
    """Write text to out, or to stdout when out is empty.  A new path or a
    regular file is replaced through a temporary file; the rename goes onto
    the path a symlink resolves to, so the link survives.  A FIFO or a
    device is written in place, never replaced."""
    if not out:
        sys.stdout.write(text)
        return
    out = os.path.realpath(out)
    if os.path.exists(out) and not os.path.isfile(out):
        with open(out, "w") as fh:
            fh.write(text)
        return
    # One temporary name per writer: sweeps sharing a cache directory
    # may write the same point at once.
    tmp = f"{out}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, out)
    finally:
        if os.path.exists(tmp):   # the write or the rename raised
            os.remove(tmp)


def _report_or_failure(ctx, n, checks):
    """The report, or on an internal fault while building it a report with
    no blocks that fails and names the fault."""
    try:
        return _build_report(ctx, n, checks)
    except Exception as exc:  # an internal fault counts as a failed check
        return {"version": __version__, "context": _context_jsonable(ctx),
                "n": n, "checks": sorted(checks), "blocks": [],
                "summary": {"all_pass": False},
                "failed": f"{type(exc).__name__}: {exc}"}


def cmd_report(args):
    """blocks (no checks) and verify; a failed report stays JSON."""
    _check_work_limit(args.p, args.f, args.n, args.work_limit)
    ctx = make_context(args.p, args.f, args.ell)
    checks = _parse_checks(args.checks) if args.command == "verify" else set()
    report = _report_or_failure(ctx, args.n, checks)
    as_csv = args.format == "csv" and "failed" not in report
    _emit(_report_csv(report) if as_csv else _report_json(report), args.out)
    return 0 if report["summary"]["all_pass"] else 1


def cmd_sweep(args):
    from . import sweep   # the grid, its shards and workers: only a sweep loads it

    return sweep.run_grid(args)


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(sub, grid=False):
    kind = str if grid else int
    sub.add_argument("--p", type=kind, required=True, help="odd prime p")
    sub.add_argument("--f", type=kind, default="1" if grid else 1,
                     help="exponent f with q = p^f")
    sub.add_argument("--ell", type=kind, required=True,
                     help="odd prime ell different from p")
    sub.add_argument("--n", type=kind, required=True, help="symplectic rank n")
    sub.add_argument("--out", default=None, help="write the report here")
    if not grid:
        sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--jobs", type=_positive_int, default=1,
                     help="at least 1; sweep runs its grid points in up to "
                          "this many processes, verify and blocks ignore "
                          "it; report bytes do not depend on it")
    sub.add_argument("--work-limit", type=int, default=DEFAULT_WORK_LIMIT,
                     help="refuse sizes whose bound q^(2n+1) exceeds this")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sp-baw",
        description="Block, Brauer-character and weight label enumeration and "
                    "verification for Sp_2n(q) at odd non-defining primes")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    b = subs.add_parser("blocks", help="emit the block table")
    _add_common(b)
    b.set_defaults(func=cmd_report)

    v = subs.add_parser("verify", help="run per-block checks")
    _add_common(v)
    v.add_argument("--checks", default=None,
                   help="comma list from: " + ",".join(ALL_CHECKS))
    v.set_defaults(func=cmd_report)

    s = subs.add_parser("sweep", help="run a grid and compare to the cache")
    _add_common(s, grid=True)
    s.add_argument("--checks", default=None,
                   help="comma list from: " + ",".join(ALL_CHECKS))
    s.add_argument("--cache-dir", default=None,
                   help="cache directory (or SP_BAW_CACHE_DIR)")
    s.set_defaults(func=cmd_sweep)
    return parser


def _check_out_dir(out):
    """Refuse an --out whose directory is missing before any work is done."""
    folder = os.path.dirname(out) if out else ""
    if folder and not os.path.isdir(folder):
        raise ValueError(f"cannot write {out}: {folder} is not a directory")


_freeze_registered = False


def main(argv=None):
    # Exit hooks run last in, first out, so the freeze runs before the
    # hooks registered ahead of the first main and after those behind it.
    global _freeze_registered
    if not _freeze_registered:
        atexit.register(gc.freeze)
        _freeze_registered = True
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out_dir(args.out)
        return args.func(args)
    except (ValueError, OSError) as exc:
        parser.exit(2, f"sp-baw: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
