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
"""

import argparse
import io
import json
import os
import sys
from itertools import product

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
    checks = set(text.split(",")) if text else set(ALL_CHECKS)
    unknown = checks - set(ALL_CHECKS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    return checks


def _run_blocks(ctx, n, blocks, checks):
    """A report record and a label table per block; no tables without checks."""
    records = [ls.block_jsonable(ctx, b) for b in blocks]
    if not checks:
        return records, []
    tables = [bc.block_table(ctx, b) for b in blocks]
    bijection = bc.bijection_of(tables)
    generators = [bc.FIELD(1), bc.DIAGONAL]
    for block, rec, table in zip(blocks, records, tables):
        rec.update(bc.verify_block(ctx, table))
        if "equivariance" in checks:
            violations = bc.verify_equivariance_of_block(
                ctx, table.pairs, bijection, generators)
            rec["equivariant"] = not violations
            if violations:
                rec["equivariance_witness"] = violations[0]
        if "invariants" in checks:
            try:
                weights = ls.block_weights(ctx, block)
                ls.audit_block(ctx, block, weights, n)
                for wq in table.k_images:
                    ls.audit_weight_label(ctx, wq, weights)
                rec["invariants_ok"] = True
            except ls.CheckFailed:
                rec["invariants_ok"] = False
    return records, tables


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


def _build_report(ctx, n, checks):
    records, tables = _run_blocks(ctx, n, ls.enumerate_blocks(ctx, n), checks)
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
        report["summary"]["universe_size"] = ls.universe_size(ctx, n)
        report["summary"]["partition_ok"] = (
            report["summary"]["total_ibr"] == report["summary"]["universe_size"])
        if not report["summary"]["partition_ok"]:
            report["summary"]["all_pass"] = False
        try:
            bc.verify_action_laws(ctx, [ib for t in tables for ib, _ in t.pairs],
                                  [w for t in tables for w in t.weights_q])
            report["summary"]["action_laws_ok"] = True
        except ls.CheckFailed:
            report["summary"]["action_laws_ok"] = False
            report["summary"]["all_pass"] = False
    return report


def _report_json(report):
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


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
            "s": json.dumps(rec["s"], sort_keys=True, separators=(",", ":")),
            "kappa": json.dumps(rec["kappa"], sort_keys=True, separators=(",", ":")),
            "i": rec["i"],
            "w": json.dumps(rec["w"], sort_keys=True, separators=(",", ":")),
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


def _differs_in_version_only(cached, report):
    """True when the cached report text is report's bytes up to "version"."""
    try:
        old = json.loads(cached)
    except ValueError:
        return False
    return (isinstance(old, dict) and
            _report_json({**old, "version": report["version"]}) == _report_json(report))


def _int_list(text):
    return [int(x) for x in text.split(",") if x]


def _entry(point):
    return dict(zip(("p", "f", "ell", "n"), point))


def _sweep_point(point, checks, cache_dir, work_limit):
    """One grid point of a sweep: its summary entry and exit status.  An
    OSError (a cache that cannot be read or written) propagates."""
    p, f, ell, n = point
    entry = _entry(point)
    try:
        _check_work_limit(p, f, n, work_limit)
        ctx = make_context(p, f, ell)
    except ValueError as exc:
        entry.update(status="error", error=str(exc))
        return entry, 2
    report = _report_or_failure(ctx, n, checks)
    if not report["summary"]["all_pass"]:
        if "failed" in report:
            entry["failed"] = report["failed"]
        entry["status"] = "failed"
        return entry, 1
    key = f"p{p}_f{f}_ell{ell}_n{n}_" + "-".join(sorted(checks))
    path = os.path.join(cache_dir, key + ".json")
    text = _report_json(report)
    if not os.path.exists(path):
        _emit(text, path)
        entry["status"] = "new"
        return entry, 0
    with open(path) as fh:
        cached = fh.read()
    if cached == text:
        entry["status"] = "match"
    elif _differs_in_version_only(cached, report):
        entry["status"] = "version_changed"
    else:
        entry["status"] = "regression"
        return entry, 1
    return entry, 0


def cmd_sweep(args):
    from . import sweep   # the shards and their workers: only a sweep loads it

    cache_dir = args.cache_dir or os.environ.get("SP_BAW_CACHE_DIR")
    if not cache_dir:
        raise ValueError("sweep needs --cache-dir or SP_BAW_CACHE_DIR")
    checks = _parse_checks(args.checks)
    os.makedirs(cache_dir, exist_ok=True)
    points = list(product(*map(_int_list, (args.p, args.f, args.ell, args.n))))
    results = sweep.run_sharded(
        points, sweep.shards(points, args.jobs, args.work_limit),
        lambda point: _sweep_point(point, checks, cache_dir, args.work_limit))
    entries = [entry for entry, _ in results]
    summary = {"version": __version__, "cache_dir": cache_dir,
               "configs": entries,
               "regressions": sum(1 for r in entries
                                  if r["status"] in ("regression", "failed"))}
    _emit(_report_json(summary), args.out)
    return max((status for _, status in results), default=0)


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


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out_dir(args.out)
        return args.func(args)
    except (ValueError, OSError) as exc:
        parser.exit(2, f"sp-baw: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
