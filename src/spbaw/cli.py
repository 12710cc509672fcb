"""Batch command-line front end.

  sp-baw blocks  --p 3 --f 1 --ell 5 --n 1          block table
  sp-baw verify  --p 3 --f 1 --ell 5 --n 2          counts/bijection checks
  sp-baw sweep   --p 3 --f 1 --ell 5,7 --n 1,2      grid + regression cache

`parse_args` reads a command's options off its table in COMMANDS, as
--name value or --name=value, with any unique prefix of a name; -h prints
the tables.  Reports are JSON (or a flat CSV projection) with a stable
schema, byte identical across runs and --jobs settings.  `sweep --jobs N`
runs its grid points in up to N processes (forked workers, no more than
the usable CPUs); `verify` and `blocks` ignore the flag.  Exit codes: 0
all requested checks pass, 1 a check failed (an internal fault in a report
counts as a failed check), 2 a usage or configuration error, after one
`sp-baw: error:` line (an unknown or ambiguous option, a rank or --jobs
below 1, a size over --work-limit, or an output that cannot be written).

`main` registers `gc.freeze` with `atexit` once per process, so the memo
tables' labels, symbols and classes skip the interpreter's finalizing
collections; module teardown, the other exit hooks and the flushes run.
"""

import atexit
import gc
import io
import json
import os
import sys
from functools import lru_cache
from types import SimpleNamespace

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
    """A report record per block.  The Brauer-to-weight pairs of every
    block come first: together they are the rank's bijection, in which
    equivariance looks up moved labels.  Then each block's weight side is
    built, checked and released before the next block's."""
    records = [ls.block_jsonable(ctx, b) for b in blocks]
    if not checks:
        return records
    pairs = [bc.block_pairs(ctx, b) for b in blocks]
    bijection = {ib: w for block_pairs in pairs for ib, w in block_pairs}
    for block, rec, block_pairs in zip(blocks, records, pairs):
        rec.update(bc.verify_block(ctx, bc.block_table(ctx, block, block_pairs),
                                   bijection, checks))
    return records


def _partition(ctx, n, blocks, records):
    """(universe_size, witness): universe_size is semisimple_ibr_count
    summed over the ell-regular semisimple labels; witness is None when
    each label's Brauer labels, summed over its blocks, number its count,
    else the first label that differs, with both counts.  Checked per
    label, miscounts cannot cancel across labels."""
    found = dict.fromkeys(ls.enumerate_semisimple(ctx, n), 0)
    for block, rec in zip(blocks, records):
        found[block.s] += rec["n_ibr"]
    size, witness = 0, None
    for s, count in found.items():
        expected = ls.semisimple_ibr_count(ctx, s)
        size += expected
        if count != expected and witness is None:
            witness = {"s": ls.semisimple_jsonable(s), "n_ibr": count,
                       "universe": expected}
    return size, witness


def _build_report(ctx, n, checks):
    blocks = ls.enumerate_blocks(ctx, n)
    records = _run_blocks(ctx, blocks, checks)
    report = {
        "version": __version__,
        "context": _context_jsonable(ctx),
        "n": n,
        "checks": sorted(checks),
        "blocks": records,
        "summary": {
            "n_blocks": len(records),
            "total_ibr": sum(r.get("n_ibr", 0) for r in records),
            "all_pass": all(bc.block_passes(r, checks) for r in records),
        },
    }
    if "invariants" in checks:
        summary = report["summary"]
        summary["universe_size"], partition = _partition(ctx, n, blocks, records)
        for name, witness in (("partition", partition),
                              ("action_laws", bc.verify_action_laws(ctx, n))):
            summary[name + "_ok"] = witness is None
            if witness is not None:
                summary.update({name + "_witness": witness, "all_pass": False})
    return report


# A report, fresh dicts over memoized fragments of immutable labels, has no cycle.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


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
    verdicts = ["n_ibr", "n_weights_q", "n_weights_k",
                *(verdict for verdict, _ in bc.VERDICTS.values())]
    fields = ["p", "f", "q", "ell", "e", "epsilon", "n", "s", "kappa", "i", "w", *verdicts]
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    ctx = report["context"]
    for rec in report["blocks"]:
        writer.writerow({**ctx, "n": report["n"], "i": rec["i"],
                         **{k: _ENCODER.encode(rec[k]) for k in ("s", "kappa", "w")},
                         **{k: rec.get(k, "") for k in verdicts}})
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


def _options(axis, *extra):
    """An option table, name -> (type, default, help): every command's
    options, with axis the type of the grid axes (text on sweep), then extra."""
    return {"--p": (axis, None, "odd prime p"), "--f": (axis, axis("1"), "f in q = p^f"),
            "--ell": (axis, None, "odd prime ell different from p"),
            "--n": (axis, None, "symplectic rank n"), "--out": (str, None, "report file"),
            "--jobs": (int, 1, "at least 1: a sweep's processes; bytes do not depend on it"),
            "--work-limit": (int, DEFAULT_WORK_LIMIT, "refuse a bound q^(2n+1) above this"),
            **dict(extra)}


_FORMAT = ("--format", (str, "json", "json or csv"))
_CHECKS = ("--checks", (str, None, "comma list from: " + ",".join(ALL_CHECKS)))
# command -> (function, help, option table); --p, --ell and --n are required
COMMANDS = {"blocks": (cmd_report, "emit the block table", _options(int, _FORMAT)),
            "verify": (cmd_report, "run per-block checks", _options(int, _FORMAT, _CHECKS)),
            "sweep": (cmd_sweep, "run a grid and compare to the cache", _options(
                str, _CHECKS, ("--cache-dir", (str, None, "dir, or SP_BAW_CACHE_DIR"))))}


def _usage(command):
    """The help text of command: its usage and its option table."""
    _, text, table = COMMANDS[command]
    return (f"usage: sp-baw {command} --p P --ell ELL --n N [--name[=]value ...]\n\n{text}\n\n"
            + "".join(f"  {name:13}{help}{'' if default is None else f' (default {default})'}\n"
                      for name, (_, default, help) in table.items()))


def _match(word, names):
    """The one name of names that word is, or else is a prefix of: - and -- are none."""
    found = ([word] if word in names else
             [n for n in names if word.strip("-") and n.startswith(word)])
    if len(found) == 1:
        return found[0]
    raise ValueError(f"ambiguous option: {word} could match {', '.join(found)}" if found
                     else f"unrecognized arguments: {word}")


def parse_args(argv):
    """The command and its option values, as attributes named like the
    options.  Prints the help or the version and exits 0 when asked; a
    usage error raises ValueError."""
    if not argv or argv[0] not in COMMANDS and not argv[0].startswith("-"):
        raise ValueError("the first argument must be a command: " + ", ".join(COMMANDS))
    if argv[0] not in COMMANDS:
        version = _match(argv[0], ("-h", "--help", "--version")) == "--version"
        sys.stdout.write(__version__ + "\n" if version else "\n".join(map(_usage, COMMANDS)))
        raise SystemExit(0)
    command, tokens = argv[0], iter(argv[1:])
    func, _, table = COMMANDS[command]
    values = {name: default for name, (_, default, _) in table.items()}
    for token in tokens:
        word, eq, value = token.partition("=")
        name = _match(word, [*table, "-h", "--help"])
        if name in ("-h", "--help"):
            sys.stdout.write(_usage(command))
            raise SystemExit(0)
        value = value if eq else next(tokens, None)
        if value is None:
            raise ValueError(f"argument {name}: expected one argument")
        try:
            values[name] = table[name][0](value)
        except ValueError:
            raise ValueError(f"argument {name}: invalid int value: {value!r}") from None
        if name == "--format" and value not in ("json", "csv"):
            raise ValueError(f"argument --format: {value!r} is neither json nor csv")
        if name == "--jobs" and values[name] < 1:
            raise ValueError(f"argument --jobs: must be at least 1, got {values[name]}")
    missing = ", ".join(name for name in ("--p", "--ell", "--n") if values[name] is None)
    if missing:
        raise ValueError("the following arguments are required: " + missing)
    return SimpleNamespace(command=command, func=func,
                           **{name[2:].replace("-", "_"): v for name, v in values.items()})


def _check_out_dir(out):
    """Refuse an --out that is a directory, or whose directory is missing,
    before any work is done."""
    folder = os.path.dirname(out) if out else ""
    if folder and not os.path.isdir(folder):
        raise ValueError(f"cannot write {out}: {folder} is not a directory")
    if out and os.path.isdir(out):
        raise ValueError(f"cannot write {out}: it is a directory")


@lru_cache(maxsize=None)
def _register_freeze():
    """Register gc.freeze with atexit, once per process.  Exit hooks run
    last in, first out, so the freeze runs before the hooks registered
    ahead of the first main and after those behind it."""
    atexit.register(gc.freeze)


def main(argv=None):
    _register_freeze()
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        _check_out_dir(args.out)
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"sp-baw: error: {exc}\n")
        raise SystemExit(2)


if __name__ == "__main__":
    sys.exit(main())
