"""`sp-baw sweep`: its grid points, the regression cache, and the shards
and forked workers that run them.

`run_grid` runs every grid point through one per-point function,
`_sweep_point` (work-limit refusal, report, cache write or compare).  It
splits the points into shards (`shards`) and hands them to `run_sharded`:
every shard but the first runs in a forked worker, which sends its entries
back as JSON over a pipe, and the entries are merged in grid order, so the
summary and the cache bytes do not depend on --jobs.  The CLI imports this
module only for `sweep`, so `verify` and `blocks` do not compile or load
it.
"""

import json
import os
import sys
from itertools import product

from . import __version__, cli
from .fieldctx import make_context


def _usable_cpus():
    """CPUs this process may run on; 1 where it cannot fork workers."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def shards(points, jobs, work_limit):
    """The grid indices of points split into at most min(jobs, distinct
    points, usable CPUs) shards, each in grid order.  Points are placed
    largest-first by their size bound (0 for a refused point) on the
    least-loaded shard.  A repeated point stays on one shard, so that it
    sees the cache file the first one wrote, as in a serial sweep."""
    units = {}
    for i, point in enumerate(points):
        units.setdefault(point, []).append(i)
    k = max(1, min(jobs, len(units), _usable_cpus()))
    if k == 1:
        return [list(range(len(points)))]

    costs = {}
    for point, indices in units.items():
        p, f, _, n = point
        bound = cli._work_bound(p, f, n, work_limit) if n >= 1 else None
        costs[point] = len(indices) * (bound or 0)
    loads, out = [0] * k, [[] for _ in range(k)]
    for point in sorted(units, key=costs.__getitem__, reverse=True):
        s = loads.index(min(loads))
        loads[s] += costs[point]
        out[s] += units[point]
    return [sorted(shard) for shard in out if shard]


def _fork_worker(work, shard):
    """Run work(shard) in a forked worker; returns its pid and the read end
    of the pipe that brings its JSON payload: {"results": work(shard)}, or
    {"raise": [is_oserror, message]} for a ValueError or OSError, which the
    parent raises again.  The worker leaves by os._exit, and ends at its
    BrokenPipeError if the parent has died."""
    r, w = os.pipe()
    pid = os.fork()
    if pid:
        os.close(w)
        return pid, r
    code = 1
    try:
        os.close(r)
        try:
            payload = {"results": work(shard)}
        except (ValueError, OSError) as exc:
            payload = {"raise": [isinstance(exc, OSError), str(exc)]}
        with open(w, "w") as fh:
            fh.write(json.dumps(payload))
        code = 0
    except BrokenPipeError:
        pass
    except BaseException:   # report it; the worker never returns to its caller
        sys.excepthook(*sys.exc_info())
        sys.stderr.flush()
    finally:
        os._exit(code)


def _reap(pid, fd, size):
    """Wait for a worker and return its payload, read to EOF; or, when it
    sent none, a message naming its exit status."""
    with open(fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    try:
        payload = json.loads(data)
    except ValueError:
        payload = None
    if isinstance(payload, dict) and (
            "raise" in payload or len(payload.get("results", ())) == size):
        return payload
    code = os.waitstatus_to_exitcode(status)
    how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
    return f"WorkerFailed: sweep worker {how} without a report"


def run_sharded(points, shards, run):
    """[run(point) for point in points]: this process runs the first shard
    while a forked worker runs each other one (the CLI starts no thread,
    so forking is safe).  A worker that sends no results marks its points
    failed; every worker is reaped before this returns or raises."""
    def run_shard(shard):
        return [run(points[i]) for i in shard]

    workers, done = [], []
    sys.stdout.flush()   # a worker must not write this process's buffers
    sys.stderr.flush()
    try:
        for shard in shards[1:]:
            workers.append((shard, *_fork_worker(run_shard, shard)))
        done.append((shards[0], {"results": run_shard(shards[0])}))
    finally:
        done += [(shard, _reap(pid, fd, len(shard))) for shard, pid, fd in workers]
    results, raised = [None] * len(points), None
    for shard, payload in done:
        if isinstance(payload, str):
            payload = {"results": [
                (dict(_entry(points[i]), status="failed", failed=payload), 1)
                for i in shard]}
        raised = raised or payload.get("raise")
        for i, result in zip(shard, payload.get("results", ())):
            results[i] = tuple(result)
    if raised:
        is_oserror, message = raised
        raise (OSError if is_oserror else ValueError)(message)
    return results


def _differs_in_version_only(cached, text):
    """True when the cached report bytes are text, a report this version
    wrote, up to "version"."""
    try:
        old = json.loads(cached)
    except ValueError:
        return False
    return (isinstance(old, dict) and
            cli._report_json({**old, "version": __version__}) == text)


def _int_list(name, text):
    """The values of the grid axis --name; an axis with none, or with an
    empty or non-integer item, is refused."""
    items = text.split(",")
    if not any(items):
        raise ValueError(f"--{name} lists no values")
    if not all(items):
        raise ValueError(f"--{name} has an empty item: {text!r}")
    values = []
    for x in items:
        try:
            values.append(int(x))
        except ValueError:
            raise ValueError(f"--{name} has a non-integer item: {x!r}") from None
    return values


def _entry(point):
    return dict(zip(("p", "f", "ell", "n"), point))


def _sweep_point(point, checks, cache_dir, work_limit):
    """One grid point of a sweep: its summary entry and exit status.  An
    OSError (a cache that cannot be read or written) propagates."""
    p, f, ell, n = point
    entry = _entry(point)
    try:
        cli._check_work_limit(p, f, n, work_limit)
        ctx = make_context(p, f, ell)
    except ValueError as exc:
        entry.update(status="error", error=str(exc))
        return entry, 2
    report = cli._report_or_failure(ctx, n, checks)
    if not report["summary"]["all_pass"]:
        if "failed" in report:
            entry["failed"] = report["failed"]
        entry["status"] = "failed"
        return entry, 1
    key = f"p{p}_f{f}_ell{ell}_n{n}_" + "-".join(sorted(checks))
    path = os.path.join(cache_dir, key + ".json")
    text = cli._report_json(report)
    if not os.path.exists(path):
        cli._emit(text, path)
        entry["status"] = "new"
        return entry, 0
    with open(path, "rb") as fh:   # bytes: an undecodable file differs
        cached = fh.read()
    if cached == text.encode():
        entry["status"] = "match"
    elif _differs_in_version_only(cached, text):
        entry["status"] = "version_changed"
    else:
        entry["status"] = "regression"
        return entry, 1
    return entry, 0


def run_grid(args):
    """The sweep command: writes the summary of every grid point and
    returns the worst exit status."""
    cache_dir = args.cache_dir or os.environ.get("SP_BAW_CACHE_DIR")
    if not cache_dir:
        raise ValueError("sweep needs --cache-dir or SP_BAW_CACHE_DIR")
    checks = cli._parse_checks(args.checks)
    points = list(product(*(_int_list(name, getattr(args, name))
                            for name in ("p", "f", "ell", "n"))))
    os.makedirs(cache_dir, exist_ok=True)
    results = run_sharded(
        points, shards(points, args.jobs, args.work_limit),
        lambda point: _sweep_point(point, checks, cache_dir, args.work_limit))
    entries = [entry for entry, _ in results]
    summary = {"version": __version__, "cache_dir": cache_dir,
               "configs": entries,
               "regressions": sum(1 for r in entries
                                  if r["status"] in ("regression", "failed"))}
    cli._emit(cli._report_json(summary), args.out)
    return max((status for _, status in results), default=0)
