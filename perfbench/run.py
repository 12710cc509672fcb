"""Benchmark of the `sp-baw` command.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

A workload is a fixed list of `sp-baw` commands (WORKLOADS below).  Every
command runs in a fresh interpreter, as it does for a user, so the
package's memo tables start cold each time.  A pass runs the workload's
commands one after another, in an order drawn from the seed; the inputs
never depend on the seed.  Passes repeat while the next one is expected to
end within --seconds, and there is always at least one.

Every report is checked: exit status 0, `all_pass`, the sha256 of its
bytes and its summary counts against golden.json, and, where e > n, the
block and Brauer-label counts against Wall's class number (oracle.py).

--trace 0 prints the end-to-end metrics, from the times of all passes
(see end_to_end_metrics).  --trace 1 alternates
untraced and traced passes (child.py, tracer.py), at least one of each, and
prints the per-layer metrics.  Human-readable lines come first; the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  Exit status: 0 when every command passed its checks, 1 when
one failed, 2 when the repository or the arguments are unusable.
"""

import argparse
import hashlib
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import reference
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK_ROOT = ROOT / ".perfbench-work"
RUN_LIMIT_S = 170        # a run must end within 180 s; children are killed past this
PROBES_PER_PASS = 12     # set-up probes spread over each untraced pass
REF_SHARE = 0.25         # reference-task time after a command, over its time
REF_MIN = 2              # reference-task runs after a command, at least

# (p, f, ell, n) tuples; the reasons for each choice are in README.md.
WORKLOADS = {
    "classtable": {"verify": [(5, 1, 3, 3), (3, 2, 5, 2)]},
    "bijection": {"verify": [(3, 1, 7, 3), (3, 1, 13, 3), (3, 1, 5, 3)]},
    "sweep-jobs2": {"sweep": {"p": 3, "f": 1, "ell": [5, 11], "n": [2, 3],
                              "jobs": 2}},
}

FIELD_UNITS = {"calls": "count", "items": "count", "s": "s"}
# Per-layer units of exact counts and ratios of counts; the other per-layer
# figures are timings.
EXACT_UNITS = {"count", "B", "calls/ibr", "classes/call"}
END_TO_END_UNITS = {"wall_ref": "ref", "ibr_per_ref": "1/ref",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class CommandFailed(Exception):
    pass


class Runner:
    """Spawns the commands of one benchmark run inside its own work
    directory and holds the run's deadline and golden reports."""

    def __init__(self, work, golden, deadline):
        self.work = work
        self.golden = golden
        self.deadline = deadline
        self.attempted = 0      # workload commands started
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=src + (os.pathsep + path if path else ""))

    def spawn(self, argv):
        """Run one child to completion.  Returns (start, end, stdout bytes,
        result-file dict)."""
        result = self.work / "result.json"
        if result.exists():
            result.unlink()
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.monotonic()
            cmd = [sys.executable, str(CHILD), argv[0], str(result)] + argv[1:]
            proc = subprocess.Popen(cmd, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            try:
                fd = os.pidfd_open(proc.pid)
                try:
                    timely = select.select(
                        [fd], [], [], max(0.0, self.deadline - start))[0]
                finally:
                    os.close(fd)
                if not timely:
                    proc.kill()
                _, status, _ = os.wait4(proc.pid, 0)
                end = time.monotonic()
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                if proc.returncode is None:     # interrupted before reaping
                    proc.kill()
                    proc.wait()
        if not timely:
            raise CommandFailed(f"{argv}: killed after the run's "
                                f"{RUN_LIMIT_S} s limit")
        stderr = err_path.read_text(errors="replace").strip()
        if proc.returncode != 0:
            raise CommandFailed(f"{argv}: exit status {proc.returncode}"
                                + (f": {stderr[-500:]}" if stderr else ""))
        try:
            info = json.loads(result.read_text())
        except (OSError, ValueError) as exc:
            raise CommandFailed(f"{argv}: no result file ({exc})") from exc
        return start, end, out_path.read_bytes(), info

    def check_report(self, data):
        """Check one report's bytes; returns its configuration (p, f, ell,
        n) and its total_ibr."""
        try:
            report = json.loads(data)
            ctx, summary = report["context"], report["summary"]
            cfg = (ctx["p"], ctx["f"], ctx["ell"], report["n"])
        except (ValueError, KeyError, TypeError) as exc:
            raise CommandFailed(f"unreadable report: {exc}") from exc
        key = ",".join(map(str, cfg))
        want = self.golden.get(key)
        if want is None:
            raise CommandFailed(f"{key}: no golden report")
        if not summary.get("all_pass"):
            raise CommandFailed(f"{key}: all_pass is {summary.get('all_pass')}")
        digest = hashlib.sha256(data).hexdigest()
        if digest != want["sha256"]:
            raise CommandFailed(f"{key}: report sha256 {digest} differs from "
                                f"the golden {want['sha256']}")
        for name in ("n_blocks", "total_ibr", "universe_size"):
            if summary.get(name) != want[name]:
                raise CommandFailed(f"{key}: {name} {summary.get(name)} != "
                                    f"golden {want[name]}")
        k = oracle.expected_count(*cfg)
        if k is not None and not summary["total_ibr"] == summary["n_blocks"] == k:
            raise CommandFailed(
                f"{key}: total_ibr {summary['total_ibr']} and n_blocks "
                f"{summary['n_blocks']} must both equal k(Sp_2n(q)) = {k}")
        return cfg, summary["total_ibr"]

    def setup_time(self, p, f, ell):
        """Seconds from spawn until a fresh interpreter has imported
        spbaw.cli and returned from make_context(p, f, ell)."""
        start, _, _, info = self.spawn(["probe", str(p), str(f), str(ell)])
        return info["ready"] - start

    def reference_time(self):
        """Seconds from spawn to exit of a fresh interpreter running the
        reference task (reference.py): the machine's current speed."""
        start, end, out, _ = self.spawn(["reference"])
        if out.decode(errors="replace").strip() != reference.CHECKSUM:
            raise CommandFailed(f"reference task printed {out[:100]!r}, "
                                f"expected {reference.CHECKSUM!r}")
        return end - start


def verify_args(cfg):
    p, f, ell, n = cfg
    return ["verify", "--p", str(p), "--f", str(f), "--ell", str(ell),
            "--n", str(n)]


def plan_pass(spec, rng):
    """The pass's commands in seeded order, as (label, sp-baw args, expect,
    (p, f, ell) for the set-up probe).  `expect` is the configuration of a
    `verify`, or the status a sweep must report for every configuration.
    A sweep's two commands must stay in order (the second compares against
    what the first wrote), so the seed permutes its grid lists instead."""
    if "verify" in spec:
        cfgs = list(spec["verify"])
        rng.shuffle(cfgs)
        return [("verify " + ",".join(map(str, c)), verify_args(c), c, c[:3])
                for c in cfgs]
    sw = spec["sweep"]
    ells, ns = list(sw["ell"]), list(sw["n"])
    rng.shuffle(ells)
    rng.shuffle(ns)
    args = ["sweep", "--p", str(sw["p"]), "--f", str(sw["f"]),
            "--ell", ",".join(map(str, ells)), "--n", ",".join(map(str, ns)),
            "--jobs", str(sw["jobs"])]
    label = f"sweep ell={','.join(map(str, ells))} n={','.join(map(str, ns))}"
    probe = (sw["p"], sw["f"], ells[0])
    return [(label + " (writes)", args, "new", probe),
            (label + " (compares)", args, "match", probe)]


def sweep_configs(spec):
    sw = spec["sweep"]
    return {(sw["p"], sw["f"], ell, n) for ell in sw["ell"] for n in sw["n"]}


def run_pass(runner, spec, commands, traced, probes, gauge):
    """One pass over the workload.  Returns a dict of its figures; raises
    CommandFailed at the first command that fails a check.  `probes`
    set-up probes run before each command, so that they sample the machine
    over the whole run rather than in one burst.  `gauge` is None, or the
    mean time of the reference task over its last runs: the reference task
    then runs after each command, at least REF_MIN times and until its runs
    add up to REF_SHARE of the command's time, and each command's time is
    also taken over the mean of the reference times just before and just
    after it."""
    cache = runner.work / "cache"
    if cache.exists():
        shutil.rmtree(cache)
    mode = "trace" if traced else "run"
    jobs = spec["sweep"]["jobs"] if "sweep" in spec else 1
    walls, rel, ibr, rss_kb, traces, setups, refs = {}, {}, 0, 0, [], [], []
    for _, args, expect, probe in commands:
        setups += [runner.setup_time(*probe) for _ in range(probes)]
        sweep = expect in ("new", "match")
        if sweep:
            args = args + ["--cache-dir", str(cache)]
        runner.attempted += 1
        start, end, out, info = runner.spawn([mode, "--"] + args)
        walls[expect] = end - start
        if gauge is not None:
            after = []
            while (len(after) < REF_MIN
                   or sum(after) < REF_SHARE * walls[expect]):
                after.append(runner.reference_time())
            refs += after
            after = statistics.fmean(after)
            rel[expect] = walls[expect] / ((gauge + after) / 2)
            gauge = after
        rss_kb = max(rss_kb, info["peak_rss_kb"])
        if traced:
            traces.append((jobs, info["trace"]))
        if sweep:
            ibr += check_sweep(runner, spec, cache, out, expect)
        else:
            cfg, n_ibr = runner.check_report(out)
            if cfg != expect:
                raise CommandFailed(f"report on {cfg}, expected one on {expect}")
            ibr += n_ibr
    return {"walls": walls, "rel": rel, "ibr": ibr, "rss_kb": rss_kb,
            "traces": traces, "setups": setups, "gauge": gauge,
            "refs": refs}


def check_sweep(runner, spec, cache, out, status):
    """Check a sweep summary and every report in its cache directory;
    returns the Brauer labels the sweep verified."""
    want = sweep_configs(spec)
    try:
        summary = json.loads(out)
        got = {(c["p"], c["f"], c["ell"], c["n"]): c["status"]
               for c in summary["configs"]}
    except (ValueError, KeyError, TypeError) as exc:
        raise CommandFailed(f"unreadable sweep summary: {exc}") from exc
    if set(got) != want or set(got.values()) != {status}:
        raise CommandFailed(f"sweep statuses {sorted(got.items())}, expected "
                            f"{status!r} for each of {sorted(want)}")
    if summary.get("regressions") != 0:
        raise CommandFailed(f"sweep regressions: {summary.get('regressions')}")
    checked = [runner.check_report(path.read_bytes())
               for path in sorted(cache.iterdir())]
    cfgs = [cfg for cfg, _ in checked]
    if sorted(cfgs) != sorted(want):
        raise CommandFailed(f"sweep cache holds reports on {sorted(cfgs)}, "
                            f"expected {sorted(want)}")
    return sum(n_ibr for _, n_ibr in checked)


def layer_metrics(traces, ibr, overhead):
    """Fold the per-command trace summaries of one traced pass into the
    named per-layer metrics, each as (value, unit)."""
    funcs, modules = {}, dict.fromkeys(LAYERS, 0.0)
    block_cpu = jobs_phase = 0.0
    tables = written = read = 0
    for jobs, tr in traces:
        for name, rec in tr["functions"].items():
            acc = funcs.setdefault(name, {"calls": 0, "items": 0, "s": 0.0})
            acc["calls"] += rec["calls"]
            acc["items"] += rec["items"]
            acc["s"] += rec["self_s"]
        for name, self_s in tr["modules"].items():
            modules[name] += self_s
        block_cpu += tr["block_cpu_s"]
        jobs_phase += jobs * tr["block_phase_s"]
        tables += tr["class_tables"]
        written += tr["bytes_written"]
        read += tr["bytes_read"]
    empty = {"calls": 0, "items": 0, "s": 0.0}
    out = {}
    for mod_name, fns in LAYERS.items():
        for fn_name, fields in fns.items():
            name = f"{mod_name}.{fn_name}"
            rec = funcs.get(name, empty)
            for field in fields.split():
                out[f"{name}.{field}"] = (rec[field], FIELD_UNITS[field])
    total_self = sum(modules.values())
    for name in LAYERS:
        out[f"{name}.self_s"] = (modules[name], "s")
    for name in ("ffpoly", "symbcomb"):
        out[f"{name}.share"] = (modules[name] / total_self, "ratio")
    calls = lambda name: funcs.get(name, empty)["calls"]
    out["ffpoly.useful_ratio"] = (
        tables / max(1, calls("ffpoly.is_irreducible")), "classes/call")
    out["symbcomb.from_core_quotient_sym.calls_per_ibr"] = (
        calls("symbcomb.from_core_quotient_sym") / ibr, "calls/ibr")
    out["bawcheck.brauer_to_weight.calls_per_ibr"] = (
        calls("bawcheck.brauer_to_weight") / ibr, "calls/ibr")
    out["cli.jobs_efficiency"] = (block_cpu / jobs_phase, "ratio")
    out["cli.cache_bytes_written"] = (written, "B")
    out["cli.cache_bytes_read"] = (read, "B")
    out["trace.overhead"] = (overhead, "ratio")
    return out


def run(args, spec, golden):
    """One benchmark run of the workload `spec` (a value of WORKLOADS)
    named `args.workload`; returns the result object."""
    rng = random.Random(args.seed)
    started = time.monotonic()
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    runner = Runner(work, golden, started + RUN_LIMIT_S)
    passes, failure = [], None
    try:
        commands = plan_pass(spec, rng)
        runner.setup_time(*commands[0][3])  # writes the bytecode caches; not timed
        probes = 0 if args.trace else max(1, PROBES_PER_PASS // len(commands))
        gauge = None
        if not args.trace:
            runner.reference_time()     # writes its bytecode cache; not used
            gauge = statistics.fmean(runner.reference_time() for _ in range(3))
        t0 = time.monotonic()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            print(f"pass {len(passes) + 1}{' traced' if traced else ''}: "
                  + " | ".join(c[0] for c in commands), flush=True)
            t_pass = time.monotonic()
            passes.append(run_pass(runner, spec, commands, traced, probes,
                                   gauge))
            gauge = passes[-1]["gauge"]
            now = time.monotonic()
            if not (args.trace and len(passes) < 2) and (
                    now - t0 + now - t_pass > args.seconds):
                break
            commands = plan_pass(spec, rng)
    except CommandFailed as exc:
        failure = str(exc)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    failed = 1 if failure else 0
    attempted = max(runner.attempted, failed)   # a failed setup probe counts
    if failure:
        print(f"FAILED: {failure}", flush=True)
    print(f"failed_frac: {failed / attempted:g} ({failed} of {attempted} "
          f"commands failed)", flush=True)
    if failure:
        return {"correct": False, "attempted": attempted, "failed": failed,
                "metrics": {}}
    if args.trace:
        metrics = traced_metrics(passes)
    else:
        metrics = end_to_end_metrics(passes)
    return {"correct": True, "attempted": attempted, "failed": 0,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def end_to_end_metrics(passes):
    """wall_ref sums, over the workload's commands, the median over passes
    of each command's time in reference units (its wall time over the mean
    time of the reference task run just before and just after it), so that
    the machine's speed, which drifts on a shared host, cancels out.
    ibr_per_ref is a pass's Brauer labels over wall_ref.  wall_s and
    ibr_per_s, printed alongside, are the same figures in seconds.  setup_s
    is the fastest of the run's many short probes."""
    per_command, rel = {}, {}
    for p in passes:
        for key, wall in p["walls"].items():
            per_command.setdefault(key, []).append(wall)
            rel.setdefault(key, []).append(p["rel"][key])
    wall = sum(statistics.median(v) for v in per_command.values())
    wall_ref = sum(statistics.median(v) for v in rel.values())
    setups = [t for p in passes for t in p["setups"]]
    rss = [p["rss_kb"] / 1024 for p in passes]
    ibr = passes[0]["ibr"]
    for key, values in per_command.items():
        print(f"command {key}: median {statistics.median(rel[key]):.6g} ref, "
              f"{statistics.median(values):.6g} s; each pass: "
              + " ".join(f"{v:.4g}" for v in values) + " s, "
              + " ".join(f"{v:.4g}" for v in rel[key]) + " ref")
    metrics = {"wall_ref": wall_ref,
               "ibr_per_ref": ibr / wall_ref,
               "setup_s": min(setups),
               "peak_rss_mb": statistics.median(rss)}
    print(f"wall_ref: {wall_ref:.6g} ref, sum of per-command medians over "
          f"{len(passes)} passes")
    print(f"ibr_per_ref: {metrics['ibr_per_ref']:.6g} 1/ref ({ibr} Brauer "
          f"labels per pass)")
    print(f"wall_s: {wall:.6g} s, sum of per-command medians")
    print(f"ibr_per_s: {ibr / wall:.6g} 1/s")
    refs = [t for p in passes for t in p["refs"]]
    print(f"reference task: median {statistics.median(refs):.6g} s of "
          f"{len(refs)} runs after the commands: "
          + " ".join(f"{v:.4g}" for v in refs))
    print(f"setup_s: {metrics['setup_s']:.6g} s, min of {len(setups)} "
          f"probes (median {statistics.median(setups):.6g} s): "
          + " ".join(f"{v:.4g}" for v in setups))
    print(f"peak_rss_mb: {metrics['peak_rss_mb']:.6g} MB, median of "
          f"{len(rss)} passes: " + " ".join(f"{v:.4g}" for v in rss))
    return {name: (value, END_TO_END_UNITS[name])
            for name, value in metrics.items()}


def pass_wall(p):
    return sum(p["walls"].values())


def traced_metrics(passes):
    untraced = statistics.median(pass_wall(p) for p in passes[::2])
    per_pass = [layer_metrics(p["traces"], p["ibr"], pass_wall(p) / untraced)
                for p in passes[1::2]]
    first = per_pass[0]
    for other in per_pass[1:]:
        moved = [name for name, (value, unit) in first.items()
                 if unit in EXACT_UNITS and other[name][0] != value]
        if moved:
            print(f"note: counts differ between traced passes: {moved}")
    metrics = {}
    for name, (value, unit) in first.items():
        if unit not in EXACT_UNITS:
            value = statistics.median(m[name][0] for m in per_pass)
        metrics[name] = (value, unit)
        print(f"{name}: {value:.6g} {unit}")
    print(f"traced passes: {len(per_pass)}, untraced: {len(passes) - len(per_pass)}; "
          f"counts are from the first traced pass, other figures are medians")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the running child is killed and reaped and
    # the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "spbaw" / "cli.py").is_file():
        print(f"perfbench: no spbaw sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    with open(HERE / "golden.json") as fh:
        golden = json.load(fh)["reports"]
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}", flush=True)
    result = run(args, WORKLOADS[args.workload], golden)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
