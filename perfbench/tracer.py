"""In-memory span tracer for the traced benchmark run.

The tracer wraps functions of the `spbaw` modules from outside the
package: each wrapped call records one span (name, start, end, parent id)
and, for enumerators, the number of items it returned.  Spans stay in
memory until `summary()` folds them into per-function and per-module
figures at the end of the process.
"""

import functools
import itertools
import os
import sys
import threading
import time

# Functions named in the benchmark's per-layer table, by module, each with
# the figures reported for it: `calls` and `items` (the length of an
# enumerator's result) are exact counts, `s` is self time.  The `cli`
# functions report nothing: they are wrapped to find the block phase.
LAYERS = {
    "gf": {"get_field": "s"},
    "fieldctx": {"make_context": "s"},
    "ffpoly": {"enumerate_classes": "s", "enumerate_irreducibles": "s",
               "is_irreducible": "calls s", "classify": "calls s",
               "frobenius_class": "calls s"},
    "partcomb": {"e_core_quotient": "calls s",
                 "from_core_quotient": "calls s",
                 "enumerate_tuples": "calls s",
                 "enumerate_core_towers": "calls s"},
    "symbcomb": {"from_core_quotient_sym": "calls s",
                 "sym_core_quotient": "calls s", "star_plain": "calls",
                 "enumerate_symbols": "s"},
    "labelspace": {"enumerate_blocks": "calls s items",
                   "enumerate_ibr": "calls s items",
                   "enumerate_weights_q": "calls s items",
                   "enumerate_weights_k": "calls s items",
                   "enumerate_ibr_universe": "calls s items",
                   "k_to_q": "calls s", "audit_weight_label": "calls s"},
    "bawcheck": {"brauer_to_weight": "calls s", "weight_to_brauer": "calls s",
                 "verify_block": "calls s",
                 "verify_equivariance_of_block": "calls s",
                 "verify_action_laws": "calls s"},
    "cli": {"main": "", "_run_blocks": ""},
}
# The block phase.  Spans opened directly under it, whichever thread runs
# them, are the per-block work, except the serial enumeration of the blocks
# that precedes the thread pool.
PHASE = "cli._run_blocks"
BLOCK_LIST = "labelspace.enumerate_blocks"


class Tracer:
    def __init__(self):
        # list.append and next() on itertools.count are single C calls, so
        # the worker threads of `--jobs` can share them without a lock.
        self.spans = []     # (id, name, start, end, parent, items, cpu)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._phase = None
        self.class_tables = {}   # (ctx, max_total_deg, ell_prime_only) -> len
        self.opened = []         # (path, mode) opened by spbaw.cli

    def wrap(self, name, fn):
        tracer, spans, ids = self, self.spans, self._ids
        clock, cpu_clock = time.perf_counter, time.thread_time
        mod_name, fn_name = name.split(".")
        counts_items = "items" in LAYERS[mod_name][fn_name].split()
        is_phase, is_block_list = name == PHASE, name == BLOCK_LIST

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else tracer._phase
            sid = next(ids)
            top = (parent is not None and parent == tracer._phase
                   and not is_block_list)
            stack.append(sid)
            if is_phase:
                outer, tracer._phase = tracer._phase, sid
            c0 = cpu_clock() if top else 0.0
            t0 = clock()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                cpu = cpu_clock() - c0 if top else 0.0
                stack.pop()
                if is_phase:
                    tracer._phase = outer
                items = len(out) if counts_items and out is not None else 0
                spans.append((sid, name, t0, t1, parent, items, cpu))
        return wrapper

    def install(self, modules):
        """Wrap every function in LAYERS and rebind each name under which
        any of `modules` holds it, so that `from ... import` copies are
        traced as well."""
        replace = {}
        for mod_name, names in LAYERS.items():
            mod = modules[mod_name]
            for fn_name in names:
                fn = getattr(mod, fn_name)
                replace[id(fn)] = (fn, self.wrap(f"{mod_name}.{fn_name}", fn))
        for mod in modules.values():
            for key, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, key, hit[1])
        self._record_class_tables(modules["ffpoly"])
        self._record_opens(modules["cli"])

    def _record_class_tables(self, ffpoly):
        # The class tables are memoized: count each distinct table once.
        traced = ffpoly.enumerate_classes
        tables = self.class_tables

        @functools.wraps(traced)
        def enumerate_classes(ctx, max_total_deg, ell_prime_only=False):
            out = traced(ctx, max_total_deg, ell_prime_only)
            tables[(ctx, max_total_deg, ell_prime_only)] = len(out)
            return out
        ffpoly.enumerate_classes = enumerate_classes

    def _record_opens(self, cli):
        # `cli` reads and writes the sweep cache with the builtin open();
        # a module-level name shadows it for that module only.
        opened = self.opened

        def traced_open(path, mode="r", *args, **kwargs):
            opened.append((path, mode))
            return open(path, mode, *args, **kwargs)
        cli.open = traced_open

    def summary(self):
        """Per-function calls, items, total and self seconds; per-module
        self seconds; block-phase figures; class-table sizes."""
        children = {}
        for span in self.spans:
            children.setdefault(span[4], []).append(span)
        phases = {span[0] for span in self.spans if span[1] == PHASE}
        funcs = {}
        block_cpu = 0.0
        block_wall = 0.0     # phase wall time less the serial block listing
        for sid, name, t0, t1, parent, items, cpu in self.spans:
            covered = _covered(t0, t1, children.get(sid, ()))
            rec = funcs.setdefault(name, {"calls": 0, "items": 0, "s": 0.0,
                                          "self_s": 0.0})
            rec["calls"] += 1
            rec["items"] += items
            rec["s"] += t1 - t0
            rec["self_s"] += (t1 - t0) - covered
            if name == PHASE:
                block_wall += t1 - t0
            elif name == BLOCK_LIST and parent in phases:
                block_wall -= t1 - t0
            block_cpu += cpu
        modules = {}
        for name, rec in funcs.items():
            mod = name.split(".", 1)[0]
            modules[mod] = modules.get(mod, 0.0) + rec["self_s"]
        written = read = 0
        for path, mode in self.opened:
            size = os.path.getsize(path) if os.path.exists(path) else 0
            if any(c in mode for c in "wax+"):
                written += size
            else:
                read += size
        return {"functions": funcs, "modules": modules,
                "block_cpu_s": block_cpu, "block_phase_s": block_wall,
                "class_tables": sum(self.class_tables.values()),
                "bytes_written": written, "bytes_read": read}


def _covered(t0, t1, kids):
    """Length of [t0, t1] covered by the union of the child intervals;
    children on worker threads may overlap one another."""
    total, end = 0.0, t0
    for _, _, c0, c1, _, _, _ in sorted(kids, key=lambda s: s[2]):
        c0, c1 = max(c0, end), min(c1, t1)
        if c1 > c0:
            total += c1 - c0
            end = c1
    return total


def spbaw_modules():
    return {name: sys.modules[f"spbaw.{name}"] for name in LAYERS}
