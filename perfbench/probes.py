"""Layer probes for the traced benchmark run.

The traced run wraps the public functions and methods of every
``repro`` layer where their callers look them up: the defining module,
every module that imported the function by name, and module-level
registries (dicts) that hold it.  Each wrapped call records a span
(target, parent span, start, end) in memory.  After the run the spans
are folded into per-layer self times, call counts and a few counters
read at the layer boundaries (trial counts, cache hits, simulated
tasks, accepted rewrites, kernel input digests).

Forked pool workers inherit the installed probes.  Each worker starts
with an empty span buffer and, at the end of every dispatched chunk,
appends the aggregate of its spans to a JSON-lines file that the
parent merges once the pool has been shut down.

Self time is a span's duration minus the part of it that its child
spans cover.  A layer's self time sums the self time of its spans; a
named target's *layer* self time also counts same-layer callees, so
``median_otsu`` includes the median filter it calls while neither
includes the numpy-free engine code around them.
"""

import functools
import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import sys
import time
import types

import numpy as np

#: Module prefix -> layer name; the longest matching prefix wins.
LAYER_PREFIXES = (
    ("repro.engines.spark", "engines.spark"),
    ("repro.engines.myria", "engines.myria"),
    ("repro.engines.dask", "engines.dask"),
    ("repro.engines.scidb", "engines.scidb"),
    ("repro.engines.tensorflow", "engines.tensorflow"),
    ("repro.engines", "engines.base"),
    ("repro.algorithms", "algorithms"),
    ("repro.cluster", "cluster"),
    ("repro.data", "data"),
    ("repro.formats", "formats"),
    ("repro.pipelines", "pipelines"),
    ("repro.plan", "plan"),
    ("repro.obs", "obs"),
    ("repro.harness", "harness"),
)

ENGINES = ("spark", "myria", "dask", "scidb", "tensorflow")

#: Kernels whose layer self time is reported one by one.
KERNELS = {
    "nlmeans_3d": "repro.algorithms.nlmeans:nlmeans_3d",
    "median_otsu": "repro.algorithms.otsu:median_otsu",
    "fit_dtm": "repro.algorithms.dtm:fit_dtm",
    "estimate_background": "repro.algorithms.background:estimate_background",
    "detect_cosmic_rays": "repro.algorithms.cosmicray:detect_cosmic_rays",
    "detect_sources": "repro.algorithms.sources:detect_sources",
    "coadd_stack": "repro.algorithms.coadd:coadd_stack",
}

#: Metric group -> targets whose outermost calls' wall time it sums.
INCLUSIVE_GROUPS = {
    "data.generate_s": ("repro.data.neuro:generate_subject",
                        "repro.data.astro:generate_visit"),
    "pipelines.stage_s": ("repro.pipelines.neuro.staging:stage_subjects",
                          "repro.pipelines.astro.staging:stage_visits"),
    "plan.lower_s": ("repro.plan:lower",),
    "plan.optimize_s": ("repro.plan.opt:optimize_for",),
    "plan.route_s": ("repro.plan.route:engine_guard",
                     "repro.plan.route:estimate_plan_cost",
                     "repro.plan.route:choose_engine"),
    "obs.snapshot_s": ("repro.obs.ledger:run_snapshot",),
    "obs.critical_path_s": ("repro.obs.critical_path:compute_critical_path",),
    "obs.attribution_s": ("repro.obs.attribution:attribute_critical_path",),
    "harness.cache.get_s": ("repro.harness.cache:TrialCache.get",),
    "harness.cache.put_s": ("repro.harness.cache:TrialCache.put",),
    "harness.trial_total_s": ("repro.harness.parallel:_execute_trial",),
}

CLUSTER_RUN = "repro.cluster.cluster:SimulatedCluster.run"
RUN_GRID = "repro.harness.parallel:run_grid"
POOL_ENTRY = "repro.harness.parallel:_pool_entry"
UDF_CALL = "repro.engines.base:CostedFunction.__call__"
OPTIMIZE_FOR = "repro.plan.opt:optimize_for"
CACHE_GET = "repro.harness.cache:TrialCache.get"
CACHE_GET_OP = "repro.harness.cache:TrialCache.get_op"

#: Targets a metric depends on.  A missing one is reported as absent.
NAMED_TARGETS = tuple(sorted(
    set(KERNELS.values())
    | {t for group in INCLUSIVE_GROUPS.values() for t in group}
    | {CLUSTER_RUN, RUN_GRID, POOL_ENTRY, UDF_CALL, CACHE_GET_OP}
))

#: Per-item helpers called 10^4 to 10^7 times per iteration (per
#: simulated task, event, record or volume).  A span on each would cost
#: more than the work it measures; their time stays with the caller.
HOT_HELPERS = frozenset({
    "repro.cluster.cluster:SimulatedCluster.node",
    "repro.data.neuro:Subject.volume",
    "repro.engines.base:CostedFunction.cost",
    "repro.engines.base:nominal_bytes_of",
    "repro.engines.dask.delayed:Delayed.dependencies",
    "repro.engines.myria.operators:RowContext.value",
    "repro.engines.myria.operators:evaluate",
    "repro.engines.myria.operators:expression_cost",
    "repro.engines.myria.operators:rows_bytes",
    "repro.engines.myria.plan:MyriaServer.worker_node",
    "repro.engines.spark.partitioner:stable_hash",
    "repro.harness.memo:RecordWindow.record",
    "repro.harness.memo:RecordWindow.replay",
    "repro.harness.memo:RecordWindow.snapshot",
    "repro.obs.breakdown:default_grouper",
    "repro.obs.breakdown:group_of",
    "repro.obs.spans:Observability.record_task",
    "repro.obs.spans:SpanStore.current",
    "repro.pipelines.neuro.staging:volume_key",
    "repro.plan.ir:provenance_id",
})

#: The cluster layer is probed at the simulator's entry points only: its
#: clock, cost, network, memory, fault and object-store models run per
#: task inside ``SimulatedCluster.run`` and belong to its self time.
CLUSTER_SCOPE = "repro.cluster.cluster:SimulatedCluster."

#: Pseudo-layer of the probes' own work (input digests); never counted
#: as a named layer in ``trace.coverage``.
TRACE_LAYER = "trace"
DIGEST_TARGET = "perfbench:input_digest"


def layer_of(module):
    """Layer of a module name, or ``None`` outside ``repro``."""
    for prefix, layer in LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------

def covered_length(lo, hi, intervals):
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(lo, a), min(hi, b)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start, end, child_intervals):
    """A span's duration minus the part its children cover."""
    return (end - start) - covered_length(start, end, child_intervals)


# ----------------------------------------------------------------------
# Input digests (what kernel memoization could share)
# ----------------------------------------------------------------------

def _feed(digest, value, depth=0):
    if isinstance(value, np.ndarray):
        digest.update(value.dtype.str.encode())
        digest.update(repr(value.shape).encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (str, bytes, int, float, bool, type(None))):
        digest.update(repr(value).encode())
    elif isinstance(value, (list, tuple)):
        digest.update(b"[")
        for item in value:
            _feed(digest, item, depth + 1)
        digest.update(b"]")
    elif isinstance(value, dict):
        digest.update(b"{")
        for key in sorted(value, key=repr):
            digest.update(repr(key).encode())
            _feed(digest, value[key], depth + 1)
        digest.update(b"}")
    else:
        digest.update(type(value).__qualname__.encode())
        fields = getattr(value, "__dict__", None)
        if fields is None:
            slots = getattr(type(value), "__slots__", ())
            fields = {name: getattr(value, name, None) for name in slots}
        if depth < 4:
            _feed(digest, dict(fields), depth + 1)


def input_digest(args, kwargs):
    """Content digest of a call's arguments (arrays by bytes)."""
    digest = hashlib.blake2b(digest_size=8)
    _feed(digest, list(args))
    _feed(digest, kwargs)
    return digest.hexdigest()


# ----------------------------------------------------------------------
# The recorder
# ----------------------------------------------------------------------

class Recorder:
    """In-memory spans plus boundary counters for one process."""

    def __init__(self, trace_dir=None, clock=time.perf_counter):
        self.clock = clock
        self.trace_dir = trace_dir
        self.spans_on = False
        self.names = []      # target id -> "module:qualname"
        self.layers = []     # target id -> layer
        self._ids = {}
        self.absent = []
        self.reset()

    def reset(self):
        """Drop every span and counter (a forked worker starts empty)."""
        self.tid = []
        self.parent = []
        self.start = []
        self.end = []
        self.current = -1
        self.counters = {}
        self.digests = {}

    def target_id(self, name, layer):
        tid = self._ids.get((name, layer))
        if tid is None:
            tid = len(self.names)
            self._ids[(name, layer)] = tid
            self.names.append(name)
            self.layers.append(layer)
        return tid

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def open(self, tid):
        index = len(self.tid)
        self.tid.append(tid)
        self.parent.append(self.current)
        self.end.append(0.0)
        self.start.append(self.clock())
        self.current = index
        return index

    def close(self, index):
        self.end[index] = self.clock()
        self.current = self.parent[index]

    def current_layer(self):
        if self.current < 0:
            return None
        return self.layers[self.tid[self.current]]

    # -- folding spans into aggregates ---------------------------------

    def aggregate(self):
        """Mergeable sums over this process's spans and counters."""
        n = len(self.tid)
        tid, parent, start, end = self.tid, self.parent, self.start, self.end
        children = [[] for _ in range(n)]
        for i in range(n):
            if parent[i] >= 0:
                children[parent[i]].append((start[i], end[i]))
        own = [
            self_time(start[i], end[i], children[i]) for i in range(n)
        ]
        names, layers = self.names, self.layers
        layer_self = {}
        layer_entries = {}
        target_calls = {}
        named_self = {}
        inclusive = {}
        groups_of = {}
        for group, members in INCLUSIVE_GROUPS.items():
            for member in members:
                groups_of.setdefault(member, set()).add(group)
        empty = frozenset()
        chain = [empty] * n      # named targets on the same-layer chain
        active = [empty] * n     # inclusive groups open above the span
        for i in range(n):
            t = tid[i]
            name, layer = names[t], layers[t]
            p = parent[i]
            same = p >= 0 and layers[tid[p]] == layer
            target_calls[name] = target_calls.get(name, 0) + 1
            layer_self[layer] = layer_self.get(layer, 0.0) + own[i]
            if not same:
                layer_entries[layer] = layer_entries.get(layer, 0) + 1
            chain_i = chain[p] if same else empty
            if name in NAMED_TARGETS and name not in chain_i:
                chain_i = chain_i | {name}
            chain[i] = chain_i
            for named in chain_i:
                named_self[named] = named_self.get(named, 0.0) + own[i]
            above = active[p] if p >= 0 else empty
            mine = groups_of.get(name)
            if mine:
                for group in mine - above:
                    inclusive[group] = (
                        inclusive.get(group, 0.0) + end[i] - start[i]
                    )
                above = above | mine
            active[i] = above
        return {
            "spans": n,
            "layer_self": layer_self,
            "layer_entries": layer_entries,
            "target_calls": target_calls,
            "named_self": named_self,
            "inclusive": inclusive,
            "counters": dict(self.counters),
            "digests": {k: sorted(v) for k, v in self.digests.items()},
        }

    def flush(self):
        """Append this process's aggregate to the trace directory."""
        if self.trace_dir is None:
            return
        path = os.path.join(self.trace_dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps(self.aggregate()) + "\n")
        self.reset()


def merge(aggregates):
    """Sum aggregates from several processes (digest sets are unioned)."""
    total = {"spans": 0, "layer_self": {}, "layer_entries": {},
             "target_calls": {}, "named_self": {}, "inclusive": {},
             "counters": {}, "digests": {}}
    for agg in aggregates:
        total["spans"] += agg["spans"]
        for key in ("layer_self", "layer_entries", "target_calls",
                    "named_self", "inclusive", "counters"):
            for name, value in agg[key].items():
                total[key][name] = total[key].get(name, 0) + value
        for name, values in agg["digests"].items():
            total["digests"].setdefault(name, set()).update(values)
    return total


def read_worker_aggregates(trace_dir):
    """Every aggregate flushed by pool workers under ``trace_dir``."""
    out = []
    for filename in sorted(os.listdir(trace_dir)):
        if filename.startswith("worker-") and filename.endswith(".jsonl"):
            with open(os.path.join(trace_dir, filename)) as fh:
                out.extend(json.loads(line) for line in fh if line.strip())
    return out


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------

def _span_wrapper(fn, rec, tid):
    @functools.wraps(fn)
    def probe(*args, **kwargs):
        if not rec.spans_on:
            return fn(*args, **kwargs)
        index = rec.open(tid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(index)
    return probe


def _kernel_wrapper(fn, rec, tid, name):
    """Span plus, on entry into the algorithms layer, an input digest."""
    digest_tid = rec.target_id(DIGEST_TARGET, TRACE_LAYER)

    @functools.wraps(fn)
    def probe(*args, **kwargs):
        if not rec.spans_on:
            return fn(*args, **kwargs)
        if rec.current_layer() != "algorithms":
            index = rec.open(digest_tid)
            try:
                key = input_digest(args, kwargs)
            finally:
                rec.close(index)
            rec.digests.setdefault(name, set()).add(key)
            rec.count(f"digested.{name}")
        index = rec.open(tid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(index)
    return probe


def _udf_wrapper(fn, rec):
    """``CostedFunction.__call__``: the span belongs to the layer that
    defines the wrapped user function (an engine's lowering, usually)."""
    tids = {}

    @functools.wraps(fn)
    def probe(self, *args, **kwargs):
        if not rec.spans_on:
            return fn(self, *args, **kwargs)
        module = getattr(self.fn, "__module__", None) or ""
        tid = tids.get(module)
        if tid is None:
            layer = layer_of(module) or "engines.base"
            tid = tids[module] = rec.target_id(UDF_CALL, layer)
        index = rec.open(tid)
        try:
            return fn(self, *args, **kwargs)
        finally:
            rec.close(index)
    return probe


def _cluster_run_wrapper(fn, rec, tid):
    """Span plus simulated task, retry and failure counts."""
    def faults(cluster):
        rows = cluster.node_summaries()
        return (sum(r["retried_tasks"] for r in rows),
                sum(r["failed_tasks"] for r in rows))

    @functools.wraps(fn)
    def probe(self, *args, **kwargs):
        if not rec.spans_on:
            return fn(self, *args, **kwargs)
        retried, failed = faults(self)
        index = rec.open(tid)
        try:
            result = fn(self, *args, **kwargs)
        finally:
            rec.close(index)
        retried_after, failed_after = faults(self)
        rec.count("cluster.tasks", len(result))
        rec.count("cluster.retries", retried_after - retried)
        rec.count("cluster.failed_tasks", failed_after - failed)
        return result
    return probe


def _result_counter(fn, rec, tid, count):
    """Span plus ``count(rec, result)`` after the call."""
    @functools.wraps(fn)
    def probe(*args, **kwargs):
        if not rec.spans_on:
            return fn(*args, **kwargs)
        index = rec.open(tid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        count(rec, result)
        return result
    return probe


def _run_grid_wrapper(fn, rec, tid):
    """Counts trials submitted and trials that raised, traced or not."""
    from repro.harness.parallel import TrialExecutionError

    @functools.wraps(fn)
    def probe(specs, *args, **kwargs):
        specs = list(specs)
        rec.count("harness.trials", len(specs))
        index = rec.open(tid) if rec.spans_on else None
        try:
            return fn(specs, *args, **kwargs)
        except TrialExecutionError as exc:
            rec.count("harness.trials_failed", len(exc.failures))
            raise
        finally:
            if index is not None:
                rec.close(index)
    return probe


def _pool_entry_wrapper(fn, rec, tid):
    """Worker-side chunk entry: flush the chunk's spans when done."""
    inner = _span_wrapper(fn, rec, tid)

    @functools.wraps(fn)
    def probe(*args, **kwargs):
        try:
            return inner(*args, **kwargs)
        finally:
            if rec.spans_on and rec.pid != os.getpid():
                rec.flush()
    return probe


def _count_hits(prefix):
    def count(rec, result):
        rec.count(f"{prefix}.gets")
        if result is not None:
            rec.count(f"{prefix}.hits")
    return count


def _count_firings(rec, result):
    rec.count("plan.rewrites_accepted", len(result.firings))


# ----------------------------------------------------------------------
# Discovery and installation
# ----------------------------------------------------------------------

def import_all():
    """Import every ``repro`` module, so lazily imported ones are
    patched too (a function-level import reads the patched attribute)."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def _is_plain(fn):
    return (
        isinstance(fn, types.FunctionType)
        and not inspect.isgeneratorfunction(inspect.unwrap(fn))
        and not inspect.iscoroutinefunction(fn)
    )


def _resolve(spec):
    """``"module:Qual.name"`` -> (owner object, attribute, function)."""
    module_name, qualname = spec.split(":")
    module = sys.modules.get(module_name)
    if module is None:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return None
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = inspect.getattr_static(owner, parts[-1], None)
    if not _is_plain(fn):
        return None
    return owner, parts[-1], fn


def discover():
    """Every probe target: ``{spec: (owner, attribute, function)}``,
    and the named targets that no longer exist.

    Public module-level functions and public methods of public classes
    of each layer's modules (less the hot helpers, and in the cluster
    layer less everything but the simulator's methods), plus the named
    targets (some private).
    """
    found = {}
    for module_name in sorted(sys.modules):
        module = sys.modules[module_name]
        if module is None or layer_of(module_name) is None:
            continue
        for name, value in sorted(vars(module).items()):
            if name.startswith("_"):
                continue
            if _is_plain(value) and value.__module__ == module_name:
                found[f"{module_name}:{name}"] = (module, name, value)
            elif (isinstance(value, type)
                  and value.__module__ == module_name):
                for attr, member in sorted(vars(value).items()):
                    if not attr.startswith("_") and _is_plain(member):
                        found[f"{module_name}:{value.__qualname__}.{attr}"] = (
                            value, attr, member)
    targets = {
        spec: target for spec, target in found.items()
        if spec not in HOT_HELPERS
        and (layer_of(spec.split(":")[0]) != "cluster"
             or spec.startswith(CLUSTER_SCOPE))
    }
    absent = []
    for spec in NAMED_TARGETS:
        resolved = _resolve(spec)
        if resolved is None:
            absent.append(spec)
        else:
            targets[spec] = resolved
    return targets, absent


def _make_wrapper(spec, fn, rec):
    module_name = spec.split(":")[0]
    tid = rec.target_id(spec, layer_of(module_name))
    if spec == UDF_CALL:
        return _udf_wrapper(fn, rec)
    if spec == CLUSTER_RUN:
        return _cluster_run_wrapper(fn, rec, tid)
    if spec == RUN_GRID:
        return _run_grid_wrapper(fn, rec, tid)
    if spec == POOL_ENTRY:
        return _pool_entry_wrapper(fn, rec, tid)
    if spec == OPTIMIZE_FOR:
        return _result_counter(fn, rec, tid, _count_firings)
    if spec == CACHE_GET:
        return _result_counter(fn, rec, tid, _count_hits("harness.cache"))
    if spec == CACHE_GET_OP:
        return _result_counter(fn, rec, tid, _count_hits("harness.opmemo"))
    if layer_of(module_name) == "algorithms":
        return _kernel_wrapper(fn, rec, tid, spec.rsplit(":", 1)[1])
    return _span_wrapper(fn, rec, tid)


def install(rec, only=None):
    """Wrap the targets (all of them, or the specs in ``only``).

    Returns ``{spec: original function}``.  Call sites are patched in
    every loaded ``repro`` module: attributes bound to a target and
    module-level dicts holding one.
    """
    if only is None:
        targets, absent = discover()
    else:
        resolved = {spec: _resolve(spec) for spec in only}
        targets = {k: v for k, v in resolved.items() if v is not None}
        absent = sorted(k for k, v in resolved.items() if v is None)
    rec.absent = absent
    rec.pid = os.getpid()
    wrappers = {}
    originals = {}
    for spec, (owner, attr, fn) in sorted(targets.items()):
        if id(fn) in wrappers:  # an alias of a function already wrapped
            continue
        wrapper = _make_wrapper(spec, fn, rec)
        wrappers[id(fn)] = (fn, wrapper)
        originals[spec] = fn
        setattr(owner, attr, wrapper)
    for module_name in sorted(sys.modules):
        module = sys.modules[module_name]
        if module is None or layer_of(module_name) is None:
            continue
        for name, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, name, hit[1])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    hit = wrappers.get(id(item))
                    if hit is not None and hit[0] is item:
                        value[key] = hit[1]
    if hasattr(os, "register_at_fork"):
        os.register_at_fork(after_in_child=rec.reset)
    return originals


# ----------------------------------------------------------------------
# Cross-check against cProfile
# ----------------------------------------------------------------------

def profile_counts(stats_list, originals):
    """Calls of each original function across ``pstats`` stats."""
    by_code = {}
    for spec, fn in originals.items():
        code = fn.__code__
        by_code[(code.co_filename, code.co_firstlineno, code.co_name)] = spec
    counts = {}
    for stats in stats_list:
        for key, (_cc, nc, _tt, _ct, _callers) in stats.stats.items():
            spec = by_code.get(key)
            if spec is not None:
                counts[spec] = counts.get(spec, 0) + nc
    return counts


def missed_calls(probe_calls, profiled):
    """Targets cProfile saw called more often than their probe did:
    a call site the probes did not wrap."""
    return {
        spec: (probe_calls.get(spec, 0), n)
        for spec, n in sorted(profiled.items())
        if n > probe_calls.get(spec, 0)
    }


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER = (
    [("algorithms.self_s", "s"), ("algorithms.calls", "count"),
     ("algorithms.distinct_frac", "ratio")]
    + [(f"algorithms.{k}.self_s", "s") for k in KERNELS]
    + [("algorithms.nlmeans_3d.calls", "count"),
       ("algorithms.nlmeans_3d.distinct_frac", "ratio"),
       ("cluster.run.self_s", "s"), ("cluster.run.calls", "count"),
       ("cluster.tasks", "count"), ("cluster.tasks_per_s", "1/s"),
       ("cluster.retries", "count"), ("cluster.failed_tasks", "count"),
       ("data.generate_s", "s"), ("data.calls", "count"),
       ("pipelines.stage_s", "s"), ("formats.self_s", "s"),
       ("formats.calls", "count")]
    + [(f"engines.{k}.self_s", "s") for k in ENGINES]
    + [("engines.base.self_s", "s"),
       ("plan.lower_s", "s"), ("plan.optimize_s", "s"),
       ("plan.route_s", "s"), ("plan.rewrites_accepted", "count"),
       ("obs.snapshot_s", "s"), ("obs.critical_path_s", "s"),
       ("obs.attribution_s", "s"),
       ("harness.trials", "count"), ("harness.trial_s", "s"),
       ("harness.pool_startup_s", "s"), ("harness.dispatch_s", "s"),
       ("harness.worker_exec_s", "s"), ("harness.cache.get_s", "s"),
       ("harness.cache.put_s", "s"), ("harness.cache.hit_frac", "ratio"),
       ("harness.opmemo.hit_frac", "ratio"), ("harness.self_s", "s"),
       ("trace.overhead_frac", "ratio"), ("trace.coverage", "ratio"),
       ("trace.spans", "count"), ("trace.absent_probes", "count")]
)

#: Metrics that are counts or ratios of counts: equal on every traced run.
EXACT = frozenset(
    name for name, unit in PER_LAYER if unit in ("count", "ratio")
) - {"trace.overhead_frac", "trace.coverage"}


def coverage(aggregate, wall_s):
    """Share of ``wall_s`` that spans of a named layer cover."""
    covered = sum(
        seconds for layer, seconds in aggregate["layer_self"].items()
        if layer != TRACE_LAYER
    )
    return covered / wall_s if wall_s > 0 else 0.0


def _frac(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(agg, telemetry_rec, absent, covered):
    """The per-layer metrics of one traced iteration (all but
    ``trace.overhead_frac``, which needs an untraced iteration)."""
    layer_self = agg["layer_self"]
    entries = agg["layer_entries"]
    calls = agg["target_calls"]
    named = agg["named_self"]
    incl = agg["inclusive"]
    ctr = agg["counters"]
    digests = agg["digests"]
    digested = {name[len("digested."):]: n for name, n in ctr.items()
                if name.startswith("digested.")}
    nlm = KERNELS["nlmeans_3d"]
    tasks = ctr.get("cluster.tasks", 0)
    run_self = named.get(CLUSTER_RUN, 0.0)
    phases = telemetry_rec.phase_totals()
    worker_exec = telemetry_rec.metrics.histogram("worker.worker-exec_s")
    executed = calls.get("repro.harness.parallel:_execute_trial", 0)
    m = {
        "algorithms.self_s": layer_self.get("algorithms", 0.0),
        "algorithms.calls": entries.get("algorithms", 0),
        "algorithms.distinct_frac": _frac(
            sum(len(v) for v in digests.values()), sum(digested.values())),
    }
    for kernel, spec in KERNELS.items():
        m[f"algorithms.{kernel}.self_s"] = named.get(spec, 0.0)
    m.update({
        "algorithms.nlmeans_3d.calls": calls.get(nlm, 0),
        "algorithms.nlmeans_3d.distinct_frac": _frac(
            len(digests.get("nlmeans_3d", ())),
            digested.get("nlmeans_3d", 0)),
        "cluster.run.self_s": run_self,
        "cluster.run.calls": calls.get(CLUSTER_RUN, 0),
        "cluster.tasks": tasks,
        "cluster.tasks_per_s": _frac(tasks, run_self),
        "cluster.retries": ctr.get("cluster.retries", 0),
        "cluster.failed_tasks": ctr.get("cluster.failed_tasks", 0),
        "data.generate_s": incl.get("data.generate_s", 0.0),
        "data.calls": entries.get("data", 0),
        "pipelines.stage_s": incl.get("pipelines.stage_s", 0.0),
        "formats.self_s": layer_self.get("formats", 0.0),
        "formats.calls": entries.get("formats", 0),
    })
    for engine in ENGINES + ("base",):
        m[f"engines.{engine}.self_s"] = layer_self.get(f"engines.{engine}",
                                                       0.0)
    m.update({
        "plan.lower_s": incl.get("plan.lower_s", 0.0),
        "plan.optimize_s": incl.get("plan.optimize_s", 0.0),
        "plan.route_s": incl.get("plan.route_s", 0.0),
        "plan.rewrites_accepted": ctr.get("plan.rewrites_accepted", 0),
        "obs.snapshot_s": incl.get("obs.snapshot_s", 0.0),
        "obs.critical_path_s": incl.get("obs.critical_path_s", 0.0),
        "obs.attribution_s": incl.get("obs.attribution_s", 0.0),
        "harness.trials": ctr.get("harness.trials", 0),
        "harness.trial_s": _frac(incl.get("harness.trial_total_s", 0.0),
                                 executed),
        "harness.pool_startup_s": phases.get(
            "pool-startup", {}).get("wall_s", 0.0),
        "harness.dispatch_s": phases.get("dispatch", {}).get("wall_s", 0.0),
        "harness.worker_exec_s": worker_exec.total,
        "harness.cache.get_s": incl.get("harness.cache.get_s", 0.0),
        "harness.cache.put_s": incl.get("harness.cache.put_s", 0.0),
        "harness.cache.hit_frac": _frac(ctr.get("harness.cache.hits", 0),
                                        ctr.get("harness.cache.gets", 0)),
        "harness.opmemo.hit_frac": _frac(
            ctr.get("harness.opmemo.hits", 0),
            ctr.get("harness.opmemo.gets", 0)),
        "harness.self_s": layer_self.get("harness", 0.0),
        "trace.coverage": covered,
        "trace.spans": agg["spans"],
        "trace.absent_probes": len(absent),
    })
    return m
