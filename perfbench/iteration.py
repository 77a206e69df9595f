"""One benchmark iteration in a fresh process.

Usage (``run.py`` starts it; run by hand for debugging)::

    python3 perfbench/iteration.py --workload ledger-ci --seed 0 \\
        --mode plain --scratch .perfbench-run/x --spawned <monotonic>

Set-up is timed from ``--spawned`` (the parent's ``time.monotonic()``
just before it started this process, a clock shared by all processes)
until the harness is imported and the empty trial-cache directory
exists.  The timed region runs the workload once and shuts the worker
pool down, so reaped workers' CPU time and memory are counted.  The
checks run afterwards.  Prints one JSON object on stdout.

Modes: ``plain`` (only trial counting), ``traced`` (every layer probe
records spans) and ``profiled`` (traced under cProfile, whose call
counts must not exceed the probes': a larger count is a call site the
probes missed).
"""

import argparse
import json
import os
import resource
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Exit code when the program under test cannot be imported.
EXIT_NO_PROGRAM = 3


def _setup(scratch):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro.harness.__main__  # noqa: F401
        import repro.harness.experiments  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the harness: {exc}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    from workloads import Context

    ctx = Context(scratch)
    os.makedirs(ctx.cache_dir)
    os.makedirs(ctx.out_dir)
    os.environ["REPRO_CACHE_DIR"] = ctx.cache_dir
    os.chdir(scratch)
    return ctx


def _cpu_seconds():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("plain", "traced", "profiled"),
                        default="plain")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args(argv)

    ctx = _setup(os.path.abspath(args.scratch))
    setup_s = time.monotonic() - args.spawned

    import probes
    from repro.harness.parallel import shutdown_pool
    from repro.obs import telemetry
    from workloads import WORKLOADS

    run, check = WORKLOADS[args.workload]
    traced = args.mode != "plain"
    trace_dir = os.path.join(ctx.scratch, "trace")
    os.makedirs(trace_dir)
    rec = probes.Recorder(trace_dir=trace_dir if traced else None)
    if traced:
        probes.import_all()
        originals = probes.install(rec)
    else:
        probes.install(rec, only=(probes.RUN_GRID,))
    profiler = None
    if args.mode == "profiled":
        import cProfile

        os.environ[telemetry.PROFILE_DIR_ENV] = os.path.join(
            ctx.scratch, "profiles")
        profiler = cProfile.Profile()

    failures = []
    result = None
    with telemetry.recording() if traced else nullcontext() as trec:
        rec.spans_on = traced
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            result = run(ctx)
        except Exception as exc:  # noqa: BLE001 - counted, run goes on
            failures.append(f"workload raised {type(exc).__name__}: {exc}")
        finally:
            if profiler is not None:
                profiler.disable()
            shutdown_pool()
        wall_s = time.perf_counter() - t0
        cpu_s = _cpu_seconds() - cpu0
        rec.spans_on = False
    parent = rec.aggregate()  # before the checks call into the program

    trials = parent["counters"].get("harness.trials", 0)
    trials_failed = parent["counters"].get("harness.trials_failed", 0)
    if failures and not trials_failed:
        trials_failed = 1
        trials = max(trials, 1)
    checks = []
    if not failures:
        try:
            checks = check(ctx, result, args.seed)
        except Exception as exc:  # noqa: BLE001 - counted as one check
            checks = [("check raised", False)]
            failures.append(f"check raised {type(exc).__name__}: {exc}")
    failures += [name for name, ok in checks if not ok]

    out = {
        "workload": args.workload,
        "mode": args.mode,
        "seed": args.seed,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "trials": trials,
        "trials_failed": trials_failed,
        "checks": len(checks),
        "checks_failed": sum(1 for _name, ok in checks if not ok),
        "failures": failures,
    }
    if traced:
        aggregate = probes.merge(
            [parent] + probes.read_worker_aggregates(trace_dir))
        out["trace"] = probes.layer_metrics(
            aggregate, trec, rec.absent, probes.coverage(parent, wall_s))
        if profiler is not None:
            import pstats

            stats = [pstats.Stats(profiler)]
            profile_dir = os.environ[telemetry.PROFILE_DIR_ENV]
            if os.path.isdir(profile_dir):
                stats += [pstats.Stats(os.path.join(profile_dir, name))
                          for name in sorted(os.listdir(profile_dir))]
            missed = probes.missed_calls(
                aggregate["target_calls"],
                probes.profile_counts(stats, originals))
            out["missed_probes"] = missed
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
