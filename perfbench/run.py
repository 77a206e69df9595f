"""Figure-regeneration benchmark for the reproduction.

Usage::

    python3 perfbench/run.py --workload ledger-ci --seed 0 --seconds 50 --trace 0

Runs fresh-process iterations of one workload (see ``workloads.py``)
until ``--seconds`` have passed, and prints, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones (medians over the
iterations); with ``--trace 1`` untraced and traced iterations
alternate, then one traced iteration runs under cProfile to prove the
probes saw every call, and the metrics are the per-layer ones.

``attempted`` counts trials submitted plus output checks made;
``failed`` counts trials that raised plus checks that failed.  A line
before the last records the host.  Scratch directories live under
``.perfbench-run/`` in the checkout and are removed after each
iteration.  The exit code is non-zero, with no result line, when the
program under test is missing.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench-run")

sys.path.insert(0, HERE)

from iteration import EXIT_NO_PROGRAM  # noqa: E402
from probes import EXACT, PER_LAYER  # noqa: E402
from workloads import WORKLOADS, nproc  # noqa: E402

#: Fewest untraced iterations a ``--trace 0`` run takes, whatever
#: ``--seconds`` says: medians need at least three samples.
MIN_ITERATIONS = 3
#: Seconds after which a run starts no further iteration, and by which
#: a running one is killed: a run must end within 180 seconds.
RUN_DEADLINE_S = 165
#: An iteration is not started with less time than this left.
MIN_ITERATION_BUDGET_S = 25

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


class ProgramMissing(Exception):
    """The program under test could not be imported."""


def _git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def host_record():
    import numpy

    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": _git_sha()}


def run_iteration(workload, seed, mode, index, timeout):
    """One iteration in a fresh process; returns its JSON record."""
    scratch = os.path.join(
        SCRATCH, f"{workload}-{seed}-{os.getpid()}-{index}")
    shutil.rmtree(scratch, ignore_errors=True)
    env = dict(os.environ)
    env.pop("REPRO_PROFILE_DIR", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    cmd = [sys.executable, os.path.join(HERE, "iteration.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--scratch", scratch]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        # The session holds the iteration's pool workers too.
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\niteration killed after {timeout:.0f}s\n"
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode == EXIT_NO_PROGRAM:
        sys.stderr.write(err)
        raise ProgramMissing(err.strip())
    if proc.returncode != 0:
        sys.stderr.write(err)
        return {"crashed": proc.returncode, "mode": mode}
    record = json.loads(out.strip().splitlines()[-1])
    for failure in record["failures"]:
        print(f"{workload} seed {seed} {mode}: FAILED {failure}",
              file=sys.stderr)
    missed = record.get("missed_probes")
    if missed:
        print(f"{workload}: probes missed calls (probe, cProfile): {missed}",
              file=sys.stderr)
    print(f"{workload} seed {seed} {mode}: wall {record['wall_s']:.3f}s"
          f" cpu {record['cpu_s']:.3f}s setup {record['setup_s']:.3f}s",
          file=sys.stderr)
    return record


def _counts(records):
    attempted = failed = 0
    for record in records:
        if "crashed" in record:
            attempted += 1
            failed += 1
            continue
        attempted += record["trials"] + record["checks"]
        failed += record["trials_failed"] + record["checks_failed"]
        if record.get("missed_probes"):
            attempted += 1
            failed += 1
    return attempted, failed


def _median(records, key):
    return statistics.median(r[key] for r in records)


def end_to_end(records):
    plain = [r for r in records if "crashed" not in r]
    return {name: {"value": _median(plain, name), "unit": unit}
            for name, unit in END_TO_END}


def per_layer(plain, traced):
    """Medians of the traced iterations' metrics; counts must repeat."""
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_frac":
            value = (_median(traced, "wall_s") / _median(plain, "wall_s")
                     - 1.0)
        else:
            values = [r["trace"][name] for r in traced]
            if name in EXACT and len(set(values)) > 1:
                print(f"per-layer count {name} differs between traced"
                      f" iterations: {values}", file=sys.stderr)
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("the program under test (src/repro) is missing",
              file=sys.stderr)
        return 2
    print(json.dumps({"host": host_record()}))
    records = []
    deadline = time.monotonic() + RUN_DEADLINE_S
    measure_until = time.monotonic() + args.seconds

    def iterate(mode):
        left = deadline - time.monotonic()
        if left < MIN_ITERATION_BUDGET_S:
            return False
        records.append(run_iteration(
            args.workload, args.seed, mode, len(records), left))
        return True

    try:
        if args.trace:
            modes = ("plain", "traced")
            while (len(records) < 2 or time.monotonic() < measure_until):
                if not iterate(modes[len(records) % 2]):
                    break
            iterate("profiled")
        else:
            while (len(records) < MIN_ITERATIONS
                   or time.monotonic() < measure_until):
                if not iterate("plain"):
                    break
    except ProgramMissing:
        return 2
    finally:
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass

    attempted, failed = _counts(records)
    ok = [r for r in records if "crashed" not in r]
    plain = [r for r in ok if r["mode"] == "plain"]
    traced = [r for r in ok if r["mode"] == "traced"]
    if not plain or (args.trace and not traced):
        print("no iteration completed", file=sys.stderr)
        return 1
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
