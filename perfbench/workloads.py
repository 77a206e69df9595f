"""The benchmark's workloads: what each one runs and how it is checked.

Every workload calls a public entry point of the harness, exactly as a
user regenerating figures would, inside the timed region; its checks
run afterwards, outside it.  ``run`` returns whatever ``check`` needs.
``check`` returns ``[(name, ok), ...]``, one entry per output checked.

Seeds: the figure entry points generate their own canonical inputs
(the ones the checked-in ledger baselines pin), so the seed does not
apply to any timed region.  Seed 0 means those canonical inputs; for
``neuro-e2e`` and ``ledger-ci`` the seed also picks the inputs of
untimed probes that hand freshly generated data to the lowered
pipelines and check their outputs against the single-process reference
pipelines (for neuro FA maps, against each other; see ``neuro_probe``).
``steps-paper`` has no probe: the seed does not apply.

``BENCHMARK.json`` lists ``steps-paper`` and ``ledger-ci``;
``neuro-e2e`` is for runs by hand (see README.md).
"""

import contextlib
import io
import json
import os
import re

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGER_DIR = os.path.join(ROOT, "benchmarks", "ledger")
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")

#: Result digests of every ``opt`` cell at the quick profiles (they hash
#: the kernels' outputs, which simulated seconds cannot catch).
OPT_DIGESTS = {"neuro": "d30b637d7a4c1152", "astro": "72aab046129984ed"}

_GIT_SHA = re.compile(rb'"git_sha": "[^"]*"')

#: Per-engine arguments of the seeded probe's lowered runs.
_TUNING = {"spark": {"input_partitions": 16}, "myria": {"source": "s3"},
           "dask": {}}


def nproc():
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


class Context:
    """Per-iteration scratch paths (all inside the run's directory)."""

    def __init__(self, scratch):
        self.scratch = scratch
        self.cache_dir = os.path.join(scratch, "cache")
        self.out_dir = os.path.join(scratch, "out")


def _trial_cache(ctx):
    from repro.harness.cache import TrialCache

    return TrialCache(ctx.cache_dir)


def _probe_seed(seed, index):
    return None if seed == 0 else seed * 1000 + index


# ----------------------------------------------------------------------
# neuro-e2e
# ----------------------------------------------------------------------

def run_neuro_e2e(ctx):
    from repro.harness import experiments as E
    from repro.harness.__main__ import QUICK_NEURO
    from repro.harness.parallel import configured

    with configured(jobs=1, cache=_trial_cache(ctx)):
        return E.fig10c_neuro_end_to_end(
            subject_counts=(1, 2, 4), profile=QUICK_NEURO
        )


def check_neuro_e2e(ctx, rows, seed):
    with open(os.path.join(LEDGER_DIR, "fig10c-quick.json")) as fh:
        runs = json.load(fh)["runs"]
    checks = [("fig10c.rows", len(rows) == len(runs))]
    for index, (row, run) in enumerate(zip(rows, runs)):
        checks.append((
            f"fig10c.{run['label']}",
            run["label"].startswith(f"{index:02d}-{row['engine']}")
            and round(row["simulated_s"], 6) == run["makespan_s"],
        ))
    return checks + neuro_probe(seed)


def neuro_probe(seed):
    """Seeded subject through three lowerings.

    Masks are compared with the reference.  FA maps are compared across
    the lowerings, not with the reference: ``fit_dtm`` falls back to
    OLS for its whole batch when one voxel's WLS system is singular, so
    on some seeds (1, 20, ...) the whole-volume reference and the
    block-wise lowerings disagree.  See README.md, "Seeds".
    """
    from repro.data import generate_subject
    from repro.harness.__main__ import QUICK_NEURO
    from repro.harness.runner import fresh_engine
    from repro.pipelines.neuro.reference import compute_mask
    from repro.pipelines.neuro.staging import stage_subjects
    from repro.plan import lower, neuro_plan

    subject = generate_subject("subj000", seed=_probe_seed(seed, 0),
                               **QUICK_NEURO)
    ref_mask = compute_mask(subject)
    checks, fa_maps = [], {}
    for kind, tuning in _TUNING.items():
        cluster, engine = fresh_engine(kind)
        stage_subjects(cluster.object_store, [subject])
        masks, fa = lower(neuro_plan(), kind, engine).run([subject], **tuning)
        checks.append((f"probe.neuro.{kind}.mask",
                       np.array_equal(masks[subject.subject_id], ref_mask)))
        fa_maps[kind] = fa[subject.subject_id].array
    first, *rest = fa_maps
    for kind in rest:
        checks.append((
            f"probe.neuro.{kind}.fa",
            np.allclose(fa_maps[kind], fa_maps[first], atol=1e-10),
        ))
    return checks


# ----------------------------------------------------------------------
# steps-paper
# ----------------------------------------------------------------------

def run_steps_paper(ctx):
    from repro.harness import experiments as E
    from repro.harness.parallel import configured

    with configured(jobs=1, cache=_trial_cache(ctx)):
        return {
            "fig11": E.fig11_ingest(),
            "fig12a": E.fig12a_filter(),
            "fig12b": E.fig12b_mean(),
        }


def check_steps_paper(ctx, figures, seed):
    with open(os.path.join(REFERENCE_DIR, "steps-paper.json")) as fh:
        reference = json.load(fh)
    checks = []
    for name in sorted(reference):
        expected, got = reference[name], figures.get(name, [])
        checks.append((f"{name}.rows", len(got) == len(expected)))
        for index, (row, ref) in enumerate(zip(got, expected)):
            checks.append((f"{name}.{index}", row == ref))
    return checks


# ----------------------------------------------------------------------
# ledger-ci
# ----------------------------------------------------------------------

def ledger_jobs():
    """``--jobs`` of the CI reproduction path, never above ``nproc``."""
    return min(2, nproc())


def run_ledger_ci(ctx):
    from repro.harness.__main__ import main

    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(["ledger", "f16", "--optimize", "--quick",
                     "--jobs", str(ledger_jobs()), "--out-dir", ctx.out_dir])


def _same_but_sha(path_a, path_b):
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        a, b = fa.read(), fb.read()
    return _GIT_SHA.sub(b"", a) == _GIT_SHA.sub(b"", b)


def check_ledger_ci(ctx, exit_code, seed):
    from repro.harness import experiments as E
    from repro.harness.__main__ import QUICK_ASTRO, QUICK_NEURO
    from repro.harness.parallel import configured

    checks = [("ledger.gate", exit_code == 0)]
    for name in ("f16-quick.json", "opt-quick.json"):
        written = os.path.join(ctx.out_dir, name)
        checks.append((
            f"ledger.{name}",
            os.path.exists(written)
            and _same_but_sha(written, os.path.join(LEDGER_DIR, name)),
        ))
    # Replayed from the trial cache the run just filled.
    with configured(jobs=1, cache=_trial_cache(ctx)):
        rows = E.opt_comparison(
            n_subjects=2, n_visits=2,
            neuro_profile=QUICK_NEURO, astro_profile=QUICK_ASTRO,
        )
    for row in rows:
        checks.append((
            f"opt.{row['pipeline']}.{row['engine']}.digest",
            row["digest"] == OPT_DIGESTS[row["pipeline"]],
        ))
    return checks + neuro_probe(seed) + astro_probe(seed)


def astro_probe(seed):
    """Seeded visits through three lowerings vs the reference."""
    from repro.data import generate_visit
    from repro.harness.__main__ import QUICK_ASTRO
    from repro.harness.runner import fresh_engine
    from repro.pipelines.astro.reference import run_reference
    from repro.pipelines.astro.staging import stage_visits
    from repro.plan import astro_plan, lower

    visits = [generate_visit(v, seed=_probe_seed(seed, v), **QUICK_ASTRO)
              for v in range(2)]
    ref_coadds, ref_sources = run_reference(visits)
    checks = []
    for kind, tuning in _TUNING.items():
        cluster, engine = fresh_engine(kind)
        stage_visits(cluster.object_store, visits)
        coadds, sources = lower(astro_plan(), kind, engine).run(
            visits, **tuning)
        ok = set(coadds) == set(ref_coadds) and all(
            np.allclose(np.nan_to_num(coadds[p].array),
                        np.nan_to_num(ref_coadds[p].array), atol=1e-8)
            for p in ref_coadds
        ) and sum(map(len, sources.values())) == sum(
            map(len, ref_sources.values()))
        checks.append((f"probe.astro.{kind}", ok))
    return checks


WORKLOADS = {
    "neuro-e2e": (run_neuro_e2e, check_neuro_e2e),
    "steps-paper": (run_steps_paper, check_steps_paper),
    "ledger-ci": (run_ledger_ci, check_ledger_ci),
}
