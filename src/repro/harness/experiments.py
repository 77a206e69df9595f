"""One experiment per table/figure of the paper's evaluation.

Every function returns a list of row dicts (one per plotted point /
table cell) with a ``simulated_s`` field holding seconds on the virtual
cluster clock.  See DESIGN.md section 5 for the experiment index and
EXPERIMENTS.md for the paper-vs-measured comparison.
"""

import numpy as np

from repro.cluster.errors import OutOfMemoryError
from repro.data.catalog import (
    NEURO_VOLUME_SHAPE,
    astro_size_table,
    neuro_size_table,
)
from repro.engines.base import udf
from repro.engines.dask.lowering import neuro as neuro_dask
from repro.engines.myria.lowering import astro as astro_myria
from repro.engines.myria.lowering import neuro as neuro_myria
from repro.engines.scidb.lowering import astro as astro_scidb
from repro.engines.scidb.lowering import neuro as neuro_scidb
from repro.engines.spark.lowering import astro as astro_spark
from repro.engines.spark.lowering import neuro as neuro_spark
from repro.engines.tensorflow.lowering import neuro as neuro_tf
from repro.harness.parallel import TrialSpec, grid_rows, trial
from repro.harness.runner import (
    ASTRO_BENCH,
    DEFAULT_NODES,
    NEURO_BENCH,
    Stopwatch,
    astro_visits,
    fresh_engine,
    neuro_subjects,
)
from repro.pipelines.astro import reference as astro_ref
from repro.pipelines.astro.staging import stage_visits
from repro.pipelines.neuro.staging import gradient_tables, stage_subjects
from repro.plan import astro_plan, lower, neuro_plan

NEURO_SIZES = (1, 2, 4, 8, 12, 25)
ASTRO_SIZES = (2, 4, 8, 12, 24)
CLUSTER_SIZES = (16, 32, 48, 64)


# ----------------------------------------------------------------------
# Table 1 and Figures 10a / 10b: LoC accounting and data-size tables
# (registered as trials so they run under the parallel executor and
# content-addressed cache like every other experiment; they build no
# clusters, so their payloads carry no snapshots)
# ----------------------------------------------------------------------

@trial("table1")
def _trial_table1(use_case):
    from repro.harness.loc import table1_rows

    return {"rows": table1_rows(use_case)}


def table1(use_cases=("neuro", "astro")):
    """Table 1 LoC rows, keyed by use case."""
    payloads = grid_rows(
        TrialSpec("table1", {"use_case": use_case})
        for use_case in use_cases
    )
    return {uc: p["rows"] for uc, p in zip(use_cases, payloads)}


@trial("fig10a")
def _trial_fig10a_sizes():
    return {"rows": neuro_size_table()}


@trial("fig10b")
def _trial_fig10b_sizes():
    return {"rows": astro_size_table()}


def fig10a_sizes():
    """Fig10a sizes."""
    return grid_rows([TrialSpec("fig10a", {})])[0]["rows"]


def fig10b_sizes():
    """Fig10b sizes."""
    return grid_rows([TrialSpec("fig10b", {})])[0]["rows"]


# ----------------------------------------------------------------------
# End-to-end runners (shared by Figures 10c-10h, 13, 14, §5.3.3)
# ----------------------------------------------------------------------

def _routed(run, plan, data, n_nodes, tuning):
    """Run ``kind == "auto"`` on the engine with the smallest makespan.

    Every Table-1-capable engine runs the trial once; the chosen
    engine's own ``(seconds, results, opt)`` is returned, not rerun.
    """
    from repro.plan import choose_engine

    runs = {}

    def measure(engine):
        runs[engine] = run(engine, data, n_nodes=n_nodes, **tuning)
        return runs[engine][0]

    return runs[choose_engine(plan, measure).engine]


def _neuro_end_to_end(kind, subjects, n_nodes=DEFAULT_NODES, optimize=False,
                      run_label=None, **tuning):
    """One end-to-end neuro trial; returns ``(seconds, results, opt)``.

    ``optimize`` routes the plan through :func:`repro.plan.optimize_for`
    before lowering (``opt`` is the
    :class:`~repro.plan.opt.OptimizationResult`, or ``None`` on the
    naive path).  ``kind == "auto"`` runs every capable engine and keeps
    the fastest run (:func:`_routed`).
    """
    if kind == "auto":
        return _routed(_neuro_end_to_end, neuro_plan(), subjects, n_nodes,
                       dict(tuning, optimize=optimize, run_label=run_label))
    cluster, engine = fresh_engine(
        kind, n_nodes=n_nodes, workers_per_node=tuning.pop("workers_per_node", None)
    )
    if run_label:
        cluster.run_label = run_label
    stage_subjects(cluster.object_store, subjects)
    watch = Stopwatch(cluster)
    if kind == "spark":
        tuning.setdefault("input_partitions", cluster.spec.total_slots)
        tuning.setdefault("cache_input", True)
    elif kind == "myria":
        tuning.setdefault("source", "s3")
    elif kind != "dask":
        raise ValueError(f"no end-to-end neuroscience runner for {kind!r}")
    plan_kwargs = {k: tuning.pop(k) for k in ("n_blocks", "bucket")
                   if k in tuning}
    plan = neuro_plan(**plan_kwargs)
    opt = None
    if optimize:
        from repro.plan import optimize_for

        opt = optimize_for(plan, kind)
        plan = opt.plan
    results = lower(plan, kind, engine).run(subjects, **tuning)
    return watch.lap(), results, opt


def run_neuro_end_to_end(kind, subjects, n_nodes=DEFAULT_NODES, **tuning):
    """One tuned end-to-end neuroscience trial; returns simulated secs.

    Starts "with data stored in Amazon S3", executes all steps, and
    materializes output in worker memory (Section 5.1).  Staging time
    is excluded (data was staged ahead of the experiment).
    """
    return _neuro_end_to_end(kind, subjects, n_nodes=n_nodes, **tuning)[0]


def _astro_end_to_end(kind, visits, n_nodes=DEFAULT_NODES, optimize=False,
                      run_label=None, **tuning):
    """One end-to-end astro trial; returns ``(seconds, results, opt)``."""
    if kind == "auto":
        return _routed(_astro_end_to_end, astro_plan(), visits, n_nodes,
                       dict(tuning, optimize=optimize, run_label=run_label))
    cluster, engine = fresh_engine(
        kind, n_nodes=n_nodes, workers_per_node=tuning.pop("workers_per_node", None)
    )
    if run_label:
        cluster.run_label = run_label
    stage_visits(cluster.object_store, visits)
    watch = Stopwatch(cluster)
    if kind == "spark":
        tuning.setdefault("input_partitions", cluster.spec.total_slots)
    elif kind == "myria":
        tuning.setdefault("source", "s3")
    elif kind != "dask":
        raise ValueError(f"no end-to-end astronomy runner for {kind!r}")
    plan_kwargs = {k: tuning.pop(k) for k in ("bucket",) if k in tuning}
    plan = astro_plan(**plan_kwargs)
    opt = None
    if optimize:
        from repro.plan import optimize_for

        opt = optimize_for(plan, kind)
        plan = opt.plan
    results = lower(plan, kind, engine).run(visits, **tuning)
    return watch.lap(), results, opt


def run_astro_end_to_end(kind, visits, n_nodes=DEFAULT_NODES, **tuning):
    """One tuned end-to-end astronomy trial; returns simulated seconds."""
    return _astro_end_to_end(kind, visits, n_nodes=n_nodes, **tuning)[0]


# ----------------------------------------------------------------------
# Optimizer: naive-vs-optimized comparison cells and routing table
# ----------------------------------------------------------------------

def _feed_digest(digest, value):
    """Feed one result structure into a hash, arrays by content."""
    array = getattr(value, "array", None)
    if array is not None:  # SizedArray
        _feed_digest(digest, array)
        digest.update(repr(tuple(value.nominal_shape)).encode())
        return
    if isinstance(value, np.ndarray):
        digest.update(str(value.dtype).encode())
        digest.update(str(value.shape).encode())
        digest.update(value.tobytes())
        return
    if isinstance(value, dict):
        for key in sorted(value, key=repr):
            digest.update(repr(key).encode())
            _feed_digest(digest, value[key])
        return
    if isinstance(value, (list, tuple)):
        for item in value:
            _feed_digest(digest, item)
        return
    if isinstance(value, bytes):
        digest.update(value)
        return
    digest.update(repr(value).encode())


def result_digest(value):
    """Stable content digest of a pipeline's materialized results."""
    import hashlib

    digest = hashlib.sha256()
    _feed_digest(digest, value)
    return digest.hexdigest()[:16]


@trial("optcell")
def _trial_optcell(pipeline, kind, count, n_nodes, profile):
    """Run one (pipeline, engine) cell naive then optimized.

    Both runs execute on fresh clusters over the same staged dataset;
    the row records both makespans, whether the materialized results
    are byte-identical, and the optimizer's firing trace.  This is the
    cell the `harness optimize --check` / `ledger --optimize` gates
    assert over: ``optimized_s <= naive_s`` and ``identical``.
    """
    run = _neuro_end_to_end if pipeline == "neuro" else _astro_end_to_end
    data = (neuro_subjects(count, **profile) if pipeline == "neuro"
            else astro_visits(count, **profile))
    naive_s, naive_out, _ = run(
        kind, data, n_nodes=n_nodes, run_label=f"{pipeline}-{kind}-naive"
    )
    opt_s, opt_out, opt = run(
        kind, data, n_nodes=n_nodes, optimize=True,
        run_label=f"{pipeline}-{kind}-optimized",
    )
    return {
        "pipeline": pipeline,
        "engine": kind,
        "naive_s": round(naive_s, 3),
        "optimized_s": round(opt_s, 3),
        "saved_s": round(naive_s - opt_s, 3),
        "identical": result_digest(naive_out) == result_digest(opt_out),
        "digest": result_digest(naive_out),
        "rules": "; ".join(f.detail for f in opt.firings) or "(no rewrites)",
    }


def opt_comparison(n_subjects=2, n_visits=2, n_nodes=DEFAULT_NODES,
                   neuro_profile=None, astro_profile=None,
                   engines=("dask", "myria", "spark")):
    """Naive-vs-optimized cells for every (pipeline, engine) pair."""
    neuro_profile = neuro_profile or NEURO_BENCH
    astro_profile = astro_profile or ASTRO_BENCH
    specs = [
        TrialSpec(
            "optcell",
            {"pipeline": "neuro", "kind": kind, "count": n_subjects,
             "n_nodes": n_nodes, "profile": dict(neuro_profile)},
            engine=kind,
        )
        for kind in engines
    ] + [
        TrialSpec(
            "optcell",
            {"pipeline": "astro", "kind": kind, "count": n_visits,
             "n_nodes": n_nodes, "profile": dict(astro_profile)},
            engine=kind,
        )
        for kind in engines
    ]
    return grid_rows(specs)


def routing_table(n_subjects=2, n_visits=2, n_nodes=DEFAULT_NODES,
                  neuro_profile=None, astro_profile=None):
    """Router decisions for both pipelines from measured makespans.

    Each capable engine's makespan is its naive end-to-end trial
    (``fig10c``/``fig10d`` cells, so the trial cache replays them).
    """
    from repro.plan import choose_engine

    rows = []
    for pipeline, plan, fn, count, profile in (
        ("neuro", neuro_plan(), "fig10c", n_subjects,
         neuro_profile or NEURO_BENCH),
        ("astro", astro_plan(), "fig10d", n_visits,
         astro_profile or ASTRO_BENCH),
    ):
        def measure(engine, fn=fn, count=count, profile=profile):
            spec = TrialSpec(fn, {"kind": engine, "count": count,
                                  "n_nodes": n_nodes,
                                  "profile": dict(profile)}, engine=engine)
            return grid_rows([spec])[0]["simulated_s"]

        decision = choose_engine(plan, measure)
        for row in decision.as_rows():
            rows.append(dict({"pipeline": pipeline}, **row))
    return rows


# ----------------------------------------------------------------------
# Figures 10c-10f: end-to-end vs data size (+ normalized views)
# ----------------------------------------------------------------------

@trial("fig10c")
def _trial_fig10c(kind, count, n_nodes, profile, optimize=None):
    subjects = neuro_subjects(count, **profile)
    seconds, _results, _opt = _neuro_end_to_end(
        kind, subjects, n_nodes=n_nodes, optimize=bool(optimize)
    )
    row = {"engine": kind, "subjects": count, "simulated_s": seconds}
    if optimize:
        row["optimized"] = True
    return row


def fig10c_neuro_end_to_end(subject_counts=NEURO_SIZES,
                            engines=("dask", "myria", "spark"),
                            n_nodes=DEFAULT_NODES, profile=None,
                            optimize=False):
    """Fig10c neuro end to end.

    With ``optimize`` every trial's plan passes through the optimizer
    first; the trial params then carry ``optimize``, so optimized cells
    are separately keyed in the trial cache (whose key also hashes the
    ``repro`` source, optimizer included) and the naive entries (and
    their snapshots) stay byte-identical.  ``engines=("auto",)`` runs
    each cell on every capable engine and keeps the fastest.
    """
    profile = profile or NEURO_BENCH
    return grid_rows(
        TrialSpec(
            "fig10c",
            dict(
                {"kind": kind, "count": count, "n_nodes": n_nodes,
                 "profile": dict(profile)},
                **({"optimize": True} if optimize else {}),
            ),
            engine=kind,
        )
        for count in subject_counts
        for kind in engines
    )


def fig10d_astro_end_to_end(visit_counts=ASTRO_SIZES,
                            engines=("myria", "spark"),
                            n_nodes=DEFAULT_NODES, profile=None,
                            optimize=False):
    """Dask is excluded to match the paper ("the implementation freezes
    once deployed on a cluster ... we do not report performance
    numbers", Section 4.4); pass engines=(..., "dask") to include our
    working implementation anyway.  ``optimize`` and ``engines=
    ("auto",)`` behave as in :func:`fig10c_neuro_end_to_end`."""
    profile = profile or ASTRO_BENCH
    return grid_rows(
        TrialSpec(
            "fig10d",
            dict(
                {"kind": kind, "count": count, "n_nodes": n_nodes,
                 "profile": dict(profile)},
                **({"optimize": True} if optimize else {}),
            ),
            engine=kind,
        )
        for count in visit_counts
        for kind in engines
    )


@trial("fig10d")
def _trial_fig10d(kind, count, n_nodes, profile, optimize=None):
    visits = astro_visits(count, **profile)
    seconds, _results, _opt = _astro_end_to_end(
        kind, visits, n_nodes=n_nodes, optimize=bool(optimize)
    )
    row = {"engine": kind, "visits": count, "simulated_s": seconds}
    if optimize:
        row["optimized"] = True
    return row


def normalized_per_unit(rows, unit_key):
    """Figures 10e/10f: runtime per unit, normalized to the smallest
    size (the paper's "ratios of each pipeline runtime to that obtained
    for one subject")."""
    engines = sorted({r["engine"] for r in rows})
    out = []
    for engine in engines:
        engine_rows = sorted(
            (r for r in rows if r["engine"] == engine), key=lambda r: r[unit_key]
        )
        base = engine_rows[0]
        base_per_unit = base["simulated_s"] / base[unit_key]
        for row in engine_rows:
            per_unit = row["simulated_s"] / row[unit_key]
            out.append(
                {
                    "engine": engine,
                    unit_key: row[unit_key],
                    "normalized": per_unit / base_per_unit,
                }
            )
    return out


def fig10e_neuro_normalized(rows=None, **kwargs):
    """Fig10e neuro normalized."""
    rows = rows if rows is not None else fig10c_neuro_end_to_end(**kwargs)
    return normalized_per_unit(rows, "subjects")


def fig10f_astro_normalized(rows=None, **kwargs):
    """Fig10f astro normalized."""
    rows = rows if rows is not None else fig10d_astro_end_to_end(**kwargs)
    return normalized_per_unit(rows, "visits")


# ----------------------------------------------------------------------
# Figures 10g/10h: end-to-end vs cluster size
# ----------------------------------------------------------------------

@trial("fig10g")
def _trial_fig10g(kind, n_nodes, n_subjects, profile):
    subjects = neuro_subjects(n_subjects, **profile)
    return {
        "engine": kind,
        "nodes": n_nodes,
        "simulated_s": run_neuro_end_to_end(kind, subjects, n_nodes=n_nodes),
    }


def fig10g_neuro_speedup(node_counts=CLUSTER_SIZES, n_subjects=25,
                         engines=("dask", "myria", "spark"), profile=None):
    """Fig10g neuro speedup."""
    profile = profile or NEURO_BENCH
    return grid_rows(
        TrialSpec(
            "fig10g",
            {"kind": kind, "n_nodes": n_nodes, "n_subjects": n_subjects,
             "profile": dict(profile)},
            engine=kind,
        )
        for n_nodes in node_counts
        for kind in engines
    )


@trial("fig10h")
def _trial_fig10h(kind, n_nodes, n_visits, profile):
    visits = astro_visits(n_visits, **profile)
    return {
        "engine": kind,
        "nodes": n_nodes,
        "simulated_s": run_astro_end_to_end(kind, visits, n_nodes=n_nodes),
    }


def fig10h_astro_speedup(node_counts=CLUSTER_SIZES, n_visits=24,
                         engines=("myria", "spark"), profile=None):
    """Fig10h astro speedup."""
    profile = profile or ASTRO_BENCH
    return grid_rows(
        TrialSpec(
            "fig10h",
            {"kind": kind, "n_nodes": n_nodes, "n_visits": n_visits,
             "profile": dict(profile)},
            engine=kind,
        )
        for n_nodes in node_counts
        for kind in engines
    )


# ----------------------------------------------------------------------
# Figure 11: data ingest (neuroscience)
# ----------------------------------------------------------------------

def _charge_nifti_to_numpy_staging(cluster, subjects):
    """Conversion of NIfTI files to pickled-NumPy S3 objects, run in
    parallel across the cluster; "the conversion time is included in
    the data ingest time" (Section 5.2.1)."""
    from repro.cluster.task import Task

    cm = cluster.cost_model
    total = sum(s.nominal_bytes for s in subjects)
    share = total / cluster.spec.n_nodes
    tasks = [
        Task(
            f"nifti-convert-{node}",
            duration=share / cm.nifti_parse_bandwidth
            + cm.pickle_time(share)
            + share / cm.s3_bandwidth_per_node,
            node=node,
        )
        for node in cluster.node_order
    ]
    cluster.run(tasks)


@trial("fig11")
def _trial_fig11(system, count, profile):
    subjects = neuro_subjects(count, **profile)
    return {
        "system": system,
        "subjects": count,
        "simulated_s": _ingest_once(system, subjects),
    }


def fig11_ingest(subject_counts=NEURO_SIZES, profile=None,
                 systems=("spark", "myria", "dask", "tensorflow",
                          "scidb-1", "scidb-2")):
    """Fig11 ingest."""
    profile = profile or NEURO_BENCH
    return grid_rows(
        TrialSpec(
            "fig11",
            {"system": system, "count": count, "profile": dict(profile)},
            engine="scidb" if system.startswith("scidb") else system,
        )
        for count in subject_counts
        for system in systems
    )


def _ingest_once(system, subjects):
    kind = "scidb" if system.startswith("scidb") else system
    cluster, engine = fresh_engine(kind)
    engine.ensure_started()  # ingest measured on a warm deployment
    watch = Stopwatch(cluster)

    if system in ("spark", "myria"):
        _charge_nifti_to_numpy_staging(cluster, subjects)
        stage_subjects(cluster.object_store, subjects)
        if system == "spark":
            rdd = neuro_spark.build_image_rdd(
                engine, partitions=cluster.spec.total_slots, cache=True
            )
            rdd.persist_to_workers()
        else:
            neuro_myria.ingest(engine, subjects)
        return watch.lap()

    if system == "dask":
        # Dask loads NIfTI directly into worker memory with manual
        # placement (Section 5.2.1); the paper fit at most 3 subjects
        # per node, so subjects round-robin across nodes.
        stage_subjects(cluster.object_store, subjects)
        nodes = cluster.node_order
        delayed = [
            vol
            for i, subject in enumerate(subjects)
            for vol in neuro_dask.download_and_filter(
                engine, subject, workers=nodes[i % len(nodes)]
            )
        ]
        engine.compute(delayed)
        return watch.lap()

    if system == "tensorflow":
        # All ingest goes through the master, then partitions are sent
        # to each node in a pipelined fashion (Section 5.2.1).
        cm = cluster.cost_model
        total = sum(s.nominal_bytes for s in subjects)
        engine.ensure_started()
        cluster.charge_master(
            cm.s3_read_time(total, n_objects=len(subjects))
            + total / cm.nifti_parse_bandwidth
            + cm.tensor_convert_time(total),
            label="TF master ingest",
        )
        # Pipelined scatter: the master sends node-shares sequentially,
        # overlapping with the next read; charge the serial send.
        share = total / cluster.spec.n_nodes
        for node in cluster.node_order:
            cluster.charge_master(
                cluster.network.transfer_time(share, cluster.master, node),
                label="TF scatter",
            )
        return watch.lap()

    if system in ("scidb-1", "scidb-2"):
        method = "from_array" if system == "scidb-1" else "aio"
        for subject in subjects:
            neuro_scidb.ingest(engine, subject, method=method)
        return watch.lap()

    raise ValueError(f"unknown ingest system {system!r}")


# ----------------------------------------------------------------------
# Figure 12: individual steps (16 nodes, largest dataset)
# ----------------------------------------------------------------------

@trial("fig12a")
def _trial_fig12a(system, n_subjects, profile):
    subjects = neuro_subjects(n_subjects, **profile)
    return {"system": system, "simulated_s": _filter_once(system, subjects)}


def fig12a_filter(n_subjects=25, profile=None,
                  systems=("dask", "myria", "spark", "scidb", "tensorflow")):
    """Step: select the b0 subset of image volumes."""
    profile = profile or NEURO_BENCH
    return grid_rows(
        TrialSpec(
            "fig12a",
            {"system": system, "n_subjects": n_subjects,
             "profile": dict(profile)},
            engine=system,
        )
        for system in systems
    )


def _filter_once(system, subjects):
    cluster, engine = fresh_engine(system)
    gtabs = gradient_tables(subjects)
    stage_subjects(cluster.object_store, subjects)

    if system == "spark":
        base = neuro_spark.build_image_rdd(
            engine, partitions=cluster.spec.total_slots, cache=True
        )
        base.persist_to_workers()  # data in memory, untimed
        watch = Stopwatch(cluster)
        neuro_spark.filter_b0(engine, base, gtabs).persist_to_workers()
        return watch.lap()

    if system == "myria":
        neuro_myria.ingest(engine, subjects)
        watch = Stopwatch(cluster)
        from repro.engines.myria.connection import MyriaQuery
        from repro.plan.fragments import neuro_filter_fragment

        # Emit the step's MyriaL from its plan fragment (identical text
        # to FILTER_QUERY — the emitter only consults ops the fragment
        # keeps).
        MyriaQuery.submit(
            engine, neuro_myria.filter_query(neuro_filter_fragment())
        )
        return watch.lap()

    if system == "dask":
        import numpy as np

        nodes = cluster.node_order
        downloads = {
            s.subject_id: neuro_dask.download_and_filter(
                engine, s, workers=nodes[i % len(nodes)]
            )
            for i, s in enumerate(subjects)
        }
        engine.compute([v for vols in downloads.values() for v in vols])
        watch = Stopwatch(cluster)

        def select(*volumes):
            return list(volumes)

        def select_cost(*volumes):
            total = sum(v.nominal_bytes for v in volumes)
            return total * engine.cost_model.memcpy_per_byte

        filtered = []
        for s in subjects:
            b0 = [
                downloads[s.subject_id][i]
                for i in np.nonzero(s.gtab.b0s_mask)[0]
            ]
            filtered.append(engine.delayed(select, cost=select_cost)(*b0))
        engine.compute(filtered)
        return watch.lap()

    if system == "scidb":
        array = neuro_scidb.ingest_cohort(engine, subjects, method="aio")
        watch = Stopwatch(cluster)
        neuro_scidb.filter_step_cohort(engine, array, subjects)
        return watch.lap()

    if system == "tensorflow":
        watch = Stopwatch(cluster)
        for subject in subjects:
            neuro_tf.filter_step(engine, subject)
        return watch.lap()

    raise ValueError(f"unknown system {system!r}")


@trial("fig12b")
def _trial_fig12b(system, n_subjects, profile):
    subjects = neuro_subjects(n_subjects, **profile)
    return {"system": system, "simulated_s": _mean_once(system, subjects)}


def fig12b_mean(n_subjects=25, profile=None,
                systems=("dask", "myria", "spark", "scidb", "tensorflow")):
    """Step: per-subject mean of the b0 volumes."""
    profile = profile or NEURO_BENCH
    return grid_rows(
        TrialSpec(
            "fig12b",
            {"system": system, "n_subjects": n_subjects,
             "profile": dict(profile)},
            engine=system,
        )
        for system in systems
    )


def _mean_once(system, subjects):
    cluster, engine = fresh_engine(system)
    gtabs = gradient_tables(subjects)
    stage_subjects(cluster.object_store, subjects)

    if system == "spark":
        base = neuro_spark.build_image_rdd(
            engine, partitions=cluster.spec.total_slots, cache=True
        )
        b0 = neuro_spark.filter_b0(engine, base, gtabs).cache()
        b0.persist_to_workers()  # untimed: input of the mean step
        watch = Stopwatch(cluster)
        neuro_spark.mean_b0(engine, b0).persist_to_workers()
        return watch.lap()

    if system == "myria":
        neuro_myria.ingest(engine, subjects)
        neuro_myria.register_udfs(engine, subjects)
        watch = Stopwatch(cluster)
        from repro.engines.myria.connection import MyriaQuery
        from repro.plan.fragments import neuro_mean_fragment

        MyriaQuery.submit(
            engine, neuro_myria.mean_query(neuro_mean_fragment())
        )
        return watch.lap()

    if system == "dask":
        nodes = cluster.node_order
        downloads = {
            s.subject_id: neuro_dask.download_and_filter(
                engine, s, workers=nodes[i % len(nodes)]
            )
            for i, s in enumerate(subjects)
        }
        engine.compute([v for vols in downloads.values() for v in vols])
        watch = Stopwatch(cluster)
        means = [
            neuro_dask.build_mask_graph(engine, s, downloads[s.subject_id])
            for s in subjects
        ]
        engine.compute(means)
        return watch.lap()

    if system == "scidb":
        array = neuro_scidb.ingest_cohort(engine, subjects, method="aio")
        filtered = neuro_scidb.filter_step_cohort(engine, array, subjects)
        watch = Stopwatch(cluster)
        neuro_scidb.mean_step_cohort(engine, filtered)
        return watch.lap()

    if system == "tensorflow":
        filtered = [neuro_tf.filter_step(engine, s) for s in subjects]
        watch = Stopwatch(cluster)
        for f in filtered:
            neuro_tf.mean_step(engine, f)
        return watch.lap()

    raise ValueError(f"unknown system {system!r}")


@trial("fig12c")
def _trial_fig12c(system, n_subjects, profile):
    subjects = neuro_subjects(n_subjects, **profile)
    return {"system": system, "simulated_s": _denoise_once(system, subjects)}


def fig12c_denoise(n_subjects=25, profile=None,
                   systems=("dask", "myria", "spark", "scidb", "tensorflow")):
    """Step 2-N: denoising (SciDB via stream(), TF via convolutions)."""
    profile = profile or NEURO_BENCH
    return grid_rows(
        TrialSpec(
            "fig12c",
            {"system": system, "n_subjects": n_subjects,
             "profile": dict(profile)},
            engine=system,
        )
        for system in systems
    )


def _denoise_once(system, subjects):
    from repro.pipelines.neuro.reference import compute_mask

    cluster, engine = fresh_engine(system)
    gtabs = gradient_tables(subjects)
    stage_subjects(cluster.object_store, subjects)
    masks = {s.subject_id: compute_mask(s) for s in subjects}

    if system == "spark":
        from repro.algorithms.nlmeans import nlmeans_3d
        from repro.pipelines import common
        from repro.pipelines.neuro.reference import DENOISE_SIGMA

        base = neuro_spark.build_image_rdd(
            engine, partitions=cluster.spec.total_slots, cache=True
        )
        base.persist_to_workers()
        fraction = float(np.mean([m.mean() for m in masks.values()]))
        masks_b = engine.broadcast(
            masks, nominal_bytes=sum(m.size for m in masks.values())
        )
        watch = Stopwatch(cluster)

        def denoise(volume):
            mask = masks_b.value[volume.meta["subject_id"]]
            return volume.with_array(
                nlmeans_3d(volume.array, sigma=DENOISE_SIGMA, mask=mask)
            )

        base.map(
            udf(denoise, cost=common.denoise_cost(cluster.cost_model, fraction))
        ).persist_to_workers()
        return watch.lap()

    if system == "myria":
        neuro_myria.ingest(engine, subjects)
        fraction = float(np.mean([m.mean() for m in masks.values()]))
        neuro_myria.register_udfs(engine, subjects, mask_fraction=fraction)
        neuro_myria._MASK_CACHE.clear()
        neuro_myria._MASK_CACHE.update(masks)
        from repro.engines.myria import Relation
        from repro.formats.sizing import SizedArray

        mask_rows = [
            (
                sid,
                SizedArray(
                    mask,
                    nominal_shape=NEURO_VOLUME_SHAPE,
                    meta={"subject_id": sid},
                ),
            )
            for sid, mask in masks.items()
        ]
        engine.ingest_relation(
            Relation.from_rows("Mask", ("subjId", "mask"), mask_rows), "subjId"
        )
        watch = Stopwatch(cluster)
        from repro.engines.myria.connection import MyriaQuery

        MyriaQuery.submit(
            engine,
            """
T1 = SCAN(Images);
T2 = SCAN(Mask);
Joined = [SELECT T1.subjId, T1.imgId, T1.img, T2.mask
          FROM T1, BROADCAST(T2) WHERE T1.subjId = T2.subjId];
Denoised = [FROM Joined EMIT PYUDF(Denoise, Joined.img, Joined.mask) AS img,
            Joined.subjId, Joined.imgId];
""",
        )
        return watch.lap()

    if system == "dask":
        nodes = cluster.node_order
        downloads = {
            s.subject_id: neuro_dask.download_and_filter(
                engine, s, workers=nodes[i % len(nodes)]
            )
            for i, s in enumerate(subjects)
        }
        mask_delayed = {
            s.subject_id: neuro_dask.build_mask_graph(
                engine, s, downloads[s.subject_id]
            )
            for s in subjects
        }
        engine.compute(
            [v for vols in downloads.values() for v in vols]
            + list(mask_delayed.values())
        )
        watch = Stopwatch(cluster)
        from repro.algorithms.nlmeans import nlmeans_3d
        from repro.pipelines import common
        from repro.pipelines.neuro.reference import DENOISE_SIGMA

        cm = cluster.cost_model

        def denoise_one(volume, mask):
            return volume.with_array(
                nlmeans_3d(volume.array, sigma=DENOISE_SIGMA, mask=mask)
            )

        def denoise_cost(volume, mask):
            fraction = common.masked_fraction(mask)
            return volume.nominal_elements * fraction * cm.nlmeans_per_voxel

        denoised = [
            engine.delayed(denoise_one, cost=denoise_cost)(
                vol, mask_delayed[s.subject_id]
            )
            for s in subjects
            for vol in downloads[s.subject_id]
        ]
        engine.compute(denoised)
        return watch.lap()

    if system == "scidb":
        array = neuro_scidb.ingest_cohort(engine, subjects, method="aio")
        masks_by_index = {
            i: masks[s.subject_id] for i, s in enumerate(subjects)
        }
        watch = Stopwatch(cluster)
        neuro_scidb.denoise_step_cohort(engine, array, masks_by_index)
        return watch.lap()

    if system == "tensorflow":
        watch = Stopwatch(cluster)
        for s in subjects:
            neuro_tf.denoise_step(engine, s)
        return watch.lap()

    raise ValueError(f"unknown system {system!r}")


@trial("fig12d")
def _trial_fig12d(system, n_visits, profile):
    visits = astro_visits(n_visits, **profile)
    return {"system": system, "simulated_s": _coadd_once(system, visits)}


def fig12d_coadd(n_visits=24, profile=None,
                 systems=("myria", "spark", "scidb")):
    """Step 3-A: co-addition (SciDB in stock iterative AQL)."""
    profile = profile or ASTRO_BENCH
    return grid_rows(
        TrialSpec(
            "fig12d",
            {"system": system, "n_visits": n_visits,
             "profile": dict(profile)},
            engine=system,
        )
        for system in systems
    )


def _coadd_once(system, visits, incremental=False, chunk=None):
    from repro.pipelines import common

    cluster, engine = fresh_engine(system)
    stage_visits(cluster.object_store, visits)
    exposures = [e for v in visits for e in v.exposures]
    grid = astro_ref.default_patch_grid(exposures[0].shape)
    pixel_scale = astro_ref.nominal_pixel_scale(
        exposures[0].shape, exposures[0].bundle
    )

    if system == "spark":
        base = astro_spark.build_exposure_rdd(
            engine, partitions=cluster.spec.total_slots, cache=True
        )
        calibrated = base.map(
            udf(astro_ref.preprocess_exposure,
                cost=common.preprocess_cost(cluster.cost_model))
        )

        def to_pieces(exposure):
            return astro_ref.patch_pieces(exposure, grid, pixel_scale)

        def stitch(kv):
            return kv[0], astro_ref.stitch_pieces(kv[1])

        patch_exp = (
            calibrated.flatMap(
                udf(to_pieces, cost=common.patch_map_cost(cluster.cost_model))
            )
            .groupByKey(numPartitions=cluster.spec.total_slots)
            .map(udf(stitch))
            .cache()
        )
        patch_exp.persist_to_workers()  # input of the step, untimed
        watch = Stopwatch(cluster)

        def rekey(kv):
            (patch_id, visit_id), stitched = kv
            return patch_id, (visit_id, stitched)

        def coadd(kv):
            ordered = [s for _v, s in sorted(kv[1], key=lambda e: e[0])]
            return kv[0], astro_ref.coadd_patch(ordered)

        def coadd_cost(kv):
            return common.coadd_cost(
                cluster.cost_model, astro_ref.COADD_ITERATIONS
            )([s for _v, s in kv[1]])

        (
            patch_exp.map(udf(rekey))
            .groupByKey(numPartitions=cluster.spec.total_slots)
            .map(udf(coadd, cost=coadd_cost))
            .persist_to_workers()
        )
        return watch.lap()

    if system == "myria":
        astro_myria.ingest(engine, visits)
        astro_myria.register_udfs(engine, grid, pixel_scale)
        from repro.engines.myria.connection import MyriaQuery

        MyriaQuery.submit(
            engine,
            """
E = SCAN(Exposures);
Calib = [FROM E EMIT PYUDF(Preproc, E.img) AS img, E.visit, E.expId];
Pieces = [FROM Calib EMIT
          UNNEST(PYUDF(PatchMap, Calib.img)) AS (patchY, patchX, visitId, piece)];
PatchExp = [FROM Pieces EMIT Pieces.patchY, Pieces.patchX, Pieces.visitId,
            UDA(Stitch, Pieces.piece) AS img];
STORE(PatchExp, PatchExposures);
""",
        )
        watch = Stopwatch(cluster)
        MyriaQuery.submit(
            engine,
            """
P = SCAN(PatchExposures);
Coadds = [FROM P EMIT P.patchY, P.patchX, UDA(CoaddAgg, P.img, P.visitId) AS coadd];
""",
        )
        return watch.lap()

    if system == "scidb":
        array = astro_scidb.ingest(
            engine, visits, chunk=chunk or astro_scidb.DEFAULT_CHUNK
        )
        watch = Stopwatch(cluster)
        astro_scidb.coadd_step(engine, array, incremental=incremental)
        return watch.lap()

    raise ValueError(f"unknown system {system!r}")


# ----------------------------------------------------------------------
# Figure 13: Myria workers per node
# ----------------------------------------------------------------------

@trial("fig13")
def _trial_fig13(workers, n_subjects, n_nodes, profile):
    subjects = neuro_subjects(n_subjects, **profile)
    return {
        "workers_per_node": workers,
        "simulated_s": run_neuro_end_to_end(
            "myria", subjects, n_nodes=n_nodes, workers_per_node=workers
        ),
    }


def fig13_myria_workers(worker_counts=(1, 2, 4, 8), n_subjects=25,
                        n_nodes=DEFAULT_NODES, profile=None):
    """Fig13 myria workers."""
    profile = profile or NEURO_BENCH
    return grid_rows(
        TrialSpec(
            "fig13",
            {"workers": workers, "n_subjects": n_subjects,
             "n_nodes": n_nodes, "profile": dict(profile)},
            engine="myria",
        )
        for workers in worker_counts
    )


# ----------------------------------------------------------------------
# Figure 14: Spark input partitions (single subject)
# ----------------------------------------------------------------------

@trial("fig14")
def _trial_fig14(partitions, n_nodes, profile):
    subjects = neuro_subjects(1, **profile)
    return {
        "partitions": partitions,
        "simulated_s": run_neuro_end_to_end(
            "spark", subjects, n_nodes=n_nodes,
            input_partitions=partitions,
            group_partitions=max(partitions, 1),
        ),
    }


def fig14_spark_partitions(
    partition_counts=(1, 2, 4, 8, 16, 32, 64, 97, 128, 192, 256),
    n_nodes=DEFAULT_NODES, profile=None,
):
    """Fig14 spark partitions."""
    profile = profile or {"scale": NEURO_BENCH["scale"], "n_volumes": 288}
    return grid_rows(
        TrialSpec(
            "fig14",
            {"partitions": partitions, "n_nodes": n_nodes,
             "profile": dict(profile)},
            engine="spark",
        )
        for partitions in partition_counts
    )


# ----------------------------------------------------------------------
# Figure 15: Myria memory management (astronomy)
# ----------------------------------------------------------------------

@trial("fig15")
def _trial_fig15(count, mode, n_nodes, chunks, profile):
    visits = astro_visits(count, **profile)
    cluster, engine = fresh_engine("myria", n_nodes=n_nodes)
    stage_visits(cluster.object_store, visits)
    watch = Stopwatch(cluster)
    try:
        astro_myria.run(
            engine, visits, mode=mode,
            chunks=chunks if mode == "multiquery" else 1,
            source="s3",
        )
        result = watch.lap()
    except OutOfMemoryError:
        result = "OOM"
    return {"visits": count, "mode": mode, "simulated_s": result}


def fig15_myria_memory(visit_counts=(2, 4, 8, 12, 24),
                       modes=("pipelined", "materialized", "multiquery"),
                       n_nodes=DEFAULT_NODES, chunks=2, profile=None):
    """Pipelined vs materialized vs multi-query execution; cells where
    a mode runs out of memory report ``"OOM"`` (the paper's missing
    bars)."""
    profile = profile or ASTRO_BENCH
    return grid_rows(
        TrialSpec(
            "fig15",
            {"count": count, "mode": mode, "n_nodes": n_nodes,
             "chunks": chunks, "profile": dict(profile)},
            engine="myria",
        )
        for count in visit_counts
        for mode in modes
    )


# ----------------------------------------------------------------------
# Section 5.3.1: SciDB chunk-size tuning (co-addition)
# ----------------------------------------------------------------------

@trial("s531")
def _trial_s531(chunk, n_visits, profile):
    visits = astro_visits(n_visits, **profile)
    return {
        "chunk": chunk,
        "simulated_s": _coadd_once("scidb", visits, chunk=chunk),
    }


def s531_scidb_chunks(chunk_sizes=(500, 1000, 1500, 2000), n_visits=24,
                      profile=None):
    """S531 scidb chunks."""
    profile = profile or ASTRO_BENCH
    return grid_rows(
        TrialSpec(
            "s531",
            {"chunk": chunk, "n_visits": n_visits, "profile": dict(profile)},
            engine="scidb",
        )
        for chunk in chunk_sizes
    )


# ----------------------------------------------------------------------
# Section 5.3.3: Spark input caching
# ----------------------------------------------------------------------

@trial("s533")
def _trial_s533(count, cached, n_nodes, profile):
    subjects = neuro_subjects(count, **profile)
    return {
        "subjects": count,
        "cached": cached,
        "simulated_s": run_neuro_end_to_end(
            "spark", subjects, n_nodes=n_nodes, cache_input=cached
        ),
    }


def s533_spark_caching(subject_counts=(1, 4, 12, 25), n_nodes=DEFAULT_NODES,
                       profile=None):
    """S533 spark caching."""
    profile = profile or NEURO_BENCH
    return grid_rows(
        TrialSpec(
            "s533",
            {"count": count, "cached": cached, "n_nodes": n_nodes,
             "profile": dict(profile)},
            engine="spark",
        )
        for count in subject_counts
        for cached in (False, True)
    )


# ----------------------------------------------------------------------
# Ablation: SciDB incremental iterative processing ([34], Section 5.2.4)
# ----------------------------------------------------------------------

@trial("ablation_scidb")
def _trial_ablation_scidb(incremental, n_visits, profile):
    visits = astro_visits(n_visits, **profile)
    return {
        "variant": "incremental [34]" if incremental else "stock AQL",
        "simulated_s": _coadd_once("scidb", visits, incremental=incremental),
    }


def ablation_scidb_incremental(n_visits=24, profile=None):
    """Ablation scidb incremental."""
    profile = profile or ASTRO_BENCH
    rows = grid_rows(
        TrialSpec(
            "ablation_scidb",
            {"incremental": incremental, "n_visits": n_visits,
             "profile": dict(profile)},
            engine="scidb",
        )
        for incremental in (False, True)
    )
    stock, incremental = (r["simulated_s"] for r in rows)
    return rows + [
        {"variant": "speedup", "simulated_s": stock / incremental},
    ]


# ----------------------------------------------------------------------
# F16: recovery overhead under a mid-run node kill (fault injection)
# ----------------------------------------------------------------------

#: Fault-schedule seed for F16 (fixed so the checked-in ledger baseline
#: reproduces byte-for-byte).
F16_SEED = 16

#: The killed node reboots and rejoins this many simulated seconds
#: after the crash (an EC2 instance reboot).  This is the term that
#: separates the recovery classes: lineage recompute proceeds on the
#: survivors immediately, while Myria/SciDB hold hash-partitioned
#: state on every worker and must wait the reboot out before redoing
#: work.
F16_RESTART_AFTER_S = 18.0

F16_ENGINES = ("spark", "dask", "myria", "scidb", "tensorflow")

#: Section 2's qualitative recovery claims, one label per engine.
F16_RECOVERY = {
    "spark": "lineage recompute",
    "dask": "reschedule futures",
    "myria": "query restart",
    "scidb": "rerun from ingested array",
    "tensorflow": "rerun from scratch",
}


@trial("f16")
def _trial_f16(kind, n_subjects, n_nodes, profile, restart_after_s, seed):
    subjects = neuro_subjects(n_subjects, **profile)
    base = _f16_baseline(kind, subjects, n_nodes)
    baseline_s = base["end"] - base["start"]
    crash_at = base["ingest_end"] + 0.5 * (base["end"] - base["ingest_end"])
    faulty = _f16_faulty(
        kind, subjects, n_nodes, crash_at, restart_after_s, seed
    )
    faulty_s = faulty["end"] - faulty["start"]
    return {
        "engine": kind,
        "recovery": F16_RECOVERY[kind],
        "baseline_s": baseline_s,
        "faulty_s": faulty_s,
        "overhead_s": faulty_s - baseline_s,
        "overhead_pct": 100.0 * (faulty_s - baseline_s) / baseline_s,
    }


def f16_recovery(engines=F16_ENGINES, n_subjects=2, n_nodes=DEFAULT_NODES,
                 profile=None, restart_after_s=F16_RESTART_AFTER_S,
                 seed=F16_SEED):
    """Kill 1 of ``n_nodes`` at 50% progress of the neuro pipeline.

    For every engine: run the pipeline fault-free to locate the halfway
    point of its compute phase (past ingest), then rerun with a seeded
    :class:`~repro.cluster.faults.FaultPlan` that crashes the last
    node at that instant and reboots it ``restart_after_s`` later.
    Spark recomputes from lineage, Dask reschedules lost futures, Myria
    restarts the query; SciDB and TensorFlow have no recovery path, so
    the harness plays the operator -- wait out the reboot, rerun.
    Returns one row per engine with the recovery overhead.
    """
    profile = profile or NEURO_BENCH
    return grid_rows(
        TrialSpec(
            "f16",
            {"kind": kind, "n_subjects": n_subjects, "n_nodes": n_nodes,
             "profile": dict(profile), "restart_after_s": restart_after_s,
             "seed": seed},
            engine=kind,
            faults={"crash": "last-node@50%-progress",
                    "restart_after_s": restart_after_s, "seed": seed},
        )
        for kind in engines
    )


def _f16_baseline(kind, subjects, n_nodes):
    """Fault-free reference run; returns absolute phase timestamps."""
    cluster, engine = fresh_engine(kind, n_nodes=n_nodes)
    stage_subjects(cluster.object_store, subjects)
    start = cluster.now
    ingest_end = _f16_pipeline(kind, cluster, engine, subjects)
    return {"start": start, "ingest_end": ingest_end, "end": cluster.now}


def _f16_faulty(kind, subjects, n_nodes, crash_at, restart_after_s, seed):
    """The same pipeline with the last node crashing at ``crash_at``."""
    from repro.cluster.errors import NodeCrashedError
    from repro.cluster.faults import FaultPlan

    cluster, engine = fresh_engine(kind, n_nodes=n_nodes)
    stage_subjects(cluster.object_store, subjects)
    victim = cluster.node_order[-1]  # never the master/coordinator
    cluster.install_faults(
        FaultPlan(seed=seed).crash_node(
            victim, at_time=crash_at, restart_after=restart_after_s
        )
    )
    start = cluster.now
    if kind in ("spark", "dask", "myria"):
        # Recovery is the engine's job (executor recompute or the Myria
        # coordinator's restart loop).
        _f16_pipeline(kind, cluster, engine, subjects)
        return {"start": start, "end": cluster.now, "victim": victim}

    if kind == "scidb":
        array = neuro_scidb.ingest_cohort(engine, subjects, method="aio")
        try:
            _f16_scidb_compute(engine, array, subjects)
        except NodeCrashedError as exc:
            _f16_wait_for_reboot(cluster, kind, exc)
            _f16_scidb_compute(engine, array, subjects)
    elif kind == "tensorflow":
        try:
            _f16_tf_compute(engine, subjects)
        except NodeCrashedError as exc:
            _f16_wait_for_reboot(cluster, kind, exc)
            _f16_tf_compute(engine, subjects)
    else:
        raise ValueError(f"no F16 runner for {kind!r}")
    return {"start": start, "end": cluster.now, "victim": victim}


def _f16_wait_for_reboot(cluster, kind, exc):
    """No engine-level recovery: wait for the node, then rerun."""
    from repro.obs.events import QueryRestarted

    if exc.recover_at is None:
        raise exc
    if exc.recover_at > cluster.now:
        cluster.charge_master(
            exc.recover_at - cluster.now,
            label="wait for node reboot",
            category="recovery-wait",
        )
    if cluster.obs.events:
        cluster.obs.events.emit(
            QueryRestarted(
                cluster.now, kind, 1, f"node {exc.node} crashed"
            )
        )


def _f16_pipeline(kind, cluster, engine, subjects):
    """Run the neuro pipeline; returns the clock time ingest finished."""
    if kind == "spark":
        gtabs = gradient_tables(subjects)
        rdd = neuro_spark.build_image_rdd(
            engine, partitions=cluster.spec.total_slots, cache=True
        )
        rdd.persist_to_workers()
        ingest_end = cluster.now
        masks = neuro_spark.segmentation(engine, rdd, gtabs)
        neuro_spark.denoise_and_fit(engine, rdd, gtabs, masks)
        return ingest_end
    if kind == "dask":
        nodes = cluster.node_order
        data = {}
        for index, subject in enumerate(subjects):
            data[subject.subject_id] = neuro_dask.download_and_filter(
                engine, subject, workers=nodes[index % len(nodes)]
            )
        engine.compute([v for vols in data.values() for v in vols])
        ingest_end = cluster.now
        masks = {
            s.subject_id: neuro_dask.build_mask_graph(
                engine, s, data[s.subject_id]
            )
            for s in subjects
        }
        fa = [
            neuro_dask.build_fit_graph(
                engine, s, data[s.subject_id], masks[s.subject_id]
            )
            for s in subjects
        ]
        engine.compute(list(masks.values()) + fa)
        return ingest_end
    if kind == "myria":
        neuro_myria.ingest(engine, subjects)
        ingest_end = cluster.now
        neuro_myria.run(engine, subjects, source="ingested")
        return ingest_end
    if kind == "scidb":
        array = neuro_scidb.ingest_cohort(engine, subjects, method="aio")
        ingest_end = cluster.now
        _f16_scidb_compute(engine, array, subjects)
        return ingest_end
    if kind == "tensorflow":
        ingest_end = cluster.now  # every TF run re-ingests via the master
        _f16_tf_compute(engine, subjects)
        return ingest_end
    raise ValueError(f"no F16 runner for {kind!r}")


def _f16_scidb_compute(engine, array, subjects):
    from repro.pipelines.neuro.reference import compute_mask

    masks = {i: compute_mask(s) for i, s in enumerate(subjects)}
    filtered = neuro_scidb.filter_step_cohort(engine, array, subjects)
    neuro_scidb.mean_step_cohort(engine, filtered)
    neuro_scidb.denoise_step_cohort(engine, array, masks)


def _f16_tf_compute(engine, subjects):
    for subject in subjects:
        filtered = neuro_tf.filter_step(engine, subject)
        mean = neuro_tf.mean_step(engine, filtered)
        neuro_tf.mask_step(engine, mean)
        neuro_tf.denoise_step(engine, subject)


# ----------------------------------------------------------------------
# Future-work ablations (Section 6)
# ----------------------------------------------------------------------

@trial("ablation_tf")
def _trial_ablation_tf(free_conversions, n_subjects, profile):
    from repro.cluster.costs import CostModel

    subjects = neuro_subjects(n_subjects, **profile)
    cost_model = CostModel()
    if free_conversions:
        cost_model = cost_model.with_overrides(tensor_convert_bandwidth=1e18)
    cluster, engine = fresh_engine("tensorflow", cost_model=cost_model)
    filtered = [neuro_tf.filter_step(engine, s) for s in subjects]
    watch = Stopwatch(cluster)
    for f in filtered:
        neuro_tf.mean_step(engine, f)
    return {
        "variant": "free conversions" if free_conversions
                   else "stock TensorFlow",
        "simulated_s": watch.lap(),
    }


def ablation_tf_format_conversion(n_subjects=4, profile=None):
    """Section 6, "Data Formats": "An interesting area of future work is
    to optimize away these format conversions."  Re-runs the TensorFlow
    mean step with tensor conversion made free, quantifying how much of
    TF's Figure 12b deficit the conversions explain.
    """
    profile = profile or NEURO_BENCH
    rows = grid_rows(
        TrialSpec(
            "ablation_tf",
            {"free_conversions": free, "n_subjects": n_subjects,
             "profile": dict(profile)},
            engine="tensorflow",
        )
        for free in (False, True)
    )
    stock, no_conversion = (r["simulated_s"] for r in rows)
    return rows + [
        {"variant": "conversion share",
         "simulated_s": 1 - no_conversion / stock},
    ]


@trial("ablation_tuning")
def _trial_ablation_tuning(tuned, n_nodes, profile):
    subjects = neuro_subjects(1, **profile)
    if tuned:
        simulated = run_neuro_end_to_end("spark", subjects, n_nodes=n_nodes)
    else:
        simulated = run_neuro_end_to_end(
            "spark", subjects, n_nodes=n_nodes,
            input_partitions=None,  # the HDFS-block default
            group_partitions=None,
        )
    return {
        "variant": "tuned partitions" if tuned else "default partitions",
        "simulated_s": simulated,
    }


def ablation_spark_self_tuning(profile=None, n_nodes=DEFAULT_NODES):
    """Section 6, "System Tuning": "none of them performed best with the
    default settings."  Compares Spark's default (HDFS-block-like)
    partitioning against the tuned slot count for one subject -- the
    under-utilization the paper observed when "Spark creates only 4
    partitions" (Section 5.3.1).
    """
    profile = profile or {"scale": NEURO_BENCH["scale"], "n_volumes": 288}
    rows = grid_rows(
        TrialSpec(
            "ablation_tuning",
            {"tuned": tuned, "n_nodes": n_nodes, "profile": dict(profile)},
            engine="spark",
        )
        for tuned in (False, True)
    )
    default, tuned = (r["simulated_s"] for r in rows)
    return rows + [
        {"variant": "speedup", "simulated_s": default / tuned},
    ]
