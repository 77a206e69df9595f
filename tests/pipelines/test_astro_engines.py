"""Cross-engine integration tests: the astronomy pipeline."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, SimulatedCluster
from repro.engines.dask import DaskClient
from repro.engines.myria import MyriaConnection
from repro.engines.scidb import SciDBConnection
from repro.engines.spark import SparkContext
from repro.engines.dask.lowering import astro as astro_dask
from repro.engines.myria.lowering import astro as astro_myria
from repro.engines.scidb.lowering import astro as astro_scidb
from repro.engines.spark.lowering import astro as astro_spark
from repro.pipelines.astro.reference import run_reference
from repro.pipelines.astro.staging import stage_visits


@pytest.fixture(scope="module")
def reference(tiny_visits):
    return run_reference(tiny_visits)


def _assert_matches(coadds, sources, reference):
    ref_coadds, ref_sources = reference
    assert set(coadds) == set(ref_coadds)
    for patch in ref_coadds:
        assert np.allclose(
            np.nan_to_num(coadds[patch].array),
            np.nan_to_num(ref_coadds[patch].array),
            atol=1e-8,
        )
    assert sum(len(s) for s in sources.values()) == sum(
        len(s) for s in ref_sources.values()
    )


def test_spark_matches_reference(tiny_visits, reference):
    cluster = SimulatedCluster(ClusterSpec(n_nodes=4))
    sc = SparkContext(cluster)
    stage_visits(cluster.object_store, tiny_visits)
    coadds, sources = astro_spark.run(sc, tiny_visits, input_partitions=16)
    _assert_matches(coadds, sources, reference)


def test_myria_matches_reference(tiny_visits, reference):
    cluster = SimulatedCluster(
        ClusterSpec(n_nodes=4, workers_per_node=4, slots_per_worker=1)
    )
    conn = MyriaConnection(cluster)
    stage_visits(cluster.object_store, tiny_visits)
    coadds, sources = astro_myria.run(
        conn, tiny_visits, mode="materialized", source="s3"
    )
    _assert_matches(coadds, sources, reference)


def test_myria_multiquery_matches_reference(tiny_visits, reference):
    cluster = SimulatedCluster(
        ClusterSpec(n_nodes=4, workers_per_node=4, slots_per_worker=1)
    )
    conn = MyriaConnection(cluster)
    stage_visits(cluster.object_store, tiny_visits)
    coadds, sources = astro_myria.run(
        conn, tiny_visits, mode="multiquery", chunks=2, source="s3"
    )
    _assert_matches(coadds, sources, reference)


def test_dask_matches_reference(tiny_visits, reference):
    """Our miniDask implementation completes (unlike the paper's
    deployment, which froze; the harness still excludes it from the
    astronomy charts to match the paper's reporting)."""
    cluster = SimulatedCluster(ClusterSpec(n_nodes=4))
    client = DaskClient(cluster)
    stage_visits(cluster.object_store, tiny_visits)
    coadds, sources = astro_dask.run(client, tiny_visits)
    _assert_matches(coadds, sources, reference)


def test_scidb_coadd_only(tiny_visits):
    """SciDB implements ingest + co-addition; other steps are X/NA."""
    cluster = SimulatedCluster(
        ClusterSpec(n_nodes=4, workers_per_node=4, slots_per_worker=1)
    )
    sdb = SciDBConnection(cluster)
    coadd = astro_scidb.run(sdb, tiny_visits)
    assert coadd.array.ndim == 2
    assert np.nanmax(coadd.array) > 0
    with pytest.raises(NotImplementedError):
        astro_scidb.preprocess_step()
    with pytest.raises(NotImplementedError):
        astro_scidb.detect_step()


def test_scidb_mosaic_covers_field(tiny_visits):
    stack, origin, nominal = astro_scidb.sky_mosaic(tiny_visits)
    assert stack.shape[0] == len(tiny_visits)
    # Every visit contributed non-NaN pixels.
    for vi in range(len(tiny_visits)):
        assert np.isfinite(stack[vi]).any()
    assert nominal[0] == len(tiny_visits)
