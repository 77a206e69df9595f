"""Measured routing: Table-1 refusals and argmin over makespans.

The router prices nothing itself: a caller-supplied ``measure(engine)``
returns each engine's simulated makespan.  The unit tests drive it with
stubs (argmin, tie break by name, refusals never measured); the
end-to-end tests measure the real pipelines at the quick profiles and
pin the orderings the checked-in quick ledgers record.  The last
section pins the per-engine fusion gate the router's runs lower under.
"""

import pytest

from repro.harness.__main__ import QUICK_ASTRO, QUICK_NEURO
from repro.harness.experiments import routing_table
from repro.plan import astro_plan, choose_engine, neuro_plan
from repro.plan.ir import LogicalPlan, materialize, scan
from repro.plan.opt import FUSING_ENGINES, optimize_for
from repro.plan.route import choose_engine as route_choose
from repro.plan.route import supports
from repro.plan.rules import FuseNarrowMaps

assert route_choose is choose_engine  # re-exported via repro.plan


class _Stub:
    """``measure`` callable over fixed makespans that logs its calls."""

    def __init__(self, makespans):
        self.makespans = makespans
        self.calls = []

    def __call__(self, engine):
        self.calls.append(engine)
        return self.makespans[engine]


@pytest.fixture(scope="module")
def measured():
    """pipeline -> {engine: makespan} at the quick profiles."""
    rows = routing_table(n_subjects=2, n_visits=2,
                         neuro_profile=QUICK_NEURO, astro_profile=QUICK_ASTRO)
    out = {}
    for row in rows:
        if "makespan_s" in row:
            out.setdefault(row["pipeline"], {})[row["engine"]] = \
                row["makespan_s"]
    return out


# ----------------------------------------------------------------------
# Table-1 support constraints
# ----------------------------------------------------------------------

def test_partial_lowerings_refuse_with_table1_reasons():
    level, reason = supports("neuro", "scidb")
    assert level == "partial" and "Table 1 X" in reason
    level, reason = supports("neuro", "tensorflow")
    assert level == "partial" and "no end-to-end pipeline" in reason
    level, reason = supports("astro", "scidb")
    assert level == "partial" and "Table 1 NA" in reason
    level, reason = supports("astro", "tensorflow")
    assert level == "na" and "no TensorFlow lowering exists" in reason


def test_unknown_plan_names_default_to_full():
    # Fragments keep their pipeline name; synthetic plans route freely.
    assert supports("anything-else", "scidb") == ("full", "no constraint")


def test_refused_engines_never_priced():
    stub = _Stub({"dask": 3.0, "myria": 1.0, "spark": 2.0})
    decision = choose_engine(neuro_plan(), stub)
    assert stub.calls == ["dask", "myria", "spark"]
    assert set(decision.makespans) == {"dask", "myria", "spark"}
    assert set(decision.refusals) == {"scidb", "tensorflow"}
    rows = decision.as_rows()
    refused = [r for r in rows if "refused" in r]
    assert {r["engine"] for r in refused} == {"scidb", "tensorflow"}
    assert all("makespan_s" not in r for r in refused)
    assert sum(1 for r in rows if r.get("chosen")) == 1


def test_router_picks_smallest_makespan():
    stub = _Stub({"dask": 5.0, "myria": 7.0, "spark": 4.5})
    decision = choose_engine(astro_plan(), stub)
    assert decision.engine == "spark"
    assert decision.makespans == {"dask": 5.0, "myria": 7.0, "spark": 4.5}


def test_all_candidates_refused_raises():
    plan = LogicalPlan(
        name="neuro",
        ops=(
            scan("volumes", step="Ingest", format="nii"),
            materialize("out", "volumes", step="Ingest", blame="out"),
        ),
    ).validate()
    stub = _Stub({})
    with pytest.raises(ValueError, match="no engine can run plan"):
        choose_engine(plan, stub, candidates=("scidb", "tensorflow"))
    assert stub.calls == []


def test_deterministic_tie_break_by_engine_name():
    stub = _Stub({"dask": 2.0, "myria": 2.0, "spark": 2.0})
    assert choose_engine(neuro_plan(), stub).engine == "dask"
    stub = _Stub({"dask": 3.0, "myria": 2.0, "spark": 2.0})
    assert choose_engine(neuro_plan(), stub).engine == "myria"


# ----------------------------------------------------------------------
# Measured orderings at the quick profiles (the checked-in ledgers)
# ----------------------------------------------------------------------

def test_neuro_ordering_myria_spark_dask(measured):
    totals = measured["neuro"]
    # Quick makespans: myria 201s < spark 380s < dask 410s.
    assert totals["myria"] < totals["spark"] < totals["dask"]


def test_astro_ordering_myria_dask_spark(measured):
    totals = measured["astro"]
    # Quick makespans: myria 343s < dask 405s < spark 524s.
    assert totals["myria"] < totals["dask"] < totals["spark"]


@pytest.mark.parametrize("plan_fn", [neuro_plan, astro_plan], ids=[
    "quick_neuro_prof-neuro_plan", "quick_astro_prof-astro_plan",
])
def test_router_matches_measured_cheapest(plan_fn, measured):
    totals = measured[plan_fn().name]
    decision = choose_engine(plan_fn(), totals.__getitem__)
    assert decision.engine == "myria" == min(totals, key=totals.get)


# ----------------------------------------------------------------------
# Per-engine fusion gate: only engines in FUSING_ENGINES get rewrites
# ----------------------------------------------------------------------

def test_dask_guard_accepts_astro_fusion():
    result = optimize_for(astro_plan(), "dask")
    assert result.firings[0].site == ("exposures", "preprocess")
    assert "dask" in FUSING_ENGINES


@pytest.mark.parametrize("kind", ["spark", "myria"])
def test_other_guards_reject_astro_fusion(kind):
    # The site exists; the engine's lowering already pipelines it.
    assert ("exposures", "preprocess") in set(
        FuseNarrowMaps().sites(astro_plan())
    )
    assert kind not in FUSING_ENGINES
    assert optimize_for(astro_plan(), kind).firings == ()
