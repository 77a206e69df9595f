"""Table-1-constrained engine routing over logical plans.

The paper ranks systems by running them (Figures 10-12) and uses
Table 1 only to say what each one cannot run.  The router does the
same: engines whose lowering cannot produce the plan's outputs (SciDB
and TensorFlow refusals) are hard constraints, never measured; among
the rest, the smallest makespan measured by a caller-supplied
end-to-end run wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: Engines the router may consider, in deterministic order.
ROUTABLE_ENGINES = ("dask", "myria", "spark", "scidb", "tensorflow")

#: (plan name, engine) -> (support level, reason).  Mirrors the paper's
#: Table 1: "full" lowers every op, "partial" stops mid-plan (NA/X
#: cells), and partial engines are hard refusals for end-to-end routing.
ENGINE_SUPPORT = {
    ("neuro", "spark"): ("full", "Figure 6 chain"),
    ("neuro", "dask"): ("full", "Figure 8 delayed graphs"),
    ("neuro", "myria"): ("full", "MyriaL + Python UDF/UDA"),
    ("neuro", "scidb"): (
        "partial", "stops after denoise: no model-fitting support (Table 1 X)"
    ),
    ("neuro", "tensorflow"): (
        "partial", "per-step graphs only; no end-to-end pipeline (Table 1 X)"
    ),
    ("astro", "spark"): ("full", "RDD lowering"),
    ("astro", "dask"): (
        "full", "runs here; excluded from the paper's charts (Section 4.4)"
    ),
    ("astro", "myria"): ("full", "MyriaL band queries"),
    ("astro", "scidb"): (
        "partial", "ingest + coadd subset only (Table 1 NA)"
    ),
    ("astro", "tensorflow"): (
        "na", "no TensorFlow lowering exists (Table 1 NA)"
    ),
}


def supports(plan_name, engine):
    """Support level + reason for one (plan, engine) pair.

    Unknown plans (fragments keep their parent plan's name; synthetic
    test plans do not) default to "full" — routing constraints encode
    Table 1 knowledge about the two real pipelines only.
    """
    return ENGINE_SUPPORT.get((plan_name, engine), ("full", "no constraint"))


@dataclass(frozen=True)
class RoutingDecision:
    """Outcome of routing one plan: chosen engine + the measured table."""

    engine: str
    makespans: Dict[str, float]
    refusals: Dict[str, str]

    def as_rows(self):
        """Serializable routing table (refusals carry no makespan)."""
        rows = [{"engine": engine, "makespan_s": seconds,
                 "chosen": engine == self.engine}
                for engine, seconds in self.makespans.items()]
        rows.extend(
            {"engine": engine, "refused": reason}
            for engine, reason in sorted(self.refusals.items())
        )
        return rows


def choose_engine(plan, measure, candidates=None):
    """Pick the fully-capable engine with the smallest measured makespan.

    ``measure(engine)`` runs the plan end to end on ``engine`` and
    returns its simulated makespan; the harness supplies it.  SciDB/TF
    partial lowerings are Table-1 hard constraints: they are reported
    as refusals and never measured.  Ties go to the engine name.
    Raises :class:`ValueError` when no candidate can run the plan.
    """
    makespans = {}
    refusals = {}
    for engine in tuple(candidates or ROUTABLE_ENGINES):
        level, reason = supports(plan.name, engine)
        if level != "full":
            refusals[engine] = reason
            continue
        makespans[engine] = float(measure(engine))
    if not makespans:
        raise ValueError(
            f"no engine can run plan {plan.name!r} end to end: {refusals}"
        )
    best = min(makespans, key=lambda engine: (makespans[engine], engine))
    return RoutingDecision(engine=best, makespans=makespans,
                           refusals=refusals)
