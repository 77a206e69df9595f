"""Rewrite-rule engine over :class:`~repro.plan.ir.LogicalPlan`.

The optimizer applies a catalog of semantics-preserving rewrite rules
(`repro.plan.rules`) to fixpoint under a bounded pass budget.  Each rule
is *match + apply*: ``sites()`` enumerates candidate rewrite sites and
``apply()`` produces a rewritten (and re-validated) plan.  Every
rewrite is recorded in a :class:`RuleFiring` trace, so `harness
optimize` can explain exactly what the compiler did — the raco
``rules.py``/``opt_rules`` shape, scaled to this repo's IR.

Whether a rewrite pays is decided by lowering structure, not by a cost
estimate: :func:`optimize_for` runs the catalog only for engines whose
lowering executes a fused carrier as one physical task
(:data:`FUSING_ENGINES`), and leaves every other engine's plan
byte-identical to the naive one.  The measured check that optimized
makespans never exceed naive ones is the harness's ``opt`` gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: Default bound on full rule-catalog passes before the optimizer stops
#: (a safety valve; real plans reach fixpoint in one or two passes).
MAX_PASSES = 8

#: Engines whose lowering runs a fused carrier as one physical task.
#: Dask pays ``dask_task_overhead`` per graph node, so collapsing a
#: narrow chain removes real dispatch work.  Spark already groups
#: narrow ops into one stage and Myria pipelines operators inside a
#: fragment, so fusing for them would change nothing they execute.
FUSING_ENGINES = ("dask",)


@dataclass(frozen=True)
class RuleFiring:
    """One applied rewrite, for the firing trace."""

    rule: str                    # rule name
    pass_no: int                 # which fixpoint pass fired it
    site: Tuple[str, ...]        # op ids the rewrite touched
    detail: str                  # human-readable description

    def as_row(self):
        """Row form for snapshots and CLI tables."""
        return {
            "rule": self.rule,
            "pass": self.pass_no,
            "site": list(self.site),
            "detail": self.detail,
        }


@dataclass(frozen=True)
class OptimizationResult:
    """An optimized plan plus the trace of how it got that way."""

    plan: "LogicalPlan"
    firings: Tuple[RuleFiring, ...] = ()
    engine: Optional[str] = None
    passes: int = 0


class RewriteRule:
    """Base class: match + apply (+ describe) for one rewrite."""

    #: Rule name used in firing traces; subclasses override.
    name = "rule"

    def sites(self, plan):
        """Candidate rewrite sites, each a tuple of op ids."""
        raise NotImplementedError

    def apply(self, plan, site):
        """Rewrite ``plan`` at ``site``; returns a *validated* new plan."""
        raise NotImplementedError

    def describe(self, plan, site):
        """One-line description of the rewrite at ``site``."""
        return f"{self.name} at {site}"


class Optimizer:
    """Applies a rule catalog to fixpoint under a pass budget."""

    def __init__(self, rules, max_passes=MAX_PASSES):
        self.rules = tuple(rules)
        self.max_passes = max_passes

    def optimize(self, plan, engine=None):
        """Rewrite ``plan`` to fixpoint; returns :class:`OptimizationResult`.

        Each pass applies every rule at its first site, re-enumerating
        after each rewrite (sites are positional and a rewrite
        invalidates its siblings).  The pass loop ends when a full pass
        fires nothing or the pass budget runs out.
        """
        current = plan
        firings = []
        passes = 0
        for pass_no in range(1, self.max_passes + 1):
            passes = pass_no
            fired_this_pass = False
            for rule in self.rules:
                while True:
                    site = next(iter(rule.sites(current)), None)
                    if site is None:
                        break
                    firings.append(RuleFiring(
                        rule=rule.name,
                        pass_no=pass_no,
                        site=tuple(site),
                        detail=rule.describe(current, site),
                    ))
                    current = rule.apply(current, site)
                    fired_this_pass = True
            if not fired_this_pass:
                break
        return OptimizationResult(
            plan=current,
            firings=tuple(firings),
            engine=engine,
            passes=passes,
        )


def optimize_for(plan, engine):
    """Optimize ``plan`` for one engine.

    Engines outside :data:`FUSING_ENGINES` run an empty catalog: the
    plan comes back unchanged with no firings, so their optimized runs
    lower the naive plan.
    """
    from repro.plan.rules import DEFAULT_RULES

    rules = DEFAULT_RULES if engine in FUSING_ENGINES else ()
    return Optimizer(rules).optimize(plan, engine=engine)
