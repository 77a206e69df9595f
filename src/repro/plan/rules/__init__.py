"""The optimizer's rewrite-rule catalog.

Only narrow-map fusion remains: it is the one rewrite that changes
what an engine executes on the real plans (Dask's task graph, see
:data:`repro.plan.opt.FUSING_ENGINES`).
"""

from repro.plan.rules.fusion import FuseNarrowMaps

DEFAULT_RULES = (
    FuseNarrowMaps(),
)

__all__ = [
    "DEFAULT_RULES",
    "FuseNarrowMaps",
]
