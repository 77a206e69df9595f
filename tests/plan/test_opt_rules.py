"""Unit tests for the rewrite-rule catalog and the optimizer driver.

Fusion gets synthetic plans engineered to trip (or dodge) its site
checks, plus a golden firing-trace test pinning exactly what the
optimizer does to the real plans: the astro plan on Dask gains two
narrow-map fusions, every other (pipeline, engine) cell is left
byte-identical to naive.
"""

import pytest

from repro.plan import astro_plan, neuro_plan
from repro.plan.ir import (
    FUSED_SEP,
    LogicalPlan,
    flat_map,
    fused_members,
    is_fused,
    map_,
    materialize,
    scan,
)
from repro.plan.opt import FUSING_ENGINES, MAX_PASSES, Optimizer, optimize_for
from repro.plan.rules import DEFAULT_RULES, FuseNarrowMaps
from repro.plan.rules.fusion import fuse_pair


def _plan(*ops, name="test", params=None):
    return LogicalPlan(name=name, ops=tuple(ops),
                       params=params or {}).validate()


def _chain_plan():
    return _plan(
        scan("src", step="S", format="npy"),
        map_("a", "src", step="S", kernel="mean_volume"),
        map_("b", "a", step="S", kernel="stack_volumes"),
        materialize("out", "b", step="S", blame="out"),
    )


# ----------------------------------------------------------------------
# Narrow-map fusion
# ----------------------------------------------------------------------

def test_fuse_pair_builds_expandable_carrier():
    plan = _chain_plan()
    fused = fuse_pair(plan, "a", "b")
    carrier = fused.op(FUSED_SEP.join(("a", "b")))
    assert is_fused(carrier)
    assert carrier.parents == ("src",)
    members = fused_members(carrier)
    assert [m.op_id for m in members] == ["a", "b"]
    # Members re-linearize: first inherits the carrier's parents, the
    # second chains on the first.
    assert members[0].parents == ("src",)
    assert members[1].parents == ("a",)
    assert members[1].param("kernel") == "stack_volumes"
    assert fused.op("out").parents == (carrier.op_id,)


def test_fuse_pair_scan_carrier_keeps_format():
    plan = _plan(
        scan("src", step="S", format="npy"),
        map_("a", "src", step="S"),
        materialize("out", "a", step="S", blame="out"),
    )
    fused = fuse_pair(plan, "src", "a")
    carrier = fused.op("src" + FUSED_SEP + "a")
    assert carrier.kind == "scan"
    assert carrier.param("format") == "npy"


def test_fusion_sites_skip_shared_parents():
    plan = _plan(
        scan("src", step="S", format="npy"),
        map_("a", "src", step="S"),
        map_("b", "src", step="S"),
        materialize("out_a", "a", step="S", blame="a"),
        materialize("out_b", "b", step="S", blame="b"),
    )
    # 'src' has two consumers; fusing either child would duplicate it.
    assert list(FuseNarrowMaps().sites(plan)) == []


def test_map_never_fused_into_fan_out_flat_map():
    plan = _plan(
        scan("src", step="S", format="npy"),
        map_("denoise", "src", step="S"),
        flat_map("repart", "denoise", step="S", n_blocks=4),
        map_("fit", "repart", step="S"),
        materialize("out", "fit", step="S", blame="out"),
    )
    sites = list(FuseNarrowMaps().sites(plan))
    # Fusing either side of the per-block split would run the fused
    # members once per block; only the scan -> map pair qualifies.
    assert sites == [("src", "denoise")]
    result = optimize_for(plan, "dask")
    assert [f.site for f in result.firings] == [("src", "denoise")]
    assert result.plan.op("repart").parents == ("src" + FUSED_SEP + "denoise",)
    assert result.plan.op("fit").parents == ("repart",)


def test_single_block_flat_map_still_fuses():
    plan = _plan(
        scan("src", step="S", format="npy"),
        flat_map("pieces", "src", step="S", n_blocks=1),
        materialize("out", "pieces", step="S", blame="out"),
    )
    assert list(FuseNarrowMaps().sites(plan)) == [("src", "pieces")]


# ----------------------------------------------------------------------
# The optimizer driver
# ----------------------------------------------------------------------

def test_default_catalog_order():
    assert [type(rule) for rule in DEFAULT_RULES] == [FuseNarrowMaps]
    assert Optimizer(DEFAULT_RULES).max_passes == MAX_PASSES
    assert FUSING_ENGINES == ("dask",)


def test_optimizer_reaches_fixpoint_and_is_idempotent():
    first = optimize_for(_chain_plan(), "dask")
    assert len(first.firings) == 2
    again = optimize_for(first.plan, "dask")
    assert again.firings == ()
    assert again.plan.fingerprints() == first.plan.fingerprints()


def test_pass_budget_bounds_the_loop():
    from dataclasses import replace as _dc_replace

    from repro.plan.opt import RewriteRule

    # Two rules that undo each other keep every pass productive; only
    # the pass budget stops the seesaw.
    class _Set(RewriteRule):
        def __init__(self, value):
            self.value = value
            self.name = f"set-{value}"

        def sites(self, plan):
            if plan.op("a").param("flip", False) != self.value:
                yield ("a",)

        def apply(self, plan, site):
            ops = [
                _dc_replace(op, params=dict(op.params, flip=self.value))
                if op.op_id == "a" else op
                for op in plan.ops
            ]
            return plan.replace_ops(ops).validate()

    result = Optimizer([_Set(True), _Set(False)], max_passes=3).optimize(
        _chain_plan()
    )
    assert result.passes == 3
    assert len(result.firings) == 6  # both rules fire every pass


def test_firing_rows_are_serializable():
    result = optimize_for(_chain_plan(), "dask")
    row = result.firings[0].as_row()
    assert row == {"rule": "fuse-narrow-maps", "pass": 1,
                   "site": ["src", "a"],
                   "detail": "fuse 'a' into 'src' (one physical task per"
                             " input)"}


# ----------------------------------------------------------------------
# Golden firing trace over the real plans
# ----------------------------------------------------------------------

def test_golden_trace_astro_dask():
    result = optimize_for(astro_plan(), "dask")
    assert [f.rule for f in result.firings] == ["fuse-narrow-maps"] * 2
    assert result.firings[0].site == ("exposures", "preprocess")
    assert result.firings[0].detail == \
        "fuse 'preprocess' into 'exposures' (one physical task per input)"
    assert result.firings[1].site == ("exposures+preprocess", "patches")
    assert result.firings[1].detail == (
        "fuse 'patches' into 'exposures+preprocess' "
        "(one physical task per input)"
    )
    carrier = result.plan.op("exposures+preprocess+patches")
    assert [m.op_id for m in fused_members(carrier)] == \
        ["exposures", "preprocess", "patches"]


@pytest.mark.parametrize("kind", ["spark", "myria"])
def test_golden_trace_astro_other_engines_unchanged(kind):
    result = optimize_for(astro_plan(), kind)
    assert result.firings == ()
    assert result.plan.fingerprints() == astro_plan().fingerprints()


@pytest.mark.parametrize("kind", ["dask", "spark", "myria"])
def test_golden_trace_neuro_unchanged_everywhere(kind):
    result = optimize_for(neuro_plan(), kind)
    assert result.firings == ()
    assert result.plan.fingerprints() == neuro_plan().fingerprints()


def test_golden_decision_parity():
    """Firings per (pipeline, engine): only astro/dask's two fusions."""
    fired = {
        (plan.name, kind): [f.site for f in optimize_for(plan, kind).firings]
        for plan in (neuro_plan(), astro_plan())
        for kind in ("dask", "myria", "spark")
    }
    assert fired == {
        ("neuro", "dask"): [],
        ("neuro", "myria"): [],
        ("neuro", "spark"): [],
        ("astro", "dask"): [("exposures", "preprocess"),
                            ("exposures+preprocess", "patches")],
        ("astro", "myria"): [],
        ("astro", "spark"): [],
    }
