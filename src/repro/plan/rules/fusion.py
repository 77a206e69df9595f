"""Narrow-map fusion: collapse a linear narrow pair into one fused op.

Fuses ``b`` (a ``map``/``flat_map``) into its single parent ``a`` when
``b`` is ``a``'s only consumer and ``a`` is itself narrow (scan, filter,
map, flat_map).  The fused carrier remembers its members (see
:func:`repro.plan.ir.fused_members`), so a lowering can either execute
the members as one physical task (Dask, where every graph node pays
``dask_task_overhead``) or expand them back to the original sequence.
Which engines get fused plans at all is
:data:`repro.plan.opt.FUSING_ENGINES`.

A fan-out ``flat_map`` (``n_blocks > 1``) never joins a carrier: Dask
lowers it one task per output block, so every upstream member fused
with it would run once per block instead of once per input.
"""

from repro.plan.ir import FUSED_SEP, Op, fused_members, member_doc
from repro.plan.opt import RewriteRule
from repro.plan.rules.base import consumers_of, rewire

#: Op kinds a narrow op may be fused into.
FUSABLE_PARENTS = ("scan", "filter", "map", "flat_map")

#: Op kinds that may be fused into their parent.
FUSABLE_CHILDREN = ("map", "flat_map")


def _fans_out(op):
    """True when ``op`` (or a fused member of it) splits each input."""
    return any(m.kind == "flat_map" and int(m.param("n_blocks") or 1) > 1
               for m in fused_members(op))


def _carrier_kind(members):
    kinds = [m.kind for m in members]
    if "scan" in kinds:
        return "scan"
    if "flat_map" in kinds:
        return "flat_map"
    if "map" in kinds:
        return "map"
    return "filter"


def fuse_pair(plan, a_id, b_id):
    """The plan with ``b_id`` fused into ``a_id`` (no site checks)."""
    a = plan.op(a_id)
    b = plan.op(b_id)
    members = fused_members(a) + fused_members(b)
    params = {"fused": tuple(member_doc(m) for m in members)}
    if members[0].kind == "scan":
        # The scan lint requires a format on the carrier itself.
        params["format"] = members[0].param("format")
    carrier = Op(
        op_id=FUSED_SEP.join(m.op_id for m in members),
        kind=_carrier_kind(members),
        parents=a.parents,
        step=b.step,
        uses=tuple(dict.fromkeys(a.uses + b.uses)),
        params=params,
    )
    ops = []
    for op in plan.ops:
        if op.op_id == a.op_id:
            ops.append(carrier)
        elif op.op_id == b.op_id:
            continue
        else:
            ops.append(op)
    ops = rewire(ops, b.op_id, carrier.op_id)
    ops = rewire(ops, a.op_id, carrier.op_id)
    return plan.replace_ops(ops).validate()


class FuseNarrowMaps(RewriteRule):
    """map/flat_map fused into its sole-consumer narrow parent."""

    name = "fuse-narrow-maps"

    def sites(self, plan):
        for b in plan.ops:
            if b.kind not in FUSABLE_CHILDREN or len(b.parents) != 1:
                continue
            try:
                a = plan.op(b.parents[0])
            except KeyError:
                continue
            if a.kind not in FUSABLE_PARENTS or _fans_out(a) or _fans_out(b):
                continue
            if len(consumers_of(plan, a.op_id)) != 1:
                continue
            yield (a.op_id, b.op_id)

    def apply(self, plan, site):
        a_id, b_id = site
        return fuse_pair(plan, a_id, b_id)

    def describe(self, plan, site):
        a_id, b_id = site
        return f"fuse {b_id!r} into {a_id!r} (one physical task per input)"
