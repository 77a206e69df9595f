"""Shared plan-surgery helpers for rewrite rules.

Rules rebuild plans as new op tuples; these helpers keep the edge
rewiring (parents and broadcast ``uses``) in one place so every rule
preserves referential integrity the same way.
"""

from dataclasses import replace as _dc_replace


def rewire(ops, old_id, new_id):
    """Point every parent/uses reference to ``old_id`` at ``new_id``."""
    out = []
    for op in ops:
        parents = tuple(new_id if p == old_id else p for p in op.parents)
        uses = tuple(new_id if u == old_id else u for u in op.uses)
        if parents != op.parents or uses != op.uses:
            op = _dc_replace(op, parents=parents, uses=uses)
        out.append(op)
    return tuple(out)


def consumers_of(plan, op_id):
    """Every op consuming ``op_id`` — as a parent or a side input."""
    return tuple(
        op for op in plan.ops
        if op_id in op.parents or op_id in op.uses
    )
