"""Property-based tests: the optimizer preserves plan semantics.

A reference interpreter evaluates randomly generated linear plans over
a toy record stream ``(meta, payload)``.  The op annotations are kept
*truthful*: a map declared ``preserves_meta=True`` leaves metadata
alone, one declared ``False`` rewrites it; a filter declared
``on_meta=True`` reads only metadata.  Whatever fusions
:func:`optimize_for` fires, the interpreted outputs at every declared
materialize must be identical, the optimized plan must still validate
(``apply`` re-validates, so a crash here is a rule bug), and
optimization must be idempotent (a second pass over the fixpoint fires
nothing).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.plan.ir import (
    LogicalPlan,
    filter_,
    flat_map,
    fused_members,
    map_,
    materialize,
    scan,
)
from repro.plan.opt import FUSING_ENGINES, optimize_for


# ----------------------------------------------------------------------
# Random linear plans
# ----------------------------------------------------------------------

_STAGE = st.one_of(
    st.tuples(
        st.just("map"),
        st.integers(0, 3),                 # kernel tag
        st.booleans(),                     # preserves_meta
    ),
    st.tuples(
        st.just("flat_map"),
        st.integers(0, 3),
        st.integers(1, 3),                 # fan-out (n_blocks)
    ),
    st.tuples(
        st.just("filter"),
        st.integers(1, 3),                 # keep meta % mod == 0
        st.booleans(),                     # on_meta annotation
    ),
)

_CHAIN = st.lists(_STAGE, min_size=0, max_size=5)


def _build(stages):
    ops = [scan("src", step="S", format="npy")]
    prev = "src"
    for index, stage in enumerate(stages):
        op_id = f"op{index}"
        kind = stage[0]
        if kind == "map":
            ops.append(map_(op_id, prev, step="S", tag=stage[1],
                            preserves_meta=stage[2]))
        elif kind == "flat_map":
            ops.append(flat_map(op_id, prev, step="S", tag=stage[1],
                                n_blocks=stage[2]))
        else:
            ops.append(filter_(op_id, prev, step="S", mod=stage[1],
                               on_meta=stage[2]))
        prev = op_id
    ops.append(materialize("out", prev, step="S", blame="out"))
    return LogicalPlan(name="prop", ops=tuple(ops)).validate()


# ----------------------------------------------------------------------
# Reference interpreter (honors the annotations the rules rely on)
# ----------------------------------------------------------------------

def _eval_member(member, stream):
    kind = member.kind
    if kind == "scan":
        return [(meta, ("scan",)) for meta in range(6)]
    if kind == "map":
        tag = member.param("tag")
        if member.param("preserves_meta", False):
            return [(meta, path + (("map", tag),)) for meta, path in stream]
        # A meta-rewriting map: pushing a filter through it would be
        # observable — the rule must never do so.
        return [(meta + 100 * (tag + 1), path + (("map!", tag),))
                for meta, path in stream]
    if kind == "flat_map":
        tag = member.param("tag")
        fan = int(member.param("n_blocks") or 1)
        return [
            (meta, path + (("fm", tag, block),))
            for meta, path in stream
            for block in range(fan)
        ]
    if kind == "filter":
        mod = member.param("mod", 2)
        return [(meta, path) for meta, path in stream if meta % mod == 0]
    if kind == "materialize":
        return list(stream)
    raise AssertionError(f"interpreter has no rule for {kind}")


def _interpret(plan):
    """``{output_id: records}`` over the toy stream, fused-op aware."""
    produced = {}
    for carrier in plan.ops:
        if carrier.parents:
            stream = produced[carrier.parents[0]]
        else:
            stream = None
        for member in fused_members(carrier):
            stream = _eval_member(member, stream)
        produced[carrier.op_id] = stream
    return {out: produced[out] for out in plan.outputs()}


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------

@given(_CHAIN)
@settings(max_examples=60, deadline=None)
def test_structural_rewrites_preserve_interpretation(stages):
    # Dask is the fusing engine: every qualifying site is rewritten.
    plan = _build(stages)
    result = optimize_for(plan, "dask")
    assert _interpret(result.plan) == _interpret(plan)
    for carrier in result.plan.ops:
        members = fused_members(carrier)
        if len(members) > 1:
            # A fan-out flat_map never shares a carrier.
            assert all(int(m.param("n_blocks") or 1) == 1 for m in members
                       if m.kind == "flat_map")


@given(_CHAIN, st.sampled_from(["dask", "spark", "myria"]))
@settings(max_examples=40, deadline=None)
def test_per_engine_rewrites_preserve_interpretation(stages, engine):
    plan = _build(stages)
    result = optimize_for(plan, engine)
    assert result.engine == engine
    assert _interpret(result.plan) == _interpret(plan)
    if engine not in FUSING_ENGINES:
        assert result.firings == ()


@given(_CHAIN)
@settings(max_examples=40, deadline=None)
def test_optimization_is_idempotent(stages):
    once = optimize_for(_build(stages), "dask")
    twice = optimize_for(once.plan, "dask")
    assert twice.firings == ()
    assert twice.plan.fingerprints() == once.plan.fingerprints()


@given(_CHAIN)
@settings(max_examples=40, deadline=None)
def test_optimized_plans_validate_and_keep_outputs(stages):
    plan = _build(stages)
    optimized = optimize_for(plan, "dask").plan
    optimized.validate()  # idempotent re-lint must not raise
    assert optimized.outputs() == plan.outputs()
