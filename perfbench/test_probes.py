"""Tests of the benchmark's own arithmetic and probe plumbing.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import cProfile
import json
import os
import pstats
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import probes  # noqa: E402
from run import END_TO_END  # noqa: E402


# -- self time: span minus the union of its children's intervals ---------

@pytest.mark.parametrize("children, expected", [
    ([], 10.0),
    ([(1.0, 3.0), (4.0, 5.0)], 7.0),
    ([(1.0, 4.0), (2.0, 6.0)], 5.0),            # overlapping children
    ([(1.0, 4.0), (4.0, 6.0)], 5.0),            # touching children
    ([(-5.0, 2.0), (8.0, 20.0)], 6.0),          # clipped to the span
    ([(2.0, 3.0), (2.5, 2.7), (1.0, 9.0)], 2.0),  # nested in another
    ([(20.0, 30.0)], 10.0),                     # outside the span
])
def test_self_time_subtracts_covered_child_intervals(children, expected):
    assert probes.self_time(0.0, 10.0, children) == pytest.approx(expected)


def test_covered_length_of_unsorted_intervals():
    assert probes.covered_length(0, 10, [(6, 8), (1, 2), (7, 9)]) == 4


class _Clock:
    """Returns the queued instants in order."""

    def __init__(self, instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


def test_aggregate_folds_spans_into_layers_and_named_targets():
    # engine 0-12 > kernel 1-6 > helper 2-5; then stage 7-8 under engine.
    rec = probes.Recorder(clock=_Clock([0, 1, 2, 5, 6, 7, 8, 12]))
    engine = rec.target_id("repro.engines.dask.client:DaskClient.compute",
                           "engines.dask")
    kernel = rec.target_id(probes.KERNELS["median_otsu"], "algorithms")
    helper = rec.target_id("repro.algorithms.stencil:median_filter_3d",
                           "algorithms")
    stage = rec.target_id("repro.pipelines.neuro.staging:stage_subjects",
                          "pipelines")
    outer = rec.open(engine)
    k = rec.open(kernel)
    h = rec.open(helper)
    rec.close(h)
    rec.close(k)
    s = rec.open(stage)
    rec.close(s)
    rec.close(outer)
    agg = rec.aggregate()
    assert agg["spans"] == 4
    assert agg["layer_entries"] == {"engines.dask": 1, "algorithms": 1,
                                    "pipelines": 1}
    assert agg["layer_self"] == {"engines.dask": 6, "algorithms": 5,
                                 "pipelines": 1}
    # The kernel's layer self time includes its same-layer helper.
    assert agg["named_self"][probes.KERNELS["median_otsu"]] == 5
    assert agg["inclusive"] == {"pipelines.stage_s": 1}


def test_inclusive_group_counts_outermost_calls_only():
    rec = probes.Recorder(clock=_Clock([0, 1, 2, 3]))
    tid = rec.target_id("repro.data.neuro:generate_subject", "data")
    outer = rec.open(tid)
    inner = rec.open(tid)
    rec.close(inner)
    rec.close(outer)
    agg = rec.aggregate()
    assert agg["inclusive"]["data.generate_s"] == 3
    assert agg["target_calls"]["repro.data.neuro:generate_subject"] == 2
    assert agg["layer_entries"] == {"data": 1}


def test_merge_sums_counts_and_unions_digests():
    a = {"spans": 1, "layer_self": {"x": 1.0}, "layer_entries": {"x": 1},
         "target_calls": {"f": 2}, "named_self": {}, "inclusive": {},
         "counters": {"c": 3}, "digests": {"k": ["a", "b"]}}
    b = dict(a, digests={"k": ["b", "c"]})
    total = probes.merge([a, b])
    assert total["spans"] == 2 and total["target_calls"] == {"f": 4}
    assert total["counters"] == {"c": 6}
    assert total["digests"] == {"k": {"a", "b", "c"}}


# -- input digests -------------------------------------------------------

def test_input_digest_is_by_content():
    a = np.arange(12.0).reshape(3, 4)
    assert probes.input_digest((a,), {"k": 1}) == probes.input_digest(
        (a.copy(),), {"k": 1})
    assert probes.input_digest((a,), {}) != probes.input_digest((a + 1,), {})
    assert probes.input_digest((a,), {}) != probes.input_digest(
        (a.astype(np.float32),), {})


# -- probe discovery and the cProfile cross-check ------------------------

def test_absent_target_is_reported_not_raised():
    rec = probes.Recorder()
    gone = "repro.harness.memo:NoSuchMemo.lookup"
    probes.install(rec, only=(gone, "repro.nosuchmodule:f"))
    assert rec.absent == sorted([gone, "repro.nosuchmodule:f"])


def test_missed_call_site_is_detected():
    def kernel(x):
        return x + 1

    rec = probes.Recorder()
    wrapped = probes._span_wrapper(kernel, rec, rec.target_id("t:k", "x"))
    rec.spans_on = True
    profiler = cProfile.Profile()
    profiler.enable()
    wrapped(1)      # a patched call site
    kernel(2)       # a call site the probes missed
    profiler.disable()
    rec.spans_on = False
    seen = probes.profile_counts([pstats.Stats(profiler)], {"t:k": kernel})
    probe_calls = rec.aggregate()["target_calls"]
    assert seen == {"t:k": 2}
    assert probes.missed_calls(probe_calls, seen) == {"t:k": (1, 2)}


def test_every_named_target_resolves_at_this_commit():
    probes.import_all()
    _targets, absent = probes.discover()
    assert absent == []


# -- BENCHMARK.json declares exactly what the benchmark prints -----------

def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(
        probes.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(
        END_TO_END)
