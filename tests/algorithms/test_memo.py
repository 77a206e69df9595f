"""Tests for the content-addressed kernel memo."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.algorithms.memo import MEMO, KernelMemo, pure_kernel
from repro.algorithms.nlmeans import nlmeans_3d

#: The kernel without its memo.
_raw_nlmeans = nlmeans_3d.__wrapped__


@pure_kernel
def _double(values, scale=2.0):
    return np.asarray(values, dtype=np.float64) * scale


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def _volumes(draw):
    """A small volume (sometimes a non-contiguous slice of a 4-d
    payload, as SciDB passes ``payload[..., v]``) and a mask or None."""
    shape = draw(st.tuples(*[st.integers(3, 6)] * 3))
    elements = st.floats(-100, 100, allow_nan=False, width=64)
    if draw(st.booleans()):
        payload = draw(hnp.arrays(np.float64, shape + (3,), elements=elements))
        volume = payload[..., draw(st.integers(0, 2))]
    else:
        volume = draw(hnp.arrays(np.float64, shape, elements=elements))
    mask = draw(st.one_of(st.none(), hnp.arrays(np.bool_, shape)))
    return volume, mask


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_volumes(), sigma=st.floats(0.5, 20.0))
def test_memoized_nlmeans_is_byte_identical(case, sigma):
    volume, mask = case
    expected = _raw_nlmeans(volume, sigma, mask=mask)
    first = nlmeans_3d(volume, sigma, mask=mask)
    hits = MEMO.hits
    again = nlmeans_3d(volume, sigma=sigma, mask=mask)
    assert MEMO.hits == hits + 1  # positional and keyword share a key
    assert _same(first, expected)
    assert _same(again, expected)


def test_mutating_a_result_never_changes_a_later_hit(rng):
    volume = rng.normal(10, 1, (6, 6, 6))
    expected = _raw_nlmeans(volume, 1.0)
    first = nlmeans_3d(volume, 1.0)
    first[:] = -1.0
    second = nlmeans_3d(volume, 1.0)
    assert _same(second, expected)
    assert second.flags.writeable
    second[:] = -2.0
    assert _same(nlmeans_3d(volume, 1.0), expected)


def test_mutating_an_input_after_the_call_never_changes_a_hit(rng):
    volume = rng.normal(10, 1, (6, 6, 6))
    original = volume.copy()
    expected = _raw_nlmeans(original, 1.0)
    nlmeans_3d(volume, 1.0)
    volume += 5.0  # new content: a miss, computed afresh
    assert _same(nlmeans_3d(volume, 1.0), _raw_nlmeans(volume, 1.0))
    assert _same(nlmeans_3d(original, 1.0), expected)


def test_same_bytes_with_another_shape_or_dtype_is_a_miss():
    flat = np.arange(8, dtype=np.float64)
    assert _double(flat).shape == (8,)
    misses = MEMO.misses
    assert _double(flat.reshape(2, 4)).shape == (2, 4)
    assert MEMO.misses == misses + 1
    as_ints = flat.view(np.int64)  # the same 64 bytes
    assert _same(_double(as_ints), as_ints * 2.0)
    assert MEMO.misses == misses + 2


def test_scalar_type_is_part_of_the_key():
    values = np.ones(3)
    _double(values, scale=2)
    misses = MEMO.misses
    _double(values, scale=2.0)
    _double(values, scale=np.float64(2.0))
    assert MEMO.misses == misses + 2


def test_invalid_arguments_raise_after_a_hit(rng):
    volume = rng.normal(10, 1, (5, 5, 5))
    nlmeans_3d(volume, 1.0)
    nlmeans_3d(volume, 1.0)
    with pytest.raises(ValueError):
        nlmeans_3d(volume, 0.0)
    with pytest.raises(ValueError):
        nlmeans_3d(volume, 1.0, mask=np.ones((4, 4, 4), dtype=bool))
    with pytest.raises(ValueError):
        nlmeans_3d(volume[0], 1.0)
    with pytest.raises(TypeError):
        nlmeans_3d(volume, 1.0, no_such_argument=1)


def test_unkeyable_arguments_call_straight_through():
    hits, misses, held = MEMO.hits, MEMO.misses, len(MEMO)
    assert _same(_double([1.0, 2.0]), np.array([2.0, 4.0]))
    assert _same(_double(np.ma.masked_array([1.0, 2.0])), np.array([2.0, 4.0]))
    assert (MEMO.hits, MEMO.misses, len(MEMO)) == (hits, misses, held)


def test_stored_results_are_read_only_copies():
    memo = KernelMemo()
    result = np.arange(4.0)
    memo.put("k", result)
    result[:] = 0.0
    stored = memo._results["k"]
    assert not stored.flags.writeable
    assert _same(memo.get("k"), np.arange(4.0))


def test_lru_eviction_holds_the_byte_budget():
    memo = KernelMemo(budget_bytes=2 * 80)
    for key in "abc":
        memo.put(key, np.zeros(10))  # 80 bytes each
        if key == "b":
            memo.get("a")  # "a" is now the most recently used
    assert memo.held_bytes == 160
    assert memo.get("b") is None
    assert memo.get("a") is not None and memo.get("c") is not None
    memo.put("huge", np.zeros(100))  # larger than the whole budget
    assert memo.get("huge") is None
    assert memo.held_bytes == 160


def test_clear_empties_the_memo_and_its_counters():
    memo = KernelMemo()
    memo.put("k", np.zeros(3))
    memo.get("k")
    memo.get("missing")
    memo.clear()
    assert (len(memo), memo.held_bytes, memo.hits, memo.misses) == (0, 0, 0, 0)
