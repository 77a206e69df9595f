"""Content-addressed memoization of pure algorithm kernels.

The engines run the same Python kernels on the same volumes: Spark,
Myria, Dask and SciDB denoise identical inputs, and every figure's grid
re-runs them per cluster size.  Simulated seconds come from each UDF's
cost function at nominal sizes, never from the kernel's wall time, so a
kernel whose output depends only on its arguments may return a stored
result without moving any reported number.

:func:`pure_kernel` marks such a kernel.  Its key is a sha256 over the
kernel's qualified name and every bound argument (defaults applied, so
positional and keyword spellings agree):

* an ``ndarray`` contributes its dtype, shape and C-contiguous bytes,
  so the same bytes under another shape or dtype are a different key;
* a scalar (``bool``/``int``/``float``/``complex``/``str``/``bytes``
  or a NumPy scalar) contributes its type and ``repr``; ``None`` is
  keyed too.

A call with an argument of any other type (lists, subclasses of
``ndarray``, object arrays, ...) runs the kernel directly, unmemoized.
Only plain ``ndarray`` results are stored, as a read-only copy, and
every hit returns a fresh copy: neither the caller mutating its result
nor mutating its input after the call can change a later hit.  Stored
results are held within :data:`BUDGET_BYTES`, evicting the least
recently used first.
"""

import functools
import hashlib
import inspect
from collections import OrderedDict

import numpy as np

#: Bytes of stored results held per process.  Sized for the quick and
#: bench profiles, whose distinct kernel results total a few MB.
BUDGET_BYTES = 64 * 2**20

_SCALARS = (bool, int, float, complex, str, bytes, np.generic)


class KernelMemo:
    """LRU map from argument content to a kernel's read-only result."""

    def __init__(self, budget_bytes=BUDGET_BYTES):
        self.budget_bytes = budget_bytes
        self.held_bytes = 0
        self.hits = 0
        self.misses = 0
        self._results = OrderedDict()

    def __len__(self):
        return len(self._results)

    def clear(self):
        """Drop every stored result and zero the hit/miss counters."""
        self._results.clear()
        self.held_bytes = 0
        self.hits = 0
        self.misses = 0

    def get(self, key):
        """A writable copy of the result stored under ``key``, or
        ``None`` (counted as a miss)."""
        stored = self._results.get(key)
        if stored is None:
            self.misses += 1
            return None
        self._results.move_to_end(key)
        self.hits += 1
        return stored.copy(order="K")

    def put(self, key, result):
        """Store a read-only copy of ``result`` (plain arrays only),
        then evict least recently used results down to the budget."""
        if not _is_plain_array(result) or result.nbytes > self.budget_bytes:
            return
        stored = result.copy(order="K")
        stored.flags.writeable = False
        self._results[key] = stored
        self.held_bytes += stored.nbytes
        while self.held_bytes > self.budget_bytes:
            _key, evicted = self._results.popitem(last=False)
            self.held_bytes -= evicted.nbytes


#: The process-wide memo every :func:`pure_kernel` shares.  Forked
#: workers inherit a copy; ``repro.harness.parallel`` empties it where
#: a measurement needs every process to start cold.
MEMO = KernelMemo()


def _is_plain_array(value):
    return type(value) is np.ndarray and not value.dtype.hasobject


def _feed(digest, text):
    data = text.encode("utf-8")
    digest.update(len(data).to_bytes(8, "little"))
    digest.update(data)


def _content_key(name, signature, args, kwargs):
    """sha256 hex of the call's content, or ``None`` when an argument
    cannot be keyed (or the call does not bind; the kernel raises)."""
    try:
        bound = signature.bind(*args, **kwargs)
    except TypeError:
        return None
    bound.apply_defaults()
    digest = hashlib.sha256()
    _feed(digest, name)
    for param, value in bound.arguments.items():
        if _is_plain_array(value):
            _feed(digest, f"{param}=array{value.dtype.descr}{value.shape}")
            digest.update(np.ascontiguousarray(value))
        elif value is None or isinstance(value, _SCALARS):
            _feed(digest, f"{param}={type(value).__qualname__}:{value!r}")
        else:
            return None
    return digest.hexdigest()


def pure_kernel(fn):
    """Memoize ``fn`` in :data:`MEMO` by argument content.

    Apply it only where ``fn``'s result is a deterministic function of
    its arguments' values, and at the definition, so every import site
    gets the memoized kernel.
    """
    name = f"{fn.__module__}.{fn.__qualname__}"
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def memoized(*args, **kwargs):
        key = _content_key(name, signature, args, kwargs)
        if key is None:
            return fn(*args, **kwargs)
        hit = MEMO.get(key)
        if hit is not None:
            return hit
        result = fn(*args, **kwargs)
        MEMO.put(key, result)
        return result

    return memoized
