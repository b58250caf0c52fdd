"""Per-step im2col cache (``StepCache``): reuse within a scope, no stale
columns after ``note_write``, no caching of arrays outside a scope."""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.nn.workspace import default_step_cache


def _conv_out(x_arr):
    rng = np.random.default_rng(11)
    w = Tensor(rng.standard_normal((4, 1, 3, 3)).astype(np.float32))
    b = Tensor(rng.standard_normal((4,)).astype(np.float32))
    return F.conv2d(Tensor(x_arr), w, b, stride=1, padding=1).data.copy()


def test_step_cache_hits_within_scope():
    x = np.random.default_rng(5).standard_normal((6, 1, 8, 8)).astype(np.float32)
    fresh = _conv_out(x)
    default_step_cache.reset_stats()
    with default_step_cache.scope(x):
        first = _conv_out(x)
        second = _conv_out(x)
    np.testing.assert_array_equal(fresh, first)
    np.testing.assert_array_equal(fresh, second)
    stats = default_step_cache.stats()
    assert stats["stores"] >= 1
    assert stats["hits"] >= 1
    assert stats["entries"] == 0  # scope exit drops all entries


def test_step_cache_invalidation_drops_stale_columns():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((6, 1, 8, 8)).astype(np.float32)
    mutated = rng.standard_normal(x.shape).astype(np.float32)
    expected = _conv_out(mutated.copy())

    default_step_cache.reset_stats()
    with default_step_cache.scope(x):
        _conv_out(x)  # populates the cache for ``x``
        x[:] = mutated  # optimizer-style in-place pixel update
        default_step_cache.note_write(x)
        after = _conv_out(x)
    np.testing.assert_array_equal(expected, after)
    assert default_step_cache.stats()["invalidations"] == 1


def test_step_cache_ignores_foreign_arrays():
    x = np.random.default_rng(7).standard_normal((4, 1, 8, 8)).astype(np.float32)
    other = np.random.default_rng(8).standard_normal((4, 1, 8, 8)).astype(np.float32)
    fresh_other = _conv_out(other.copy())
    default_step_cache.reset_stats()
    with default_step_cache.scope(x):
        _conv_out(x)
        np.testing.assert_array_equal(fresh_other, _conv_out(other))
    # nothing cached across scopes
    assert default_step_cache.stats()["entries"] == 0
