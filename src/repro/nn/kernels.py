"""Cached convolution kernel plans and the fast/reference kernel switch.

Every conv call in the condensation hot loop used to re-derive its im2col
geometry, allocate fresh column buffers, re-search einsum contraction paths,
and run a Python ``kh x kw`` scatter loop for the input gradient.  This
module centralizes all of that per-shape work in a :class:`ConvPlan` that is
computed once and cached in a bounded LRU keyed on
``(n, c, h, w, kh, kw, stride, pad)``:

* the im2col window geometry (strided-view shape plus column-buffer shape,
  with the buffer itself served from :mod:`repro.nn.workspace`);
* a *clipped slice table* for the col2im scatter-add, precomputed so the
  scatter writes straight into the **unpadded** gradient canvas (no padded
  scratch, no interior copy) as a short loop of large strided adds;
* cached einsum contraction paths for the conv weight-gradient reduction;
* the probed column-buffer layout (:meth:`ConvPlan.ckk_safe`), a
  deterministic byte comparison cached per output-channel count.

Under the fast kernels every conv, the finite-difference passes of Eq. 7
included, runs through this one plan-cached path.

The module also owns the **fast/reference switch**: the seed (pre-plan)
implementations of ``_im2col``/``_col2im`` are preserved verbatim as
:func:`im2col_reference`/:func:`col2im_reference`, and
:func:`reference_mode` routes :mod:`repro.nn.functional` through the seed
code paths — both for the kernel-equivalence tests and for measuring
speedups against the seed in ``benchmarks/micro``.
"""

from __future__ import annotations

import contextlib
import os
import threading
from collections import OrderedDict

import numpy as np

from .workspace import default_arena

__all__ = [
    "ConvPlan",
    "get_conv_plan",
    "plan_cache_info",
    "clear_plan_cache",
    "set_plan_cache_limit",
    "im2col",
    "col2im",
    "im2col_reference",
    "col2im_reference",
    "fast_kernels_enabled",
    "set_fast_kernels",
    "reference_mode",
]


# ----------------------------------------------------------------------
# Fast/reference switch
# ----------------------------------------------------------------------
_FAST = os.environ.get("REPRO_FAST_KERNELS", "1").strip().lower() not in (
    "0", "false", "no", "off")


def fast_kernels_enabled() -> bool:
    """Whether ops dispatch to the plan-cached fast kernels."""
    return _FAST


def set_fast_kernels(enabled: bool) -> None:
    global _FAST
    _FAST = bool(enabled)


@contextlib.contextmanager
def reference_mode():
    """Route nn ops through the seed (pre-optimization) implementations."""
    global _FAST
    previous = _FAST
    _FAST = False
    try:
        yield
    finally:
        _FAST = previous


# ----------------------------------------------------------------------
# Convolution plans
# ----------------------------------------------------------------------
class ConvPlan:
    """Precomputed geometry for one (input shape, kernel, stride, pad)."""

    __slots__ = (
        "key", "n", "c", "h", "w", "kh", "kw", "stride", "pad",
        "hp", "wp", "oh", "ow", "cols_shape6", "cols_shape",
        "slices", "_fwd_path", "_dw_path", "_dcols_path",
        "_ckk_safe",
    )

    def __init__(self, n: int, c: int, h: int, w: int, kh: int, kw: int,
                 stride: int, pad: int) -> None:
        self.key = (n, c, h, w, kh, kw, stride, pad)
        self.n, self.c, self.h, self.w = n, c, h, w
        self.kh, self.kw, self.stride, self.pad = kh, kw, stride, pad
        self.hp, self.wp = h + 2 * pad, w + 2 * pad
        self.oh = (self.hp - kh) // stride + 1
        self.ow = (self.wp - kw) // stride + 1
        if self.oh < 1 or self.ow < 1:
            raise ValueError(f"kernel ({kh},{kw}) too large for padded input "
                             f"({self.hp},{self.wp})")
        self.cols_shape6 = (n, c, kh, kw, self.oh, self.ow)
        self.cols_shape = (n, c * kh * kw, self.oh * self.ow)
        self.slices = self._build_slices()
        self._fwd_path = None
        self._dw_path = None
        self._dcols_path = None
        self._ckk_safe: dict[int, bool] = {}

    # -- scatter tables ----------------------------------------------------
    def _build_slices(self):
        """Clipped slice table: (i, j) -> destination/source slices.

        Each kernel tap (i, j) contributes ``dcols[:, :, i, j, a, b]`` to
        unpadded pixel ``(i + a*stride - pad, j + b*stride - pad)``.  The
        table pre-clips the (a, b) ranges whose targets fall inside the
        unpadded canvas, so the scatter needs no padded scratch buffer.
        """
        out = []
        s, p = self.stride, self.pad
        for i in range(self.kh):
            a_lo = max(0, -(-(p - i) // s))  # ceil((p - i) / s)
            a_hi = min(self.oh - 1, (self.h - 1 + p - i) // s)
            if a_lo > a_hi:
                continue
            y0 = i + a_lo * s - p
            dst_h = slice(y0, y0 + (a_hi - a_lo) * s + 1, s)
            src_a = slice(a_lo, a_hi + 1)
            for j in range(self.kw):
                b_lo = max(0, -(-(p - j) // s))
                b_hi = min(self.ow - 1, (self.w - 1 + p - j) // s)
                if b_lo > b_hi:
                    continue
                x0 = j + b_lo * s - p
                dst_w = slice(x0, x0 + (b_hi - b_lo) * s + 1, s)
                src_b = slice(b_lo, b_hi + 1)
                out.append((i, j, dst_h, dst_w, src_a, src_b))
        return tuple(out)

    # -- cached einsum contraction paths -----------------------------------
    # The three conv contractions keep the seed's exact einsum subscripts
    # (the output memory layout, and hence downstream float32 reduction
    # order, is part of the numerics being preserved); only the per-call
    # ``einsum_path`` search is hoisted into the plan.
    def fwd_path(self, w2: np.ndarray, cols: np.ndarray):
        """Contraction path for the forward pass ``ok,nkl->nol``."""
        if self._fwd_path is None:
            self._fwd_path = np.einsum_path("ok,nkl->nol", w2, cols,
                                            optimize=True)[0]
        return self._fwd_path

    def dw_path(self, gflat: np.ndarray, cols: np.ndarray):
        """Contraction path for the weight gradient ``nol,nkl->ok``."""
        if self._dw_path is None:
            self._dw_path = np.einsum_path("nol,nkl->ok", gflat, cols,
                                           optimize=True)[0]
        return self._dw_path

    def dcols_path(self, w2: np.ndarray, gflat: np.ndarray):
        """Contraction path for the input gradient columns ``ok,nol->nkl``."""
        if self._dcols_path is None:
            self._dcols_path = np.einsum_path("ok,nol->nkl", w2, gflat,
                                              optimize=True)[0]
        return self._dcols_path

    # -- column-buffer layout probe ----------------------------------------
    def ckk_safe(self, oc: int) -> bool:
        """Whether the KNL-major (CKK-first) column layout is bit-safe here.

        When einsum takes its BLAS route for the conv contractions it first
        *prepares* the columns by transposing them to ``knl`` and copying to
        contiguous memory; storing the column buffer KNL-major up front makes
        that preparation a free view and saves a full column-buffer copy per
        forward.  But at small sizes einsum instead iterates the strided
        operands directly, and its float32 summation order then depends on
        the operand strides — changing the layout would change the bits.

        Rather than mirror numpy's dispatch heuristics, probe it: run the
        forward and weight-gradient contractions on deterministic random
        operands in both layouts and require bit-identical results.  The
        verdict is cached per output-channel count.
        """
        cached = self._ckk_safe.get(oc)
        if cached is not None:
            return cached
        n = self.n
        k = self.c * self.kh * self.kw
        l = self.oh * self.ow
        rng = np.random.default_rng(0x5EED)
        w2 = rng.standard_normal((oc, k)).astype(np.float32)
        base = rng.standard_normal((n, k, l)).astype(np.float32)
        knl = np.empty((k, n, l), dtype=np.float32)
        np.copyto(knl.transpose(1, 0, 2), base)
        cols_knl = knl.transpose(1, 0, 2)  # logical (n, k, l), KNL-major
        f0 = np.einsum("ok,nkl->nol", w2, base,
                       optimize=self.fwd_path(w2, base))
        f1 = np.einsum("ok,nkl->nol", w2, cols_knl,
                       optimize=self.fwd_path(w2, cols_knl))
        safe = np.array_equal(f0, f1) and f0.strides == f1.strides
        if safe:
            g = rng.standard_normal((n, oc, l)).astype(np.float32)
            d0 = np.einsum("nol,nkl->ok", g, base,
                           optimize=self.dw_path(g, base))
            d1 = np.einsum("nol,nkl->ok", g, cols_knl,
                           optimize=self.dw_path(g, cols_knl))
            safe = np.array_equal(d0, d1) and d0.strides == d1.strides
        self._ckk_safe[oc] = safe
        return safe

    def approx_nbytes(self) -> int:
        """Approximate resident bytes of this plan.

        The slice table and the small per-plan dicts are covered by a flat
        per-entry overhead estimate (the ledger's 10% audit tolerance
        absorbs the slack).
        """
        return 512 + 96 * len(self.slices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ConvPlan(n={self.n}, c={self.c}, hw=({self.h},{self.w}), "
                f"k=({self.kh},{self.kw}), stride={self.stride}, pad={self.pad})")


_PLAN_LOCK = threading.Lock()
_PLAN_CACHE: OrderedDict[tuple, ConvPlan] = OrderedDict()
_PLAN_CACHE_LIMIT = max(1, int(os.environ.get("REPRO_PLAN_CACHE", "32")))
_PLAN_HITS = 0
_PLAN_MISSES = 0
_PLAN_EVICTIONS = 0


def get_conv_plan(n: int, c: int, h: int, w: int, kh: int, kw: int,
                  stride: int, pad: int) -> ConvPlan:
    """Fetch (or build and cache) the plan for one conv geometry."""
    global _PLAN_HITS, _PLAN_MISSES, _PLAN_EVICTIONS
    key = (n, c, h, w, kh, kw, stride, pad)
    with _PLAN_LOCK:
        plan = _PLAN_CACHE.get(key)
        if plan is not None:
            _PLAN_CACHE.move_to_end(key)
            _PLAN_HITS += 1
            return plan
        _PLAN_MISSES += 1
    plan = ConvPlan(n, c, h, w, kh, kw, stride, pad)
    with _PLAN_LOCK:
        _PLAN_CACHE[key] = plan
        _PLAN_CACHE.move_to_end(key)
        while len(_PLAN_CACHE) > _PLAN_CACHE_LIMIT:
            _PLAN_CACHE.popitem(last=False)
            _PLAN_EVICTIONS += 1
    return plan


def plan_cache_info() -> dict[str, int]:
    info = {}
    with _PLAN_LOCK:
        info.update(size=len(_PLAN_CACHE), limit=_PLAN_CACHE_LIMIT,
                    hits=_PLAN_HITS, misses=_PLAN_MISSES,
                    evictions=_PLAN_EVICTIONS)
    info["approx_bytes"] = plan_cache_nbytes()
    return info


def plan_cache_nbytes() -> int:
    """Approximate resident bytes of all cached plans (caller holds no lock)."""
    with _PLAN_LOCK:
        plans = list(_PLAN_CACHE.values())
    return sum(plan.approx_nbytes() for plan in plans)


def clear_plan_cache() -> None:
    global _PLAN_HITS, _PLAN_MISSES, _PLAN_EVICTIONS
    with _PLAN_LOCK:
        _PLAN_CACHE.clear()
        _PLAN_HITS = _PLAN_MISSES = _PLAN_EVICTIONS = 0


def set_plan_cache_limit(limit: int) -> None:
    global _PLAN_CACHE_LIMIT, _PLAN_EVICTIONS
    if limit < 1:
        raise ValueError("plan cache limit must be >= 1")
    with _PLAN_LOCK:
        _PLAN_CACHE_LIMIT = int(limit)
        while len(_PLAN_CACHE) > _PLAN_CACHE_LIMIT:
            _PLAN_CACHE.popitem(last=False)
            _PLAN_EVICTIONS += 1


# Pull-style memory-ledger account for the plan LRU (cf. the arena/step-cache
# providers in repro.nn.workspace; repro.obs.memory is stdlib-only so the
# import cannot cycle back here).
from ..obs.memory import default_ledger as _default_ledger  # noqa: E402

_default_ledger.register_provider("cache.conv_plans", plan_cache_nbytes)


# ----------------------------------------------------------------------
# Fast im2col / col2im
# ----------------------------------------------------------------------
def im2col(x: np.ndarray, plan: ConvPlan, arena=default_arena, *,
           ckk: bool = False) -> np.ndarray:
    """Expand NCHW ``x`` into an (n, c, kh, kw, oh, ow) column buffer.

    With ``ckk=False`` the buffer is C-contiguous, so the caller's
    ``reshape(plan.cols_shape)`` is a free view with exactly the seed's
    (n, k, l) memory layout — the contraction operands (and therefore the
    float32 summation order inside einsum) are bit-identical to the seed.
    With ``ckk=True`` (only valid when :meth:`ConvPlan.ckk_safe` proved the
    layout bit-safe) the buffer is stored KNL-major, which turns einsum's
    forward-contraction operand preparation into a free view and saves a
    full column-buffer copy per forward.  Either way the caller releases
    the returned array — the arena resolves full-size views to their base —
    when the columns are no longer needed (typically at the end of conv
    backward).
    """
    if ckk:
        c, kh, kw = plan.c, plan.kh, plan.kw
        mem = arena.acquire((c, kh, kw, plan.n, plan.oh, plan.ow), x.dtype)
        buf = mem.transpose(3, 0, 1, 2, 4, 5)  # logical (n, c, kh, kw, oh, ow)
    else:
        buf = arena.acquire(plan.cols_shape6, x.dtype)
    p, s = plan.pad, plan.stride
    if p:
        xp = arena.acquire((plan.n, plan.c, plan.hp, plan.wp), x.dtype)
        xp[:, :, :p, :] = 0
        xp[:, :, plan.h + p:, :] = 0
        xp[:, :, p:plan.h + p, :p] = 0
        xp[:, :, p:plan.h + p, plan.w + p:] = 0
        xp[:, :, p:plan.h + p, p:plan.w + p] = x
    else:
        xp = x
    s0, s1, s2, s3 = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp, shape=plan.cols_shape6,
        strides=(s0, s1, s2, s3, s2 * s, s3 * s))
    np.copyto(buf, view)
    if p:
        arena.release(xp)
    return buf


def col2im(dcols: np.ndarray, plan: ConvPlan) -> np.ndarray:
    """Scatter-add patch gradients back to an (n, c, h, w) canvas.

    Returns a freshly allocated array the caller may take ownership of.
    """
    d6 = dcols.reshape(plan.cols_shape6)
    dx = np.zeros((plan.n, plan.c, plan.h, plan.w), dtype=np.float32)
    for i, j, dst_h, dst_w, src_a, src_b in plan.slices:
        dx[:, :, dst_h, dst_w] += d6[:, :, i, j, src_a, src_b]
    return dx


# ----------------------------------------------------------------------
# Seed reference implementations (kept for equivalence tests and
# reference-mode benchmarking; do not optimize these)
# ----------------------------------------------------------------------
def im2col_reference(x: np.ndarray, kh: int, kw: int, stride: int,
                     pad: int) -> np.ndarray:
    """Seed im2col: expand NCHW ``x`` into (N, C*kh*kw, L) patch columns."""
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    n, c, h, w = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    shape = (n, c, kh, kw, oh, ow)
    strides = (s0, s1, s2, s3, s2 * stride, s3 * stride)
    cols = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    return np.ascontiguousarray(cols).reshape(n, c * kh * kw, oh * ow)


def col2im_reference(dcols: np.ndarray, x_shape: tuple[int, ...], kh: int,
                     kw: int, stride: int, pad: int) -> np.ndarray:
    """Seed col2im: Python kh x kw loop over strided slice adds."""
    n, c, h, w = x_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    dcols = dcols.reshape(n, c, kh, kw, oh, ow)
    dx = np.zeros((n, c, hp, wp), dtype=dcols.dtype)
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += dcols[:, :, i, j]
    if pad:
        dx = dx[:, :, pad:-pad, pad:-pad]
    return dx
