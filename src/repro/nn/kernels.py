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
* cached einsum contraction paths for the conv weight-gradient reduction.

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
    "alloc_lane_out",
    "col2im",
    "im2col_reference",
    "col2im_reference",
    "fast_kernels_enabled",
    "set_fast_kernels",
    "reference_mode",
    "fd_fuse_enabled",
    "set_fd_fuse",
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
# Fused finite-difference switch
# ----------------------------------------------------------------------
_FD_FUSE = os.environ.get("REPRO_FD_FUSE", "1").strip().lower() not in (
    "0", "false", "no", "off")


def fd_fuse_enabled() -> bool:
    """Whether the Eq. 7 matcher may use the fused ±ε evaluation path."""
    return _FD_FUSE


def set_fd_fuse(enabled: bool) -> None:
    global _FD_FUSE
    _FD_FUSE = bool(enabled)


# ----------------------------------------------------------------------
# Convolution plans
# ----------------------------------------------------------------------
class ConvPlan:
    """Precomputed geometry for one (input shape, kernel, stride, pad)."""

    __slots__ = (
        "key", "n", "c", "h", "w", "kh", "kw", "stride", "pad",
        "hp", "wp", "oh", "ow", "cols_shape6", "cols_shape",
        "slices", "_fwd_path", "_dw_path", "_dcols_path",
        "_ckk_safe", "_lane_plans",
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
        self._lane_plans: dict[tuple, dict] = {}

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

    # -- fused finite-difference lane probe ---------------------------------
    def lane_plan(self, oc: int, ckk: bool, lanes: int = 2) -> dict:
        """Probe the fastest bit-safe dispatch routes for lane-grouped convs.

        The fused ±ε evaluator stacks ``lanes`` perturbed weight sets along
        the batch axis: one ``(lanes*n, oc, l)`` composite result, each lane
        written by its own contraction with ``out=`` pointing at the lane's
        batch slice.  As with :meth:`ckk_safe` we refuse to mirror numpy's
        dispatch heuristics and probe every candidate route on deterministic
        random operands, byte-comparing against exactly what the sequential
        per-lane pass computes.  The cached verdict dict holds:

        * ``available`` — the serial forward output layout puts the batch
          axis slowest; composite lane slices can then carry the serial
          strides downstream float32 reductions are sensitive to.  When
          ``False`` nothing else is meaningful and the caller must run the
          sequential path.
        * ``order`` — that serial output axis order (for
          :func:`alloc_lane_out`).
        * ``fwd`` / ``comp_cols`` — forward route (``"matmul"``,
          ``"matmul_copy"``, ``"einsum"``, or per-lane-``"copy"``) and
          whether one composite
          ``(lanes*n)`` im2col's lane slices are proven usable as operands
          (halving im2col work on the non-shared layers).
        * ``fwd_shared`` — forward route when all lanes contract the *same*
          ``(n,)``-shaped column buffer (the shared-input first layer).
        * ``comp_dcols`` / ``dcols`` — whether the backward may write both
          lanes' gradient columns into one composite buffer and scatter it
          with a single ``(lanes*n)`` col2im, and the contraction route
          used for it.

        Verdicts are keyed by ``(oc, ckk, lanes)``.
        """
        key = (oc, bool(ckk), int(lanes))
        cached = self._lane_plans.get(key)
        if cached is not None:
            return cached
        info = self._probe_lane_plan(oc, bool(ckk), int(lanes))
        self._lane_plans[key] = info
        return info

    def _probe_lane_plan(self, oc: int, ckk: bool, lanes: int) -> dict:
        n, c, h, w = self.n, self.c, self.h, self.w
        k = c * self.kh * self.kw
        l = self.oh * self.ow
        rng = np.random.default_rng(0xFD_F5)
        x = rng.standard_normal((lanes * n, c, h, w)).astype(np.float32)
        ws = [rng.standard_normal((oc, k)).astype(np.float32)
              for _ in range(lanes)]
        # Sequential reference: per-lane columns and fresh contractions,
        # exactly as two independent conv2d calls would compute them.
        ref_bufs = [im2col(x[t * n:(t + 1) * n], self, ckk=ckk)
                    for t in range(lanes)]
        ref_cols = [buf.reshape(self.cols_shape) for buf in ref_bufs]
        refs = [np.einsum("ok,nkl->nol", ws[t], ref_cols[t],
                          optimize=self.fwd_path(ws[t], ref_cols[t]))
                for t in range(lanes)]
        order = tuple(int(i) for i in
                      np.argsort([-s for s in refs[0].strides], kind="stable"))
        info = {"available": order[0] == 0, "order": order,
                "fwd": "copy", "fwd_shared": "copy", "comp_cols": False,
                "comp_dcols": False, "dcols": "einsum"}
        if not info["available"]:
            for buf in ref_bufs:
                default_arena.release(buf)
            return info

        plan2 = get_conv_plan(lanes * n, c, h, w, self.kh, self.kw,
                              self.stride, self.pad)
        comp_buf = im2col(x, plan2, ckk=ckk)
        comp_cols = comp_buf.reshape(plan2.cols_shape)

        def lanes_match(route, cols_of, refs_of) -> bool:
            out = alloc_lane_out((lanes * n, oc, l), order, arena=None)
            try:
                for t in range(lanes):
                    lane = out[t * n:(t + 1) * n]
                    cols_t = cols_of(t)
                    if route == "matmul":
                        np.matmul(ws[t], cols_t, out=lane)
                    elif route == "matmul_copy":
                        np.copyto(lane, np.matmul(ws[t], cols_t))
                    elif route == "einsum_direct":
                        np.einsum("ok,nkl->nol", ws[t], cols_t, out=lane,
                                  optimize=False)
                    else:
                        np.einsum("ok,nkl->nol", ws[t], cols_t, out=lane,
                                  optimize=self.fwd_path(ws[t], cols_t))
                    ref = refs_of(t)
                    if not (np.array_equal(ref, lane)
                            and ref.strides == lane.strides):
                        return False
            except (TypeError, ValueError):  # pragma: no cover - numpy quirk
                return False
            return True

        fwd_routes = ("matmul", "matmul_copy", "einsum_direct", "einsum")
        for cols_of, composite in (
                (lambda t: comp_cols[t * n:(t + 1) * n], True),
                (lambda t: ref_cols[t], False)):
            route = next((r for r in fwd_routes
                          if lanes_match(r, cols_of, lambda t: refs[t])),
                         None)
            if route is not None:
                info["fwd"], info["comp_cols"] = route, composite
                break
        # Shared-input first layer: every lane contracts the SAME column
        # buffer, so the sequential reference uses lane 0's columns for
        # every weight set.
        refs_shared = [np.einsum("ok,nkl->nol", ws[t], ref_cols[0],
                                 optimize=self.fwd_path(ws[t], ref_cols[0]))
                       for t in range(lanes)]
        for route in fwd_routes:
            if lanes_match(route, lambda t: ref_cols[0],
                           lambda t: refs_shared[t]):
                info["fwd_shared"] = route
                break

        # Backward: both lanes' gradient columns in one composite buffer,
        # scattered by a single (lanes*n)-row col2im.
        g = rng.standard_normal((lanes * n, oc, l)).astype(np.float32)
        ref_dx = []
        for t in range(lanes):
            gl = g[t * n:(t + 1) * n]
            dcols = np.einsum("ok,nol->nkl", ws[t], gl,
                              optimize=self.dcols_path(ws[t], gl))
            ref_dx.append(col2im(dcols, self))
        for route in ("matmul", "einsum_direct", "einsum"):
            dcols2 = np.empty(plan2.cols_shape, dtype=np.float32)
            try:
                for t in range(lanes):
                    gl = g[t * n:(t + 1) * n]
                    slot = dcols2[t * n:(t + 1) * n]
                    if route == "matmul":
                        np.matmul(ws[t].T, gl, out=slot)
                    elif route == "einsum_direct":
                        np.einsum("ok,nol->nkl", ws[t], gl, out=slot,
                                  optimize=False)
                    else:
                        np.einsum("ok,nol->nkl", ws[t], gl, out=slot,
                                  optimize=self.dcols_path(ws[t], gl))
            except (TypeError, ValueError):  # pragma: no cover - numpy quirk
                continue
            dx2 = col2im(dcols2, plan2)
            if all(np.array_equal(ref_dx[t], dx2[t * n:(t + 1) * n])
                   for t in range(lanes)):
                info["comp_dcols"], info["dcols"] = True, route
                break

        default_arena.release(comp_buf)
        for buf in ref_bufs:
            default_arena.release(buf)
        return info

    def approx_nbytes(self) -> int:
        """Approximate resident bytes of this plan.

        Any lane-plan ndarrays dominate; the slice table and the small
        per-plan dicts are covered by a flat per-entry overhead estimate
        (the ledger's 10% audit tolerance absorbs the slack).
        """
        total = 512 + 96 * len(self.slices)
        for info in self._lane_plans.values():
            if isinstance(info, dict):
                for value in info.values():
                    nbytes = getattr(value, "nbytes", None)
                    if nbytes is not None:
                        total += int(nbytes)
        return total

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


def alloc_lane_out(shape3: tuple[int, int, int], order: tuple[int, ...], *,
                   arena=default_arena) -> np.ndarray:
    """Allocate a logical ``(N, oc, l)`` result whose memory axis order is
    ``order`` (slowest to fastest), as recorded by
    :meth:`ConvPlan.lane_plan`.  Lane slices along axis 0 then carry exactly
    the serial contraction's strides.
    ``arena=None`` uses a plain allocation (probe paths)."""
    permuted = tuple(shape3[i] for i in order)
    if arena is None:
        mem = np.empty(permuted, dtype=np.float32)
    else:
        mem = arena.acquire(permuted, np.float32)
    inverse = tuple(int(i) for i in np.argsort(order))
    return mem.transpose(inverse)


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
