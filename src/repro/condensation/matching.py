"""Gradient-matching primitives shared by the condensation methods.

Implements the building blocks of §III-C:

* :func:`parameter_gradients` — ``g = grad_theta L(X, Y)`` for a batch
  (one forward-backward pass);
* :func:`input_gradient` — ``grad_X L(X, Y)`` at fixed parameters;
* :func:`distance_and_grad_wrt_gsyn` — evaluates the layer-wise distance
  ``D(g_syn, g_real)`` and its gradient with respect to ``g_syn``
  (the ``grad_{g_syn} D`` factor of Eq. 6);
* :func:`finite_difference_matching_grad` — the paper's five-pass
  finite-difference approximation (Eq. 7) of ``grad_{X'} D``.
"""

from __future__ import annotations

import contextlib
from typing import Sequence

import numpy as np

from .. import obs
from ..data.transforms import AugmentationParams, apply_augmentation
from ..nn import kernels
from ..nn.layers import Module, frozen_parameters
from ..nn.losses import cross_entropy, gradient_distance
from ..nn.tensor import Tensor
from ..nn.workspace import default_arena

__all__ = [
    "parameter_gradients",
    "input_gradient",
    "distance_and_grad_wrt_gsyn",
    "finite_difference_matching_grad",
    "gradient_cosine",
    "fd_stats",
    "EPSILON_NUMERATOR",
]

# Following DARTS [34] and footnote 2: epsilon = 0.01 / ||grad_{g_syn} D||_2.
EPSILON_NUMERATOR = 0.01


def _forward_loss(model: Module, x: Tensor, y: np.ndarray,
                  w: np.ndarray | None,
                  augmentation: AugmentationParams | None) -> Tensor:
    if augmentation is not None:
        x = apply_augmentation(x, augmentation)
    logits = model(x)
    return cross_entropy(logits, y, weights=w, reduction="mean")


def parameter_gradients(model: Module, x: np.ndarray, y: np.ndarray,
                        w: np.ndarray | None = None, *,
                        augmentation: AugmentationParams | None = None
                        ) -> tuple[list[np.ndarray], float]:
    """Gradients of the (confidence-weighted) CE loss w.r.t. every parameter.

    Returns the per-parameter gradient list (ordered as
    ``model.parameters()``) and the scalar loss value.
    """
    model.zero_grad()
    loss = _forward_loss(model, Tensor(np.asarray(x, dtype=np.float32)), y, w,
                         augmentation)
    loss.backward()
    # zero_grad() below drops the model's references to the gradient arrays,
    # so returning them directly (no .copy()) is safe.
    grads = [np.zeros_like(p.data) if p.grad is None else p.grad
             for p in model.parameters()]
    model.zero_grad()
    return grads, loss.item()


def input_gradient(model: Module, x: np.ndarray, y: np.ndarray,
                   w: np.ndarray | None = None, *,
                   augmentation: AugmentationParams | None = None) -> np.ndarray:
    """Gradient of the CE loss w.r.t. the input pixels at fixed parameters.

    Under the fast kernels the model parameters are temporarily frozen so
    the backward pass skips every parameter-gradient reduction — the FD
    passes of Eq. (7) only consume ``grad_X``.
    """
    x_tensor = Tensor(np.asarray(x, dtype=np.float32), requires_grad=True)
    model.zero_grad()
    freeze = (frozen_parameters(model) if kernels.fast_kernels_enabled()
              else contextlib.nullcontext())
    with freeze:
        loss = _forward_loss(model, x_tensor, y, w, augmentation)
        loss.backward()
    model.zero_grad()
    if x_tensor.grad is None:  # pragma: no cover - defensive
        return np.zeros_like(x_tensor.data)
    return x_tensor.grad


def distance_and_grad_wrt_gsyn(g_syn: Sequence[np.ndarray],
                               g_real: Sequence[np.ndarray], *,
                               metric: str = "cosine"
                               ) -> tuple[float, list[np.ndarray]]:
    """Evaluate ``D(g_syn, g_real)`` and ``grad_{g_syn} D``.

    The distance is built as a small autodiff graph over the gradient
    arrays, so any differentiable metric supported by
    :func:`repro.nn.losses.gradient_distance` works.
    """
    wrapped = [Tensor(g, requires_grad=True) for g in g_syn]
    distance = gradient_distance(wrapped, list(g_real), metric=metric)
    distance.backward()
    grads = [np.zeros_like(t.data) if t.grad is None else t.grad for t in wrapped]
    return distance.item(), grads


def gradient_cosine(g_syn: Sequence[np.ndarray],
                    g_real: Sequence[np.ndarray]) -> float:
    """Cosine between the flattened synthetic and real gradient stacks.

    The condensation-quality scalar: how well ``g_syn`` tracks ``g_real``
    over all layers at once — the quantity gradient matching optimizes.
    Both gradient lists are already materialized by the matching pass, so
    this costs three dot products.  NaN when either stack is zero or
    non-finite.
    """
    dot = sum(float(np.vdot(s, r)) for s, r in zip(g_syn, g_real))
    syn_sq = sum(float(np.vdot(s, s)) for s in g_syn)
    real_sq = sum(float(np.vdot(r, r)) for r in g_real)
    denom = float(np.sqrt(syn_sq) * np.sqrt(real_sq))
    if not np.isfinite(dot) or not np.isfinite(denom) or denom == 0.0:
        return float("nan")
    return dot / denom


# ----------------------------------------------------------------------
# Finite-difference evaluation (Eq. 7)
# ----------------------------------------------------------------------
# One count per two-pass ±ε evaluation, under the name the benchmark's
# pass check (``perfbench/measure.check_pass``) reads as two passes each.
_FD_STATS = {"serial_fallbacks": 0}


def fd_stats() -> dict[str, int]:
    """Module-level FD counters (pulled as gauges by the telemetry layer;
    the live obs counter is emitted at evaluation time)."""
    return dict(_FD_STATS)


def _serial_fd_passes(model, params, syn_x, syn_y, direction, eps,
                      augmentation):
    """The two perturbed input-gradient passes of Eq. (7), in sequence.

    The perturbed passes never mutate parameter arrays in place (they only
    rebind ``p.data``), so the current arrays themselves are the exact
    restore points — no per-iteration snapshot copies needed.  The
    perturbed values go into arena scratch: ``buf = eps*d; buf += orig``
    and ``buf = eps*d; buf = orig - buf`` reproduce the former
    ``orig + eps*d`` / ``orig - eps*d`` bit for bit (float add is
    commutative; the subtraction is the identical operation).
    """
    originals = [p.data for p in params]
    buffers = [default_arena.acquire(p.data.shape, np.float32) for p in params]
    try:
        for p, buf, orig, d in zip(params, buffers, originals, direction):
            np.multiply(d, eps, out=buf)
            buf += orig
            p.data = buf
        with obs.span("pass.fd_plus"):
            grad_plus = input_gradient(model, syn_x, syn_y,
                                       augmentation=augmentation)
        for p, buf, orig, d in zip(params, buffers, originals, direction):
            np.multiply(d, eps, out=buf)
            np.subtract(orig, buf, out=buf)
            p.data = buf
        with obs.span("pass.fd_minus"):
            grad_minus = input_gradient(model, syn_x, syn_y,
                                        augmentation=augmentation)
    finally:
        for p, orig in zip(params, originals):
            p.data = orig
        for buf in buffers:
            default_arena.release(buf)
    return grad_plus, grad_minus


def finite_difference_matching_grad(model: Module, syn_x: np.ndarray,
                                    syn_y: np.ndarray,
                                    direction: Sequence[np.ndarray], *,
                                    augmentation: AugmentationParams | None = None,
                                    epsilon_numerator: float = EPSILON_NUMERATOR,
                                    stats_out: dict | None = None
                                    ) -> np.ndarray:
    """Approximate ``grad_{X'} D`` via Eq. (7).

    Shifts the model parameters by ``±eps * direction`` where ``direction``
    is ``grad_{g_syn} D`` and ``eps = epsilon_numerator / ||direction||_2``,
    and differences the resulting input gradients.  The model parameters
    are restored exactly afterwards.  Each two-pass evaluation counts once
    in ``fd.serial_fallbacks``.

    ``stats_out``, when given, receives ``{"passes": 0|2}`` — the number of
    forward/backward evaluations that actually ran (0 when the direction
    norm is zero, or non-finite under the skip-step health policy), for the
    condense drivers' pass accounting.
    """
    with obs.span("pass.fd_total"):
        return _fd_matching_grad(model, syn_x, syn_y, direction,
                                 augmentation=augmentation,
                                 epsilon_numerator=epsilon_numerator,
                                 stats_out=stats_out)


def _fd_matching_grad(model, syn_x, syn_y, direction, *, augmentation,
                      epsilon_numerator, stats_out):
    params = model.parameters()
    if len(params) != len(direction):
        raise ValueError("direction list does not match model parameters")
    norm = float(np.sqrt(sum(float((d ** 2).sum()) for d in direction)))
    # skip-step: a non-finite direction cannot produce a usable FD step;
    # hand back a zero matching gradient (like the norm == 0 case) so the
    # caller's update stays finite.  Under ``record`` the check returns
    # True and the bytes below are unchanged.
    if not obs.get_monitor().check("fd.direction_norm", norm) or norm == 0.0:
        if stats_out is not None:
            stats_out["passes"] = 0
        return np.zeros_like(np.asarray(syn_x, dtype=np.float32))
    eps = epsilon_numerator / norm
    grad_plus, grad_minus = _serial_fd_passes(
        model, params, np.asarray(syn_x, dtype=np.float32), syn_y, direction,
        eps, augmentation)
    _FD_STATS["serial_fallbacks"] += 1
    obs.counter("fd.serial_fallbacks")
    if stats_out is not None:
        stats_out["passes"] = 2
    return (grad_plus - grad_minus) / (2.0 * eps)
