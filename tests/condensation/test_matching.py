"""Unit tests for gradient-matching primitives (repro.condensation.matching)."""

import numpy as np
import pytest

from repro.condensation.matching import (distance_and_grad_wrt_gsyn,
                                         finite_difference_matching_grad,
                                         input_gradient, parameter_gradients)
from repro.data.transforms import AugmentationParams
from repro.nn.convnet import ConvNet
from repro.nn.losses import cross_entropy, gradient_distance
from repro.nn.mlp import MLP
from repro.nn.tensor import Tensor


@pytest.fixture
def model(rng):
    return ConvNet(1, 3, 8, width=4, depth=2, rng=rng)


@pytest.fixture
def batch(rng):
    x = rng.standard_normal((6, 1, 8, 8)).astype(np.float32)
    y = np.array([0, 1, 2, 0, 1, 2])
    return x, y


class TestParameterGradients:
    def test_matches_direct_backward(self, model, batch):
        x, y = batch
        grads, loss = parameter_gradients(model, x, y)
        model.zero_grad()
        direct_loss = cross_entropy(model(Tensor(x)), y)
        direct_loss.backward()
        assert loss == pytest.approx(direct_loss.item(), rel=1e-5)
        for g, p in zip(grads, model.parameters()):
            np.testing.assert_allclose(g, p.grad, rtol=1e-5)
        model.zero_grad()

    def test_leaves_model_grads_clean(self, model, batch):
        parameter_gradients(model, *batch)
        assert all(p.grad is None for p in model.parameters())

    def test_confidence_weights_change_gradients(self, model, batch):
        x, y = batch
        g_uniform, _ = parameter_gradients(model, x, y)
        w = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0], dtype=np.float32)
        g_weighted, _ = parameter_gradients(model, x, y, w)
        assert any(not np.allclose(a, b)
                   for a, b in zip(g_uniform, g_weighted))

    def test_augmentation_changes_gradients(self, model, batch):
        x, y = batch
        params = AugmentationParams(flip=True, dx=1, dy=0, brightness=0.2,
                                    contrast=1.1, cutout_top=0, cutout_left=0,
                                    cutout_size=2)
        g_plain, _ = parameter_gradients(model, x, y)
        g_aug, _ = parameter_gradients(model, x, y, augmentation=params)
        assert any(not np.allclose(a, b) for a, b in zip(g_plain, g_aug))


class TestInputGradient:
    def test_shape_matches_input(self, model, batch):
        x, y = batch
        grad = input_gradient(model, x, y)
        assert grad.shape == x.shape
        assert np.abs(grad).max() > 0

    def test_matches_numerical_directional_derivative(self, model, batch):
        x, y = batch
        grad = input_gradient(model, x, y)
        rng = np.random.default_rng(0)
        direction = rng.standard_normal(x.shape).astype(np.float32)
        direction /= np.linalg.norm(direction)
        eps = 1e-2

        def loss_at(delta):
            from repro.nn.tensor import no_grad
            with no_grad():
                return cross_entropy(model(Tensor(x + delta * direction)),
                                     y).item()

        numerical = (loss_at(eps) - loss_at(-eps)) / (2 * eps)
        analytic = float((grad * direction).sum())
        assert analytic == pytest.approx(numerical, rel=0.05, abs=1e-4)


class TestDistanceAndGrad:
    def test_zero_distance_for_identical(self, rng):
        grads = [rng.standard_normal((3, 4)).astype(np.float32)]
        dist, direction = distance_and_grad_wrt_gsyn(grads,
                                                     [g.copy() for g in grads])
        assert dist == pytest.approx(0.0, abs=1e-4)
        # At the minimum the cosine-distance gradient is ~0.
        assert np.abs(direction[0]).max() < 1e-3

    def test_direction_reduces_distance(self, rng):
        g_syn = [rng.standard_normal((4, 5)).astype(np.float32)]
        g_real = [rng.standard_normal((4, 5)).astype(np.float32)]
        dist, direction = distance_and_grad_wrt_gsyn(g_syn, g_real)
        stepped = [g - 0.5 * d for g, d in zip(g_syn, direction)]
        new_dist = gradient_distance([Tensor(s) for s in stepped],
                                     g_real).item()
        assert new_dist < dist

    def test_l2_metric_gradient(self, rng):
        g_syn = [rng.standard_normal((2, 3)).astype(np.float32)]
        g_real = [rng.standard_normal((2, 3)).astype(np.float32)]
        dist, direction = distance_and_grad_wrt_gsyn(g_syn, g_real,
                                                     metric="l2")
        np.testing.assert_allclose(direction[0],
                                   2.0 * (g_syn[0] - g_real[0]), rtol=1e-4)


class TestFiniteDifference:
    def test_parameters_restored_exactly(self, model, batch, rng):
        x, y = batch
        before = model.state_dict()
        direction = [rng.standard_normal(p.shape).astype(np.float32)
                     for p in model.parameters()]
        finite_difference_matching_grad(model, x, y, direction)
        after = model.state_dict()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])

    def test_zero_direction_returns_zero(self, model, batch):
        x, y = batch
        direction = [np.zeros(p.shape, dtype=np.float32)
                     for p in model.parameters()]
        grad = finite_difference_matching_grad(model, x, y, direction)
        np.testing.assert_array_equal(grad, 0.0)

    def test_direction_length_mismatch_raises(self, model, batch):
        with pytest.raises(ValueError, match="direction"):
            finite_difference_matching_grad(model, *batch, direction=[])

    def test_approximates_true_matching_gradient(self, rng):
        """End-to-end check of Eq. (7) against a numerical ground truth.

        On a tiny MLP we can afford to numerically differentiate
        D(g_syn(X'), g_real) with respect to every synthetic pixel and
        compare with the five-pass finite-difference estimate.
        """
        model = MLP(4, 2, hidden=(5,), rng=rng)
        x_real = rng.standard_normal((4, 4)).astype(np.float32)
        y_real = np.array([0, 1, 0, 1])
        x_syn = rng.standard_normal((2, 4)).astype(np.float32)
        y_syn = np.array([0, 1])

        g_real, _ = parameter_gradients(model, x_real, y_real)

        def distance_of(x_value):
            g_syn, _ = parameter_gradients(model, x_value, y_syn)
            return gradient_distance([Tensor(g) for g in g_syn], g_real).item()

        # Numerical gradient over all synthetic pixels.
        numeric = np.zeros_like(x_syn)
        eps = 1e-2
        for i in np.ndindex(*x_syn.shape):
            perturbed = x_syn.copy()
            perturbed[i] += eps
            up = distance_of(perturbed)
            perturbed[i] -= 2 * eps
            down = distance_of(perturbed)
            numeric[i] = (up - down) / (2 * eps)

        g_syn, _ = parameter_gradients(model, x_syn, y_syn)
        _, direction = distance_and_grad_wrt_gsyn(g_syn, g_real)
        estimate = finite_difference_matching_grad(model, x_syn, y_syn,
                                                   direction)
        # Cosine similarity between estimate and ground truth should be high.
        cos = (estimate.ravel() @ numeric.ravel()) / (
            np.linalg.norm(estimate) * np.linalg.norm(numeric) + 1e-12)
        assert cos > 0.9

    def test_step_direction_reduces_distance_end_to_end(self, model, batch,
                                                        rng):
        x_real, y_real = batch
        x_syn = rng.standard_normal((3, 1, 8, 8)).astype(np.float32)
        y_syn = np.array([0, 1, 2])
        g_real, _ = parameter_gradients(model, x_real, y_real)
        g_syn, _ = parameter_gradients(model, x_syn, y_syn)
        dist_before, direction = distance_and_grad_wrt_gsyn(g_syn, g_real)
        pixel_grad = finite_difference_matching_grad(model, x_syn, y_syn,
                                                     direction)
        x_new = x_syn - 0.5 * pixel_grad
        g_new, _ = parameter_gradients(model, x_new, y_syn)
        dist_after = gradient_distance([Tensor(g) for g in g_new],
                                       g_real).item()
        assert dist_after < dist_before


# ----------------------------------------------------------------------
# Pass accounting and the fd.serial_fallbacks counter
# ----------------------------------------------------------------------
def _fd_case(shape, num_classes, width, depth, n, seed=0):
    rng = np.random.default_rng(seed)
    model = ConvNet(shape[0], num_classes, shape[-1], width=width,
                    depth=depth, rng=np.random.default_rng(seed + 7))
    x = rng.standard_normal((n, *shape)).astype(np.float32)
    y = rng.integers(0, num_classes, size=n).astype(np.int64)
    direction = [rng.standard_normal(p.data.shape).astype(np.float32)
                 for p in model.parameters()]
    return model, x, y, direction


def test_augmented_path_stays_sequential():
    model, x, y, direction = _fd_case((1, 8, 8), 3, 4, 2, 6)

    from repro.data.transforms import sample_augmentation
    augmentation = sample_augmentation(8, np.random.default_rng(0))
    stats: dict = {}
    finite_difference_matching_grad(
        model, x, y, direction, augmentation=augmentation, stats_out=stats)
    assert stats == {"passes": 2}


def test_zero_direction_short_circuits():
    model, x, y, direction = _fd_case((1, 8, 8), 3, 4, 2, 6)
    zeros = [np.zeros_like(d) for d in direction]
    stats: dict = {}
    grad = finite_difference_matching_grad(model, x, y, zeros,
                                           stats_out=stats)
    assert stats == {"passes": 0}
    assert not grad.any()


def _fd_sweep_worker(config, context, arrays):
    """Sweep task: one FD evaluation, counted via obs."""
    from repro import obs as _obs  # picklable module-level worker

    model, x, y, direction = _fd_case((1, 8, 8), 3, 4, 2, 6,
                                      seed=config["seed"])
    stats: dict = {}
    finite_difference_matching_grad(model, x, y, direction, stats_out=stats)
    _obs.counter("task.calls")
    return stats["passes"]


def test_fd_counter_parity_jobs1_vs_jobs2(tmp_path):
    from repro import obs
    from repro.obs import aggregate_worker_counters
    from repro.obs.export import WORKERS_FILENAME
    from repro.obs.sinks import read_jsonl_tolerant
    from repro.parallel import run_sweep

    configs = [{"seed": 0}, {"seed": 1}]

    registry = obs.Telemetry()
    registry.enable()
    with obs.scoped_telemetry(registry):
        serial_passes = [o.result for o in
                         run_sweep(_fd_sweep_worker, configs, jobs=1)]
    serial = {name: value
              for name, value in registry.snapshot()["counters"].items()
              if name.startswith("fd.")}
    assert serial_passes == [2, 2]
    # One count per two-pass evaluation.
    assert serial == {"fd.serial_fallbacks": 2.0}

    outcomes = run_sweep(_fd_sweep_worker, configs, jobs=2,
                         telemetry_dir=tmp_path)
    assert [o.result for o in outcomes] == serial_passes
    records, skipped = read_jsonl_tolerant(tmp_path / WORKERS_FILENAME)
    assert skipped == 0
    totals = {name: value
              for name, value in aggregate_worker_counters(records).items()
              if name.startswith("fd.")}
    assert totals == serial
