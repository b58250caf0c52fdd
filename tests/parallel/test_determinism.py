"""Bit-identity guarantees: the same seed always gives the same bytes.

* A seeded training step (conv + instance-norm + cross-entropy) and a
  seeded end-to-end ``DECOLearner`` run (via ``run_method``) reproduce
  their results byte-for-byte when run twice in one process.
* A grid fanned out to worker processes returns results bit-identical to
  the serial loop, in the same order.
"""

from __future__ import annotations

import math

import numpy as np

from repro.experiments import prepare_experiment, run_method, run_method_grid
from repro.nn import functional as F
from repro.nn.losses import cross_entropy
from repro.nn.tensor import Tensor


# ----------------------------------------------------------------------
# Same-seed repeatability
# ----------------------------------------------------------------------
def _training_step(batch):
    """Conv + instance-norm + cross-entropy; returns every gradient."""
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((batch, 3, 8, 8)).astype(np.float32),
               requires_grad=True)
    w = Tensor(rng.standard_normal((8, 3, 3, 3)).astype(np.float32) * 0.1,
               requires_grad=True)
    b = Tensor(np.zeros(8, np.float32), requires_grad=True)
    gamma = Tensor(np.ones(8, np.float32), requires_grad=True)
    beta = Tensor(np.zeros(8, np.float32), requires_grad=True)
    proj = Tensor(rng.standard_normal((8 * 8 * 8, 10)).astype(np.float32)
                  * 0.01)
    out = F.conv2d(x, w, b, stride=1, padding=1)
    out = F.instance_norm2d(out, gamma, beta)
    logits = out.reshape(batch, -1).matmul(proj)
    loss = cross_entropy(logits, rng.integers(0, 10, batch))
    loss.backward()
    return {"loss": loss.data.copy(), "dx": x.grad.copy(),
            "dw": w.grad.copy(), "db": b.grad.copy(),
            "dgamma": gamma.grad.copy(), "dbeta": beta.grad.copy()}


def test_training_step_stable_across_repeated_runs():
    first = _training_step(512)
    second = _training_step(512)
    for name, ref in first.items():
        assert ref.tobytes() == second[name].tobytes(), name


def _norm(v):
    # NaN-safe: vote_margin / retained_label_accuracy are NaN on some
    # segments, and NaN != NaN would make every fingerprint unequal.
    if isinstance(v, float) and math.isnan(v):
        return "nan"
    return v


def _history_fingerprint(result):
    return (result.final_accuracy,
            [sorted((k, _norm(v)) for k, v in d.items())
             for d in result.history.diagnostics])


def test_deco_learner_run_stable_across_repeated_runs():
    prepared = prepare_experiment("core50", "micro", seed=0)
    first = run_method(prepared, "deco", 1, seed=0)
    second = run_method(prepared, "deco", 1, seed=0)
    assert _history_fingerprint(first) == _history_fingerprint(second)


# ----------------------------------------------------------------------
# Process sweep vs serial loop
# ----------------------------------------------------------------------
def test_method_grid_bit_identical_serial_vs_processes():
    prepared = prepare_experiment("core50", "micro", seed=0)
    configs = [{"method": "deco", "ipc": ipc, "seed": 0} for ipc in (1, 2)]
    configs.append({"method": "random", "ipc": 1, "seed": 0})
    serial = run_method_grid(prepared, configs, jobs=1)
    fanned = run_method_grid(prepared, configs, jobs=2)
    assert [r.method for r in serial] == [r.method for r in fanned]
    for s, p in zip(serial, fanned):
        assert _history_fingerprint(s) == _history_fingerprint(p)
