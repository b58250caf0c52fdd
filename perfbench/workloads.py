"""The benchmark's workloads and the seeds each run derives from ``--seed``.

Every workload is a closed loop: one learner consumes a stream of 40
segments of 15 samples (the ``smoke`` profile), each segment delivered as
soon as the previous one has been processed.  The seed is the benchmark's
argument; the program only receives what is generated from it: the
pretraining subset and model initialisation (``prepare_experiment``) and
the stream order plus learner randomness (``run_method``).
"""

from __future__ import annotations

from dataclasses import dataclass

# Images per class of every run_method call.
IPC = 10

# Table I's selection baselines, in the order the grid runs them.
BASELINES = ("random", "fifo", "selective_bp", "k_center", "gss_greedy",
             "herding")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; why each exists is said in BENCHMARK.json.

    Attributes
    ----------
    dataset:
        Registry name of the synthetic dataset.
    methods:
        ``run_method`` methods, all at ``IPC`` images per class.
    grid:
        Run the methods through ``run_method_grid(jobs=1)`` instead of one
        ``run_method`` call.
    passes:
        Fresh processes per untraced run, each on its own derived seed.
        Two passes average two streams (DECO's work depends on how many
        segments elect active classes) and twice the time of the host's
        speed swings, which dominate the baselines' spread.  One
        ``deco-cifar100`` pass already measures ~28 s; a second would not
        fit the benchmark's time budget.
    """

    dataset: str
    methods: tuple[str, ...]
    grid: bool
    passes: int


WORKLOADS = {
    "deco-core50": Workload(
        dataset="core50", methods=("deco",), grid=False, passes=2),
    "deco-cifar100": Workload(
        dataset="cifar100", methods=("deco",), grid=False, passes=1),
    "baselines-grid": Workload(
        dataset="core50", methods=BASELINES, grid=True, passes=2),
}

# Derived seeds of one run are this far apart, so the seeds of different
# runs never collide for any practical --seed.
SEED_STRIDE = 1_000_003


def pass_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th pass of the run started with ``seed``."""
    return int(seed) + SEED_STRIDE * int(index)
