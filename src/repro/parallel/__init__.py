"""Process-level parallel execution for the DECO reproduction stack.

:mod:`repro.parallel.sweep` is a multiprocessing sweep executor that fans
independent experiment grid points out to worker processes, shipping the
large arrays once through :mod:`multiprocessing.shared_memory`.  Grid
points share no state, so a sweep at ``--jobs N`` returns the same results
as the serial run.  The default is one job, which runs every point
in-process.

The kernels themselves always run on one serial path; any threading below
them is the BLAS library's own.
"""

from .sweep import (SharedArrayPack, SweepOutcome, SweepTaskError,
                    default_start_method, iter_sweep, run_sweep)

__all__ = [
    "SharedArrayPack",
    "SweepOutcome",
    "SweepTaskError",
    "iter_sweep",
    "run_sweep",
    "default_start_method",
]
