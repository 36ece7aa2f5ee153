"""Numerical lab for Bochner-Martinelli-Koppelman integrals, weak boundary
values of first-order differential operators, and boundary-aware Friedrichs
mollification, verified at desk scale."""

import os

# fields._on_cpus is the process's one thread pool.  numpy's bundled
# OpenBLAS would start a second one when numpy loads, whose idle threads
# spin-wait for work and take the CPU the runner's threads need; bmklab's
# matrix products are small, so one BLAS thread loses nothing.  This must
# run before any bmklab module imports numpy.  A value the user has set
# wins, and a process that imported numpy before bmklab keeps the pool
# OpenBLAS started then.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
