"""Action-reaction flow matching lab: paths, guided sampling, geometry, metrics.

Importing this package before numpy pins the BLAS thread pools to
``ARFLOW_THREADS`` (default 1): the workload is many small matrix products,
where thread fan-out costs more than it buys, and single-threaded kernels
keep results bit-reproducible across machines with different core counts.
"""

import os as _os

_threads = _os.environ.get("ARFLOW_THREADS", "1")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, _threads)
