"""Import lrlab before any test module imports numpy, on one BLAS thread
unless told otherwise.

`import lrlab` copies LRLAB_THREADS into the BLAS thread-count variables, and
OpenBLAS reads those once, when numpy loads.  pytest imports this file before
the test modules, so the suite runs on one BLAS thread, which the acceptance
budgets assume: on a 2-core host beside one other CPU-bound process,
criterion 01's sweep took 4.1-4.7 s on one BLAS thread and 8.8 s on two.  An
explicit LRLAB_THREADS (`LRLAB_THREADS=2 pytest`) or BLAS thread variable
still wins.
"""

import os

os.environ.setdefault("LRLAB_THREADS", "1")

import lrlab  # noqa: E402, F401
